"""Write perfbench/golden/<workload>.json from the code in this checkout.

    python3 perfbench/make_golden.py [WORKLOAD ...]

For each workload (default: all) and each corpus seed 0..N_CORPORA-1,
runs train-eval once and stores the result fingerprint.  Regenerate only
when a workload's definition changes, from a commit whose results are
trusted: every later benchmark run is judged against these files.
"""

from __future__ import annotations

import json
import sys

import fingerprint
import run


def main(names: list[str]) -> int:
    for name in names or list(run.WORKLOADS):
        wl = run.WORKLOADS[name]
        corpora = {}
        for seed in range(run.N_CORPORA):
            bench = run.Bench(wl, seed, golden=None)
            result, raw = bench.train_eval(bench.corpus_dir())
            if not result.ok or raw is None:
                print(f"{name} seed {seed}: run failed {result.problems}", file=sys.stderr)
                return 1
            corpora[str(seed)] = fingerprint.fingerprint(json.loads(raw))
            print(f"{name} seed {seed}: {result.wall_s:.2f} s")
        doc = {"synth": wl.synth, "flags": list(wl.flags), "corpora": corpora}
        path = run.HERE / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
