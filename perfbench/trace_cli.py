"""Run the cognopipe command line with spans around each layer's public functions.

    python3 perfbench/trace_cli.py SPANS_JSON train-eval --manifest DIR ...

The functions named in WRAPPED are replaced, in every loaded cognopipe
module that refers to them, by a wrapper that records one span per call:
[name, parent span index, start, end, count].  `count` is a per-call
figure taken at the same boundary (frames in, steps taken, bytes read,
...).  Spans stay in memory and are written to SPANS_JSON after the
command returns; perfbench/run.py turns them into per-layer metrics.
Nothing under src/ is changed.  Calls made inside pool worker processes
are not collected.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _rchar() -> tuple[int, int]:
    """(bytes this process has read so far, bytes of this probe's own read)."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        raw = os.read(fd, 4096)
    finally:
        os.close(fd)
    return int(raw.split(b"rchar:")[1].split()[0]), len(raw)


class ReadBytes:
    """Probe: bytes read by the process during the call (rchar delta)."""

    def before(self, args, kwargs):
        return _rchar()

    def after(self, state, args, kwargs, result):
        start, probe_len = state
        return _rchar()[0] - start - probe_len


class Count:
    """Probe: a number computed from the call's arguments and result."""

    def __init__(self, fn):
        self.fn = fn

    def before(self, args, kwargs):
        return None

    def after(self, state, args, kwargs, result):
        return self.fn(args, kwargs, result)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _lr_meta(args, kwargs, result):
    meta = result.training_meta
    return [meta["iterations"], 0 if meta["converged"] else 1]


WRAPPED = {
    "corpus": {"load_manifest": ReadBytes()},
    "dsp": {
        "read_wav": Count(lambda a, k, r: str(_arg(a, k, 0, "path"))),
        "detect_speech": None,
        "frame_signal": None,
    },
    "kernels": {
        "autocorr_norm_batch": Count(lambda a, k, r: len(_arg(a, k, 0, "frames"))),
        "rfft_pow2_batch": Count(lambda a, k, r: len(_arg(a, k, 0, "frames"))),
        "pegasos": Count(lambda a, k, r: len(_arg(a, k, 4, "idx"))),
    },
    "acoustic": {"extract_llds": None, "egemaps_like": None, "compare_like": None},
    "linguistic": {"fit_vocabulary": None, "vectorize_tfidf": None, "lexical_vector": None},
    "classifiers": {
        "train_logistic": Count(_lr_meta),
        "train_linear_svm": None,
        "fit_standardizer": None,
    },
    "evaluation": {
        "extract_task_features": None,
        "run_task_experiment": None,
        "build_report": None,
        "write_report": Count(lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    },
}


class Tracer:
    """Spans of one process, recorded by the wrappers it installs."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = probe.before(args, kwargs) if probe else None
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0, None])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][2:4] = [t0, t1]
            if probe:
                spans[idx][4] = probe.after(state, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every WRAPPED function wherever a cognopipe module refers to it."""
        importlib.import_module("cognopipe.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cognopipe" or n.startswith("cognopipe.")]
        for layer, functions in WRAPPED.items():
            home = sys.modules[f"cognopipe.{layer}"]
            for fname, probe in functions.items():
                original = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", original, probe)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from cognopipe import cli

    code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
