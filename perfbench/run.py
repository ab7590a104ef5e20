"""Pipeline benchmark: `cognopipe train-eval` end to end, and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0

Run from anywhere; paths are relative to the checkout holding this file.
The program is run from its source tree (src/ on PYTHONPATH), each run in
a fresh interpreter, one run at a time (closed loop, one client).

Inputs.  Each workload is a synthetic corpus made by `cognopipe synth`
plus a fixed `train-eval` command line.  The corpus seed is
`--seed % N_CORPORA`; perfbench/golden/<workload>.json holds the result
fingerprint the current code produced on each of those corpora (see
make_golden.py), and every run is checked against it.  Corpora are made
once and kept under .perfbench_work/; making them is never timed.

--trace 0 repeats the run until --seconds is spent and reports medians:
  wall_s       spawn of `python3 -m cognopipe.cli train-eval` to its exit
               (report.json is written just before the exit)
  setup_s      a fresh interpreter importing cognopipe.cli, then
               corpus.load_manifest + corpus.stratified_folds; one before
               each run, after an untimed one that compiles bytecode
  cpu_s        user + sys seconds of the run and every descendant (wait4)
  peak_rss_mb  largest resident set of the run's processes (wait4)
The three times are given in reference seconds.  On a shared 2-CPU VM
the speed drifts by 30 % or more within minutes with the neighbours'
load, so raw medians of one window differ from the next by more than any
usable bound.  Before each run a fixed calibration job (CALIBRATION_CODE,
no cognopipe code) is timed as well, and each time is scaled by
CALIBRATION_REF_S / (median calibration time of the same window).  The
summary lines print the raw samples and medians too.  Per-layer times
from --trace 1 are raw.
Failed runs are counted in "failed"; the summary prints their share as
`failures`.  A run fails when it exits nonzero or its fingerprint departs
from the golden one.  Where the workload runs a process pool, one more
run at --workers 1 (same --out) must write a byte-identical report.

--trace 1 runs untraced for half of --seconds, then once through
perfbench/trace_cli.py at the same worker count, and reports the
per-layer metrics built from its spans (self time = span minus child
spans).  BLAS and OpenMP thread counts are left to the program.

The last stdout line is the JSON result; the process exits 1 if any run
failed, and 2 without a result when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import fingerprint

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")  # relative to ROOT; children run with cwd=ROOT
N_CORPORA = 8
DEADLINE_S = 170.0  # every run of one invocation ends within this
CALIBRATION_REF_S = 0.25  # median CALIBRATION_CODE time on the 2-CPU reference VM
SYNTH_TIMEOUT_S = 600.0


class BenchError(Exception):
    """The benchmark cannot run (not a failure of the program under test)."""


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthSpec fields except the seed
    flags: tuple[str, ...]  # train-eval flags besides --manifest and --out

    def flag(self, name: str) -> str | None:
        return self.flags[self.flags.index(name) + 1] if name in self.flags else None


_SEPARATION = {"acoustic_separation": 20.0, "linguistic_separation": 0.5}
_README_FLAGS = ("--classifiers", "LogisticRegression,LinearSVM", "--k", "5", "--seed", "7")

# Why each workload is here: its "why" in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acoustic_long",
            {"n_case": 5, "n_control": 5, "duration_s": 8.0, **_SEPARATION},
            ("--tasks", "ShortTerm", "--features", "EgemapsLike88,CompareLike")
            + _README_FLAGS + ("--workers", "1"),
        ),
        Workload(
            "text_many",
            {"n_case": 50, "n_control": 50, "duration_s": 1.0, **_SEPARATION},
            ("--features", "NgramTfidf,Lexical") + _README_FLAGS + ("--workers", "1"),
        ),
        Workload(
            "cli_default",
            {"n_case": 5, "n_control": 5, "duration_s": 3.0, **_SEPARATION},
            ("--features", "EgemapsLike88,NgramTfidf") + _README_FLAGS,
        ),
    )
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("corpus.load_manifest_s", "s"),
    ("corpus.load_manifest_read_mb", "MB"),
    ("dsp.read_wav_s", "s"),
    ("dsp.read_wav_calls", "count"),
    ("dsp.detect_speech_s", "s"),
    ("dsp.detect_speech_calls", "count"),
    ("dsp.frame_signal_s", "s"),
    ("dsp.frame_signal_calls", "count"),
    ("dsp.decodes_per_recording", "ratio"),
    ("kernels.autocorr_norm_batch_s", "s"),
    ("kernels.autocorr_norm_batch_calls", "count"),
    ("kernels.autocorr_frames", "count"),
    ("kernels.rfft_pow2_batch_s", "s"),
    ("kernels.rfft_pow2_batch_calls", "count"),
    ("kernels.rfft_frames", "count"),
    ("kernels.pegasos_s", "s"),
    ("kernels.pegasos_steps", "count"),
    ("acoustic.extract_llds_s", "s"),
    ("acoustic.extract_llds_calls", "count"),
    ("acoustic.llds_per_recording", "ratio"),
    ("acoustic.functionals_s", "s"),
    ("linguistic.fit_vocabulary_s", "s"),
    ("linguistic.vectorize_tfidf_s", "s"),
    ("linguistic.vectorize_tfidf_calls", "count"),
    ("linguistic.lexical_vector_s", "s"),
    ("classifiers.train_logistic_s", "s"),
    ("classifiers.lr_iterations", "count"),
    ("classifiers.lr_not_converged", "count"),
    ("classifiers.train_linear_svm_s", "s"),
    ("classifiers.fit_standardizer_s", "s"),
    ("evaluation.extract_task_features_s", "s"),
    ("evaluation.extract_task_features_calls", "count"),
    ("evaluation.run_task_experiment_s", "s"),
    ("evaluation.build_report_s", "s"),
    ("evaluation.write_report_s", "s"),
    ("evaluation.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

SETUP_CODE = (
    "import sys\n"
    "import cognopipe.cli\n"
    "from cognopipe import corpus\n"
    "c = corpus.load_manifest(sys.argv[1])\n"
    "corpus.stratified_folds(c, int(sys.argv[2]), int(sys.argv[3]))\n"
)

# A fixed job with the program's mix: interpreter start, numpy import,
# FFT, elementwise and BLAS work, and a Python loop.
CALIBRATION_CODE = r"""
import numpy as np
x = np.random.default_rng(0).standard_normal((1500, 400))
for _ in range(3):
    np.fft.rfft(x, axis=1)
    np.einsum("ij,ij->i", x[:, :300], x[:, 100:])
    x.T @ x
total = 0
for i in range(200_000):
    total += i % 7
"""

ENV_CODE = r"""
import ctypes, importlib.util, json, os, platform
import numpy
from cognopipe import kernels
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {"name": blas.get("name"), "version": blas.get("version")}
except (TypeError, KeyError):
    blas = {"name": "unknown", "version": "unknown"}
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.argtypes = []
            fn.restype = ctypes.c_int
            threads = fn()
            break
    if threads is not None:
        break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": blas,
    "blas_threads": threads,
    "nproc": os.cpu_count(),
    "cpus_usable": len(os.sched_getaffinity(0)),
    "numba_importable": importlib.util.find_spec("numba") is not None,
    "kernels_use_numba": kernels.USE_NUMBA,
}))
"""


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    problems: list

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.problems


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Bench:
    """One workload on one corpus: runs children and checks what they write."""

    def __init__(self, workload: Workload, seed: int, golden: dict | None, log=print):
        self.wl = workload
        self.corpus_seed = seed % N_CORPORA
        self.golden = golden
        self.log = log
        self.work = WORK / workload.name
        self.out = self.work / "out"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        (ROOT / self.work).mkdir(parents=True, exist_ok=True)

    # -- children ---------------------------------------------------------

    def spawn(self, cmd: list[str], log_name: str, timeout: float | None = None) -> Run:
        """Run one child to completion; wall time, and rusage from wait4."""
        if timeout is None:
            timeout = max(1.0, self.deadline - time.monotonic())
        with open(ROOT / self.work / log_name, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # strays of a crashed run, if any
        return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, [])

    def corpus_dir(self) -> Path:
        """The workload's corpus for this seed, made on first use."""
        spec = dict(self.wl.synth, seed=self.corpus_seed)
        digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:12]
        final = WORK / "corpora" / f"{self.wl.name}-{self.corpus_seed}-{digest}"
        if (ROOT / final / ".complete").exists():
            return final
        tmp = final.with_name(final.name + ".tmp")
        shutil.rmtree(ROOT / tmp, ignore_errors=True)
        shutil.rmtree(ROOT / final, ignore_errors=True)
        (ROOT / tmp).mkdir(parents=True)
        spec_file = tmp / "spec.json"
        (ROOT / spec_file).write_text(json.dumps(spec, sort_keys=True))
        run = self.spawn([sys.executable, "-m", "cognopipe.cli", "synth", "--out", str(tmp),
                          "--config", str(spec_file)], "synth.log", SYNTH_TIMEOUT_S)
        if run.returncode != 0:
            raise BenchError(f"synth failed (see {self.work / 'synth.log'})")
        os.replace(ROOT / tmp, ROOT / final)
        (ROOT / final / ".complete").touch()
        return final

    def workers(self) -> int:
        """The worker count train-eval uses: --workers, else os.cpu_count()."""
        flag = self.wl.flag("--workers")
        return int(flag) if flag else os.cpu_count() or 1

    def environment(self, manifest: Path) -> dict:
        try:
            proc = subprocess.run([sys.executable, "-c", ENV_CODE], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("environment probe timed out")
        if proc.returncode != 0:
            raise BenchError(f"environment probe failed: {proc.stderr.strip()[-300:]}")
        env = json.loads(proc.stdout)
        env["workers_effective"] = self.workers()
        env["corpus"] = {"path": str(manifest), "synth_spec": dict(self.wl.synth),
                         "seed": self.corpus_seed}
        return env

    def calibrate_once(self) -> float:
        run = self.spawn([sys.executable, "-c", CALIBRATION_CODE], "calibration.log")
        if run.returncode != 0:
            raise BenchError(f"calibration failed (see {self.work / 'calibration.log'})")
        return run.wall_s

    def setup_once(self, manifest: Path) -> float:
        """Wall time of one fresh-interpreter import + manifest load + folds."""
        run = self.spawn([sys.executable, "-c", SETUP_CODE, str(manifest),
                          self.wl.flag("--k"), self.wl.flag("--seed")], "setup.log")
        if run.returncode != 0:
            raise BenchError(f"set-up failed (see {self.work / 'setup.log'})")
        return run.wall_s

    def train_eval(self, manifest: Path, extra: tuple[str, ...] = (),
                   spans: Path | None = None) -> tuple[Run, bytes | None]:
        """One train-eval run, checked unless golden is None; returns it with the report bytes."""
        args = ["train-eval", "--manifest", str(manifest), "--out", str(self.out),
                *self.wl.flags, *extra]
        prefix = ([str(HERE / "trace_cli.py"), str(spans)] if spans
                  else ["-m", "cognopipe.cli"])
        report_path = ROOT / self.out / "report.json"
        report_path.unlink(missing_ok=True)
        run = self.spawn([sys.executable, *prefix, *args], "train_eval.log")
        if run.returncode != 0:
            run.problems.append(f"exit code {run.returncode} (see {self.work / 'train_eval.log'})")
            return run, None
        try:
            raw = report_path.read_bytes()
            if self.golden is not None:
                actual = fingerprint.fingerprint(json.loads(raw))
                run.problems.extend(fingerprint.compare(self.golden, actual))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            run.problems.append(f"unreadable report: {exc!r}")
            return run, None
        return run, raw

    # -- one invocation ---------------------------------------------------

    def timed_runs(self, manifest: Path, budget_s: float, timed: bool):
        """Repeat the run while the next one is expected to end within budget_s.

        When `timed`, a calibration and a set-up are timed before each run,
        so all three samples spread over the same stretch of time.
        """
        runs: list[Run] = []
        calibration: list[float] = []
        setup: list[float] = []
        first_report = None
        t0 = time.monotonic()
        while True:
            if timed:
                calibration.append(self.calibrate_once())
                setup.append(self.setup_once(manifest))
            run, raw = self.train_eval(manifest)
            runs.append(run)
            first_report = first_report or raw
            expected = sum(statistics.median(xs) for xs in
                           ([r.wall_s for r in runs], calibration, setup) if xs)
            if time.monotonic() - t0 + expected > budget_s or time.monotonic() > self.deadline:
                return runs, calibration, setup, first_report

    def identity_check(self, manifest: Path, pooled_report: bytes | None) -> Run | None:
        """When the workload uses a pool, a --workers 1 run must write the same bytes."""
        if self.workers() <= 1:
            return None
        run, raw = self.train_eval(manifest, ("--workers", "1"))
        if raw is not None and raw != pooled_report:
            run.problems.append("report at --workers 1 differs from the pooled run's bytes")
        return run

    def measure(self, seconds: float, trace: bool) -> dict:
        manifest = self.corpus_dir()
        env = self.environment(manifest)
        self.log("env " + json.dumps(env, sort_keys=True))
        self.setup_once(manifest)  # untimed: compiles bytecode, warms the page cache
        runs, calibration, setup, pooled_report = self.timed_runs(
            manifest, seconds / 2 if trace else seconds, timed=not trace)
        walls = [r.wall_s for r in runs]
        checked = list(runs)
        if trace:
            spans_path = self.work / "spans.json"
            (ROOT / spans_path).unlink(missing_ok=True)
            traced, _ = self.train_eval(manifest, spans=spans_path)
            checked.append(traced)
            metrics = layer_metrics(json.loads((ROOT / spans_path).read_text())["spans"]
                                    if traced.returncode == 0 else [])
            metrics["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
            units = dict(PER_LAYER)
        else:
            raw = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "cpu_s": statistics.median(r.cpu_s for r in runs),
            }
            scale = CALIBRATION_REF_S / statistics.median(calibration)
            metrics = {k: v * scale for k, v in raw.items()}
            metrics["peak_rss_mb"] = statistics.median(r.peak_rss_mb for r in runs)
            units = dict(END_TO_END)
            self.log(f"{self.wl.name}: {len(runs)} timed runs; raw s per run:")
            for name, xs in (("wall", walls), ("setup", setup), ("calibration", calibration)):
                self.log(f"  {name:12s}" + " ".join(f"{x:.3f}" for x in xs))
            self.log(f"  raw medians {json.dumps(raw)}; scale {scale:.4f}")
        identity = self.identity_check(manifest, pooled_report)
        if identity is not None:
            checked.append(identity)
        failed = sum(not r.ok for r in checked)
        for r in checked:
            for p in r.problems[:5]:
                self.log(f"FAIL {self.wl.name}: {p}")
            if len(r.problems) > 5:
                self.log(f"FAIL {self.wl.name}: ... {len(r.problems) - 5} more")
        for name, value in metrics.items():
            self.log(f"  {self.wl.name:14s} {name:40s} {value:14.6f} {units[name]}")
        self.log(f"  {self.wl.name:14s} {'failures':40s} {failed / len(checked):14.6f} "
                 f"share ({failed} of {len(checked)} runs)")
        return {
            "correct": failed == 0,
            "attempted": len(checked),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from trace_cli spans [name, parent, t0, t1, count]."""
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, list] = defaultdict(list)
    for i, (name, _, t0, t1, count) in enumerate(spans):
        self_s[name] += (t1 - t0) - child_s[i]
        calls[name] += 1
        if count is not None:
            counts[name].append(count)
    recordings = len(set(counts["dsp.read_wav"]))

    def per_recording(n: int) -> float:
        return n / recordings if recordings else 0.0

    lr = counts["classifiers.train_logistic"]
    return {
        "corpus.load_manifest_s": self_s["corpus.load_manifest"],
        "corpus.load_manifest_read_mb": sum(counts["corpus.load_manifest"]) / 1e6,
        "dsp.read_wav_s": self_s["dsp.read_wav"],
        "dsp.read_wav_calls": calls["dsp.read_wav"],
        "dsp.detect_speech_s": self_s["dsp.detect_speech"],
        "dsp.detect_speech_calls": calls["dsp.detect_speech"],
        "dsp.frame_signal_s": self_s["dsp.frame_signal"],
        "dsp.frame_signal_calls": calls["dsp.frame_signal"],
        "dsp.decodes_per_recording": per_recording(calls["dsp.read_wav"]),
        "kernels.autocorr_norm_batch_s": self_s["kernels.autocorr_norm_batch"],
        "kernels.autocorr_norm_batch_calls": calls["kernels.autocorr_norm_batch"],
        "kernels.autocorr_frames": sum(counts["kernels.autocorr_norm_batch"]),
        "kernels.rfft_pow2_batch_s": self_s["kernels.rfft_pow2_batch"],
        "kernels.rfft_pow2_batch_calls": calls["kernels.rfft_pow2_batch"],
        "kernels.rfft_frames": sum(counts["kernels.rfft_pow2_batch"]),
        "kernels.pegasos_s": self_s["kernels.pegasos"],
        "kernels.pegasos_steps": sum(counts["kernels.pegasos"]),
        "acoustic.extract_llds_s": self_s["acoustic.extract_llds"],
        "acoustic.extract_llds_calls": calls["acoustic.extract_llds"],
        "acoustic.llds_per_recording": per_recording(calls["acoustic.extract_llds"]),
        "acoustic.functionals_s": self_s["acoustic.egemaps_like"] + self_s["acoustic.compare_like"],
        "linguistic.fit_vocabulary_s": self_s["linguistic.fit_vocabulary"],
        "linguistic.vectorize_tfidf_s": self_s["linguistic.vectorize_tfidf"],
        "linguistic.vectorize_tfidf_calls": calls["linguistic.vectorize_tfidf"],
        "linguistic.lexical_vector_s": self_s["linguistic.lexical_vector"],
        "classifiers.train_logistic_s": self_s["classifiers.train_logistic"],
        "classifiers.lr_iterations": sum(c[0] for c in lr),
        "classifiers.lr_not_converged": sum(c[1] for c in lr),
        "classifiers.train_linear_svm_s": self_s["classifiers.train_linear_svm"],
        "classifiers.fit_standardizer_s": self_s["classifiers.fit_standardizer"],
        "evaluation.extract_task_features_s": self_s["evaluation.extract_task_features"],
        "evaluation.extract_task_features_calls": calls["evaluation.extract_task_features"],
        "evaluation.run_task_experiment_s": self_s["evaluation.run_task_experiment"],
        "evaluation.build_report_s": self_s["evaluation.build_report"],
        "evaluation.write_report_s": self_s["evaluation.write_report"],
        "evaluation.report_bytes": sum(counts["evaluation.write_report"]),
    }


def load_golden(workload: Workload, corpus_seed: int) -> dict:
    path = HERE / "golden" / f"{workload.name}.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read golden fingerprints {path}: {exc}")
    if (doc.get("synth") != workload.synth or doc.get("flags") != list(workload.flags)
            or str(corpus_seed) not in doc.get("corpora", {})):
        raise BenchError(f"{path} was made for another definition of {workload.name}; "
                         "regenerate it with perfbench/make_golden.py")
    return doc["corpora"][str(corpus_seed)]


def check_checkout() -> None:
    if not (ROOT / "src" / "cognopipe" / "cli.py").is_file():
        raise BenchError(f"no cognopipe source tree under {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        check_checkout()
        results = {}
        for name in names:
            wl = WORKLOADS[name]
            bench = Bench(wl, args.seed, load_golden(wl, args.seed % N_CORPORA))
            results[name] = bench.measure(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
