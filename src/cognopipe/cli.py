"""Command-line entry point.

Subcommands: validate, summarize, extract, train-eval, report, synth.
Every hard error surfaces as one "module.operation: detail" line and a
nonzero exit code.  Every command writes its files after its last
check, so a command that fails a check writes none.  A file that cannot
be written is one "module.operation: cannot write <path>: <reason>"
line.  summarize, extract and train-eval write through one path
(_write_all): each file goes under a temporary name and all are renamed
once all are written, so a failed command keeps none of its files.
COGNOPIPE_LOG=INFO (or DEBUG, or NOTSET) prints progress lines on stderr.
"""

from __future__ import annotations

import gc
import os

# Process-wide settings, made once at import.  None of them changes a
# result; the README's "Workers" paragraph says why each is there.
#
# One BLAS thread per process, pool workers included, set before numpy
# loads: parallelism comes only from --workers, and idle BLAS threads of
# several processes would spin on the same CPUs.  A value already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The imports build tens of thousands of long-lived objects.  Collecting
# while they are built finds no garbage, and once frozen they are skipped
# by every later collection and by the one at exit, and a forked pool
# worker does not touch their pages (CPython documents gc.freeze for
# fork without exec).  Objects the run creates are collected as usual.
gc.disable()
try:
    import argparse
    import ctypes
    import errno
    import functools
    import sys
    from pathlib import Path

    from . import acoustic, config as cfgmod, corpus, evaluation
    from .errors import (ConfigError, EvaluationError, FeatureError, ManifestError,
                         PipelineError, writing)
finally:
    gc.freeze()
    gc.enable()

# glibc returns a freed block above 128 KiB (at first) to the kernel, and
# trims the heap top above 128 KiB, so each block's multi-MB numpy
# temporaries are page-faulted in again by the next block.  Fixed
# thresholds keep those pages resident for reuse.  Skipped where the C
# library cannot be loaded or has no mallopt.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (OSError, AttributeError, TypeError):
    pass
else:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB
    _mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: 256 MiB


def _info(message: str) -> None:
    """One "INFO cognopipe: <message>" line on stderr when COGNOPIPE_LOG
    names a level that shows INFO: DEBUG, INFO or NOTSET, in any case."""
    if os.environ.get("COGNOPIPE_LOG", "").upper() in ("DEBUG", "INFO", "NOTSET"):
        print(f"INFO cognopipe: {message}", file=sys.stderr)


def _effective_workers(cfg: cfgmod.RunConfig) -> int:
    """--workers, else the CPUs this process may run on."""
    if cfg.workers is not None:
        return cfg.workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_validate(args) -> int:
    try:
        c = corpus.load_manifest(args.manifest)
    except ManifestError as exc:
        for d in exc.diagnostics:
            print(str(d))
        n = len(exc.diagnostics) or 1
        if not exc.diagnostics:
            print(str(exc))
        print(f"{n} error(s)")
        return 1
    print(f"{len(c.subjects)} subjects, {len(c.recordings)} recordings")
    print("0 errors")
    return 0


def _write_all(files, error: type[PipelineError], op: str) -> None:
    """Write every (path, write) file, or none of them.

    write(tmp) writes a file's content at tmp, its path with ".tmp"
    appended, in a directory made here if it is missing.  The files are
    renamed onto their paths only once all are written.  A directory, a
    write or a rename that fails is error(op, "cannot write <path>:
    <reason>").  A directory found at one of the paths fails before
    anything is written, so no file of the run before is replaced.  On
    any other failure the temporary files and those already renamed are
    removed; a directory found at one of these paths is left as it was.
    """
    for path, _write in files:
        with writing(error, op, path):
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    staged, renamed = [], []
    try:
        for path, write in files:
            staged.append(path.with_name(path.name + ".tmp"))
            with writing(error, op, staged[-1]):
                path.parent.mkdir(parents=True, exist_ok=True)
                write(staged[-1])
        for tmp, (path, _write) in zip(staged, files):
            with writing(error, op, path):
                os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for written in staged + renamed:
            if written.is_file():
                written.unlink()
        raise


def cmd_summarize(args) -> int:
    cfg = _run_config(args)
    c = corpus.load_manifest(cfg.manifest)
    text = "\n".join(corpus.summarize(c, cfg.vad)) + "\n"
    print(text, end="")
    path = Path(cfg.out_dir) / "summary.csv"
    _write_all([(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))],
               ConfigError, "out_dir")
    _info(f"wrote {path}")
    return 0


def cmd_extract(args) -> int:
    cfg = _run_config(args)
    c = corpus.load_manifest(cfg.manifest)
    out_dir = Path(cfg.out_dir)
    vectors = evaluation.extract_task_features(
        c, cfg.tasks, cfg.feature_sets, cfg.vad, cfg.acoustic, _effective_workers(cfg)
    )
    files, lines, skips = [], [], []
    for (task, fsid), cell in vectors.items():
        if not cell:
            skips.append(f"no recordings for {task.value}/{fsid.value}; no file written")
            continue
        dim = next(iter(cell.values())).dim
        path = out_dir / f"features_{task.value}_{fsid.value}.csv"
        rows = [(sid, task.value, vec) for sid, vec in sorted(cell.items())]
        files.append((path, functools.partial(acoustic.write_feature_matrix, rows=rows,
                                              feature_set_id=fsid, dim=dim)))
        lines.append(f"wrote {path} ({len(rows)} rows, dim {dim})")
    _write_all(files, FeatureError, "write_feature_matrix")
    for line in lines + skips:
        print(line)
    return 0


def _run_config(args) -> cfgmod.RunConfig:
    """The config file merged with the subcommand's own flags, its output
    directory checked before any work."""
    flags = {dest: value for dest, value in vars(args).items()
             if dest not in ("command", "run", "config")}
    cfg = cfgmod.merge_config(args.config, **flags)
    if not cfg.manifest:
        raise ConfigError("cli", "no manifest given (use --manifest or the config file)")
    out = Path(cfg.out_dir)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        raise ConfigError("out_dir", f"cannot write {out}: {nearest} is not a writable directory")
    return cfg


def cmd_train_eval(args) -> int:
    cfg = _run_config(args)
    c = corpus.load_manifest(cfg.manifest)
    folds = corpus.stratified_folds(c, cfg.k, cfg.seed)
    exp_cfg = evaluation.ExperimentConfig(cfg.classifier, cfg.seed)
    providers = evaluation.build_providers(c, cfg.tasks, cfg.feature_sets, cfg.vad,
                                           cfg.acoustic, cfg.ngram, _effective_workers(cfg))
    experiments = []
    for (task, fsid), provider in providers:
        _info(f"experiment {task.value} / {fsid.value}")
        experiments.extend(
            evaluation.run_task_experiments(c, task, provider, cfg.classifiers, folds, exp_cfg)
        )
    report = evaluation.build_report(
        c, folds, experiments, cfgmod.config_echo(cfg), cfg.tie_break
    )
    del experiments  # the report holds every prediction now
    report_path = Path(cfg.out_dir) / "report.json"
    _write_all([(report_path, functools.partial(evaluation.write_report, report))],
               EvaluationError, "write_report")
    print(f"wrote {report_path}")
    _print_report_summary(report)
    return 0


def _print_report_summary(report: dict) -> None:
    print("per-task (Binary averaging):")
    print(report["per_task_csv"], end="")
    print("fused (Binary averaging):")
    print(report["fused_csv"], end="")


def cmd_report(args) -> int:
    report = evaluation.read_report(args.report_file)
    print(f"schema {report['schema_version']}")
    for line in report["disclaimers"]:
        print(f"note: {line}")
    _print_report_summary(report)
    for block in report["fused"]:
        print(
            f"fused {block['feature_set']}/{block['classifier']} "
            f"confusion 3x2 (rows Dementia,MCI,HC; cols Case,Control): "
            f"{block['confusion_3x2']} 2x2: {block['confusion_2x2']}"
        )
    return 0


def cmd_synth(args) -> int:
    from . import synth  # only this subcommand needs it

    spec = synth.load_spec(args.config) if args.config else synth.SynthSpec()
    if args.seed is not None:
        spec = synth.SynthSpec(**{**spec._asdict(), "seed": args.seed})
    manifest = synth.generate(spec, args.out)
    print(f"wrote manifest {manifest}")
    return 0


# Run flags beyond --manifest/--config/--out, in help order; each dest
# names the RunConfig field the flag sets.
_RUN_FLAGS = {
    "--seed": {"type": int},
    "--k": {"type": int},
    "--tasks": {"help": "comma-separated task names"},
    "--features": {"dest": "feature_sets", "metavar": "FEATURES",
                   "help": "comma-separated feature set names"},
    "--classifiers": {"help": "comma-separated classifier names"},
    "--workers": {"type": int},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cognopipe",
        description="Speech-based cognitive screening pipeline: corpus "
        "statistics, acoustic/linguistic features, cross-validated "
        "classification, majority-vote fusion, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_flags(p, *flags, manifest_required=False):
        p.add_argument("--manifest", required=manifest_required,
                       help="manifest directory (subjects.csv + recordings.csv)")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_RUN_FLAGS[flag])

    p = sub.add_parser("validate", help="check a manifest, listing every problem")
    p.set_defaults(run=cmd_validate)
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("summarize", help="corpus statistics table")
    p.set_defaults(run=cmd_summarize)
    run_flags(p, manifest_required=True)

    p = sub.add_parser("extract", help="persist per-task feature matrices")
    p.set_defaults(run=cmd_extract)
    run_flags(p, "--tasks", "--features", "--workers")

    p = sub.add_parser("train-eval", help="cross-validated experiments + report")
    p.set_defaults(run=cmd_train_eval)
    run_flags(p, *_RUN_FLAGS)

    p = sub.add_parser("report", help="pretty-print an existing report")
    p.set_defaults(run=cmd_report)
    p.add_argument("report_file", help="path to report.json")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.set_defaults(run=cmd_synth)
    p.add_argument("--config", help="JSON SynthSpec file (defaults if omitted)")
    p.add_argument("--out", required=True, help="output manifest directory")
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
