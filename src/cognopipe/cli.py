"""Command-line entry point.

Subcommands: validate, summarize, extract, train-eval, report, synth.
Every hard error surfaces as one "module.operation: detail" line and a
nonzero exit code, and a failed command removes the output files it
wrote.  COGNOPIPE_LOG sets verbosity (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import os

# One BLAS thread per process, pool workers included, set before numpy
# loads: parallelism comes only from --workers, and idle BLAS threads of
# several processes would spin on the same CPUs.  A value already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import acoustic, config as cfgmod, corpus, evaluation, synth
from .errors import ConfigError, ManifestError, PipelineError
from .features import FeatureSetId

log = logging.getLogger("cognopipe")


def _setup_logging() -> None:
    level_name = os.environ.get("COGNOPIPE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _effective_workers(cfg: cfgmod.RunConfig) -> int:
    """--workers, else the CPUs this process may run on."""
    if cfg.workers is not None:
        return cfg.workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _OutputTracker:
    """Records files written by a command so failures leave no partials."""

    def __init__(self):
        self.paths: list[Path] = []

    def atomic_write(self, path: Path, text: str) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
        self.paths.append(path)

    def track(self, path: Path) -> Path:
        self.paths.append(Path(path))
        return path

    def cleanup(self) -> None:
        for p in self.paths:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


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


def _stats_lines(stats: corpus.CorpusStats) -> list[str]:
    lines = [f"subjects,{stats.n_subjects}", f"recordings,{stats.n_recordings}"]
    counts = ",".join(
        f"{d.value}={stats.diagnosis_counts[d]}" for d in corpus.Diagnosis
    )
    lines.append(f"diagnosis_counts,{counts}")
    lines.append(
        "group,diagnosis,task,count,duration_mean_s,duration_std_s,"
        "snr_mean_db,snr_std_db"
    )
    for (d, t), g in stats.per_group.items():
        lines.append(
            f"group,{d.value},{t.value},{g.count},{g.duration_mean_s:.2f},"
            f"{g.duration_std_s:.2f},{g.snr_mean_db:.2f},{g.snr_std_db:.2f}"
        )
    lines.append("demographics,diagnosis,count,age_mean,age_std,M,F,Undisclosed")
    for d, demo in stats.demographics.items():
        age_mean = "absent" if demo.age_mean is None else f"{demo.age_mean:.1f}"
        age_std = "absent" if demo.age_std is None else f"{demo.age_std:.1f}"
        lines.append(
            f"demographics,{d.value},{demo.count},{age_mean},{age_std},"
            f"{demo.gender_counts[corpus.Gender.M]},"
            f"{demo.gender_counts[corpus.Gender.F]},"
            f"{demo.gender_counts[corpus.Gender.UNDISCLOSED]}"
        )
    return lines


def cmd_summarize(args, out: _OutputTracker) -> int:
    cfg = _run_config(args)
    c = corpus.load_manifest(cfg.manifest)
    stats = corpus.summarize(c, cfg.vad)
    text = "\n".join(_stats_lines(stats)) + "\n"
    print(text, end="")
    out.atomic_write(Path(cfg.out_dir) / "summary.csv", text)
    log.info("wrote %s", Path(cfg.out_dir) / "summary.csv")
    return 0


def cmd_extract(args, out: _OutputTracker) -> int:
    cfg = _run_config(args)
    if FeatureSetId.NGRAM_TFIDF in cfg.feature_sets:
        raise ConfigError(
            "extract",
            "NgramTfidf vectors are fitted per cross-validation fold and "
            "cannot be extracted standalone; select acoustic or Lexical sets",
        )
    c = corpus.load_manifest(cfg.manifest)
    out_dir = Path(cfg.out_dir)
    vectors = evaluation.extract_task_features(
        c, cfg.tasks, cfg.feature_sets, cfg.vad, cfg.acoustic, _effective_workers(cfg)
    )
    for (task, fsid), cell in vectors.items():
        if not cell:
            log.info("no recordings for %s/%s", task.value, fsid.value)
            continue
        dim = next(iter(cell.values())).dim
        path = out_dir / f"features_{task.value}_{fsid.value}.csv"
        rows = [(sid, task.value, vec) for sid, vec in sorted(cell.items())]
        acoustic.write_feature_matrix(out.track(path), rows, fsid, dim)
        print(f"wrote {path} ({len(rows)} rows, dim {dim})")
    return 0


def _run_config(args) -> cfgmod.RunConfig:
    """The config file merged with the subcommand's own flags."""
    flags = {
        _FIELD_OF_DEST.get(dest, dest): value
        for dest, value in vars(args).items()
        if dest not in ("command", "config")
    }
    cfg = cfgmod.merge_config(args.config, **flags)
    if not cfg.manifest:
        raise ConfigError("cli", "no manifest given (use --manifest or the config file)")
    return cfg


def cmd_train_eval(args, out: _OutputTracker) -> int:
    cfg = _run_config(args)
    c = corpus.load_manifest(cfg.manifest)
    folds = corpus.stratified_folds(c, cfg.k, cfg.seed)
    exp_cfg = evaluation.ExperimentConfig(seed=cfg.seed, **dataclasses.asdict(cfg.classifier))
    providers = evaluation.build_providers(
        c,
        cfg.tasks,
        cfg.feature_sets,
        cfg.vad,
        cfg.acoustic,
        (cfg.ngram.n_lo, cfg.ngram.n_hi),
        cfg.ngram.min_doc_freq,
        _effective_workers(cfg),
    )
    experiments = []
    for (task, fsid), provider in providers:
        log.info("experiment %s / %s", task.value, fsid.value)
        experiments.extend(
            evaluation.run_task_experiments(c, task, provider, cfg.classifiers, folds, exp_cfg)
        )
    report = evaluation.build_report(
        c, folds, experiments, cfgmod.config_echo(cfg), cfg.tie_break
    )
    report_path = Path(cfg.out_dir) / "report.json"
    evaluation.write_report(report, out.track(report_path))
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


def cmd_synth(args, out: _OutputTracker) -> int:
    spec = synth.load_spec(args.config) if args.config else synth.SynthSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    manifest = synth.generate(spec, args.out)
    print(f"wrote manifest {manifest}")
    return 0


# Run flags beyond --manifest/--config/--out, in help order; each sets the
# RunConfig field of its name, except where _FIELD_OF_DEST says otherwise.
_RUN_FLAGS = {
    "--seed": {"type": int},
    "--k": {"type": int},
    "--tasks": {"help": "comma-separated task names"},
    "--features": {"help": "comma-separated feature set names"},
    "--classifiers": {"help": "comma-separated classifier names"},
    "--workers": {"type": int},
}
_FIELD_OF_DEST = {"out": "out_dir", "features": "feature_sets"}


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
        p.add_argument("--out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_RUN_FLAGS[flag])

    p = sub.add_parser("validate", help="check a manifest, listing every problem")
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("summarize", help="corpus statistics table")
    run_flags(p, manifest_required=True)

    p = sub.add_parser("extract", help="persist per-task feature matrices")
    run_flags(p, "--tasks", "--features", "--workers")

    p = sub.add_parser("train-eval", help="cross-validated experiments + report")
    run_flags(p, *_RUN_FLAGS)

    p = sub.add_parser("report", help="pretty-print an existing report")
    p.add_argument("report_file", help="path to report.json")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="JSON SynthSpec file (defaults if omitted)")
    p.add_argument("--out", required=True, help="output manifest directory")
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    tracker = _OutputTracker()
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "summarize":
            return cmd_summarize(args, tracker)
        if args.command == "extract":
            return cmd_extract(args, tracker)
        if args.command == "train-eval":
            return cmd_train_eval(args, tracker)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "synth":
            return cmd_synth(args, tracker)
        raise ConfigError("cli", f"unknown command {args.command}")
    except PipelineError as exc:
        tracker.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
