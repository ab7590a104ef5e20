"""Command-line behavior through cli.main, plus config merging."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cognopipe import cli, config as cfgmod, evaluation, synth
from cognopipe.corpus import (
    RECORDING_COLUMNS,
    RECORDINGS_FILE,
    SUBJECT_COLUMNS,
    SUBJECTS_FILE,
    Task,
)
from cognopipe.errors import ConfigError
from cognopipe.features import FeatureSetId


# ---------------------------------------------------------------------------
# config merging

def test_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"seed": 3, "k": 4, "feature_sets": ["Lexical"]}))
    cfg = cfgmod.merge_config(cfg_file, seed=9, manifest="m")
    assert cfg.seed == 9  # flag beats file
    assert cfg.k == 4  # file beats default
    assert cfg.feature_sets == (FeatureSetId.LEXICAL,)
    assert cfg.manifest == "m"
    assert cfg.tie_break is evaluation.TieBreak.SCORE_SUM  # untouched default


def test_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"sede": 3}))
    with pytest.raises(ConfigError):
        cfgmod.merge_config(cfg_file)
    cfg_file.write_text(json.dumps({"vad": {"nope": 1}}))
    with pytest.raises(ConfigError):
        cfgmod.merge_config(cfg_file)
    cfg_file.write_text(json.dumps({"averaging": "Macro"}))  # every report has all modes
    with pytest.raises(ConfigError) as exc:
        cfgmod.merge_config(cfg_file)
    assert "unknown config keys: ['averaging']" in str(exc.value)
    cfg_file.write_text(json.dumps({"acoustic": {"n_mfcc": 13}}))  # fixed at 13
    with pytest.raises(ConfigError) as exc:
        cfgmod.merge_config(cfg_file)
    assert "unknown acoustic keys: ['n_mfcc']" in str(exc.value)


def test_config_rejects_bad_enum_values(tmp_path):
    with pytest.raises(ConfigError) as exc:
        cfgmod.merge_config(None, classifiers="bogus")
    assert "unknown classifier" in str(exc.value)
    with pytest.raises(ConfigError):
        cfgmod.merge_config(None, tasks="ShortTerm,ShortTerm")  # duplicate
    with pytest.raises(ConfigError):
        cfgmod.merge_config(None, tie_break="always_case,always_control")
    cfg_file = tmp_path / "run.json"
    for doc in ({"tasks": 5}, {"tie_break": 3}, {"vad": 5},
                {"tie_break": ["always_case", "always_control"]}, {"seed": "x"},
                {"ngram": {"n_lo": "a"}}, {"acoustic": {"n_mel_filters": 2.5}}):
        cfg_file.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            cfgmod.merge_config(cfg_file)
        assert "\n" not in str(exc.value), doc


@pytest.mark.parametrize("doc, field", [
    ({"classifier": {"l2_lambda": -1}}, "classifier.l2_lambda"),
    ({"classifier": {"l2_lambda": 0.0}}, "classifier.l2_lambda"),
    ({"classifier": {"lr_max_iters": 0}}, "classifier.lr_max_iters"),
    ({"classifier": {"lr_tol": 0.0}}, "classifier.lr_tol"),
    ({"classifier": {"svm_epochs": 0}}, "classifier.svm_epochs"),
    ({"ngram": {"n_lo": 0, "n_hi": 1}}, "ngram.n_lo"),
    ({"ngram": {"n_lo": 2, "n_hi": 1}}, "ngram.n_hi"),
    ({"ngram": {"min_doc_freq": 0}}, "ngram.min_doc_freq"),
    ({"seed": -1}, "seed"),
    ({"acoustic": {"f0_min_hz": 0}}, "acoustic.f0_min_hz"),
    ({"acoustic": {"f0_max_hz": 0}}, "acoustic.f0_max_hz"),
    ({"acoustic": {"f0_min_hz": 700}}, "acoustic.f0_max_hz"),  # above the 600 Hz default
    ({"acoustic": {"n_mel_filters": 0}}, "acoustic.n_mel_filters"),
    ({"acoustic": {"n_mel_filters": -3}}, "acoustic.n_mel_filters"),
    ({"vad": {"noise_floor_percentile": 150}}, "vad.noise_floor_percentile"),
    ({"vad": {"noise_floor_percentile": -1}}, "vad.noise_floor_percentile"),
])
def test_config_rejects_out_of_range_sections(tmp_path, doc, field):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        cfgmod.merge_config(cfg_file)
    assert str(exc.value).startswith(f"config.run_config: {field} must be ")
    assert "\n" not in str(exc.value)


def test_config_echo_excludes_workers():
    cfg = cfgmod.merge_config(None, manifest="m", workers=8)
    echo = cfgmod.config_echo(cfg)
    assert "workers" not in echo
    assert echo["manifest"] == "m"
    assert echo["tasks"] == [t.value for t in Task]
    assert echo["tie_break"] == "score_sum"
    assert echo["classifier"] == {"l2_lambda": 1.0, "lr_max_iters": 500, "lr_tol": 1e-6,
                                  "svm_epochs": 50}
    assert "n_mfcc" not in echo["acoustic"]
    json.dumps(echo)  # must be serializable as-is


# ---------------------------------------------------------------------------
# flags per subcommand

_CONFIG_FLAGS = {"--manifest", "--config", "--out"}


@pytest.mark.parametrize("command, flags, foreign", [
    ("summarize", _CONFIG_FLAGS, ["--seed", "3"]),
    ("extract", _CONFIG_FLAGS | {"--tasks", "--features", "--workers"},
     ["--classifiers", "LinearSVM"]),
    ("train-eval", _CONFIG_FLAGS | {"--seed", "--k", "--tasks", "--features",
                                    "--classifiers", "--workers"}, None),
])
def test_subcommand_takes_only_the_flags_it_reads(command, flags, foreign, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"} == flags
    if foreign is not None:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--manifest", "m", *foreign])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate

def test_validate_ok(small_manifest, capsys):
    assert cli.main(["validate", "--manifest", str(small_manifest)]) == 0
    out = capsys.readouterr().out
    assert "10 subjects, 40 recordings" in out
    assert "0 errors" in out


def test_validate_lists_problems(tmp_path, capsys):
    man = tmp_path / "broken"
    man.mkdir()
    (man / SUBJECTS_FILE).write_text(
        ",".join(SUBJECT_COLUMNS)
        + "\nA1,74,F,,MCI\nA1,70,M,,Dunno\nB2,66,M,,HC\n"
    )
    (man / RECORDINGS_FILE).write_text(
        ",".join(RECORDING_COLUMNS) + "\nA1,ShortTerm,missing.wav,\n"
    )
    rc = cli.main(["validate", "--manifest", str(man)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "duplicate" in out and "Dunno" in out
    assert out.strip().splitlines()[-1].endswith("error(s)")


def test_validate_missing_directory(tmp_path, capsys):
    rc = cli.main(["validate", "--manifest", str(tmp_path / "nope")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "1 error(s)" in out


# ---------------------------------------------------------------------------
# summarize / extract

def test_summarize_prints_and_writes(small_manifest, tmp_path, capsys):
    rc = cli.main(
        ["summarize", "--manifest", str(small_manifest), "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "subjects,10" in out
    written = (tmp_path / "summary.csv").read_text(encoding="utf-8")
    assert written == out


def test_summarize_writes_into_the_config_out_dir(small_manifest, tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"out_dir": str(tmp_path / "from_config")}))
    rc = cli.main(["summarize", "--manifest", str(small_manifest), "--config", str(cfg_file)])
    assert rc == 0
    written = (tmp_path / "from_config" / "summary.csv").read_text(encoding="utf-8")
    assert written == capsys.readouterr().out


def test_extract_writes_feature_matrices(small_manifest, tmp_path, capsys):
    rc = cli.main(
        [
            "extract",
            "--manifest", str(small_manifest),
            "--out", str(tmp_path),
            "--tasks", "ShortTerm",
            "--features", "Lexical",
            "--workers", "1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    path = tmp_path / "features_ShortTerm_Lexical.csv"
    assert path.exists()
    assert f"wrote {path}" in out
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4 + 10  # header block + one row per subject
    assert lines[0] == "feature_set_id,Lexical"


def test_extract_refuses_fold_fitted_features(small_manifest, tmp_path, capsys):
    rc = cli.main(
        [
            "extract",
            "--manifest", str(small_manifest),
            "--out", str(tmp_path),
            "--features", "NgramTfidf",
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "fitted per cross-validation fold" in err
    assert not list(tmp_path.iterdir())  # nothing left behind


# ---------------------------------------------------------------------------
# train-eval / report

def test_train_eval_then_report(small_manifest, tmp_path, capsys):
    rc = cli.main(
        [
            "train-eval",
            "--manifest", str(small_manifest),
            "--out", str(tmp_path),
            "--tasks", "ShortTerm,LongTerm",
            "--features", "Lexical",
            "--classifiers", "LogisticRegression",
            "--k", "3",
            "--seed", "2",
            "--workers", "1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "per-task (Binary averaging):" in out
    report_path = tmp_path / "report.json"
    assert report_path.exists()
    report = evaluation.read_report(report_path)
    assert len(report["per_task"]) == 2
    assert len(report["fused"]) == 1
    assert report["config"]["seed"] == 2
    assert report["config"]["tasks"] == ["ShortTerm", "LongTerm"]

    rc2 = cli.main(["report", str(report_path)])
    out2 = capsys.readouterr().out
    assert rc2 == 0
    assert f"schema {report['schema_version']}" in out2
    assert "note:" in out2
    assert "confusion 3x2" in out2


def test_train_eval_blocks_do_not_depend_on_the_other_classifiers(small_manifest, tmp_path):
    """A classifier's per-task and fused blocks are the same whether or not
    another classifier shares its folds."""
    def lr_blocks(classifiers: str) -> list:
        out = tmp_path / classifiers.replace(",", "_")
        rc = cli.main(["train-eval", "--manifest", str(small_manifest), "--out", str(out),
                       "--tasks", "ShortTerm,LongTerm", "--features", "Lexical,NgramTfidf",
                       "--classifiers", classifiers, "--k", "3", "--workers", "1"])
        assert rc == 0
        report = evaluation.read_report(out / "report.json")
        return [b for section in ("per_task", "fused") for b in report[section]
                if b["classifier"] == "LogisticRegression"]

    alone = lr_blocks("LogisticRegression")
    assert len(alone) == 6  # 2 tasks x 2 sets, then 2 fused cells
    assert alone == lr_blocks("LogisticRegression,LinearSVM")


def test_train_eval_logistic_fits_all_converge(small_manifest, tmp_path):
    """Every fold's logistic fit reaches lr_tol within lr_max_iters, on
    feature sets from d = 5 (Lexical) to d = 450 (CompareLike) > n."""
    rc = cli.main(["train-eval", "--manifest", str(small_manifest), "--out", str(tmp_path),
                   "--tasks", "ShortTerm", "--features", "EgemapsLike88,CompareLike,Lexical",
                   "--classifiers", "LogisticRegression", "--k", "5", "--seed", "7",
                   "--workers", "1"])
    assert rc == 0
    report = evaluation.read_report(tmp_path / "report.json")
    assert len(report["per_task"]) == 3
    for block in report["per_task"]:
        assert block["not_converged_folds"] == [], block["feature_set"]


def test_train_eval_without_manifest_errors(capsys):
    rc = cli.main(["train-eval", "--out", "x"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no manifest given" in err


def test_unknown_enum_flag_errors(small_manifest, capsys):
    rc = cli.main(
        ["train-eval", "--manifest", str(small_manifest), "--classifiers", "logistic"]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown classifier" in err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("doc, error", [
    ({"acoustic": {"hop_s": 0}}, "dsp.frame_signal:"),
    ({"acoustic": {"hop_s": 1e-5}}, "dsp.frame_signal:"),  # rounds to 0 samples
    ({"vad": {"frame_len_s": 0}}, "dsp.frame_signal:"),
    ({"acoustic": {"n_mfcc": 13}}, "config.parse:"),
])
def test_train_eval_rejects_degenerate_frames(small_manifest, tmp_path, capsys,
                                              doc, error, workers):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = cli.main(["train-eval", "--manifest", str(small_manifest), "--out", str(out),
                   "--config", str(cfg_file), "--tasks", "ShortTerm", "--workers", workers])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith(f"error: {error}"), err
    assert not (out / "report.json").exists()


@pytest.fixture(scope="module")
def shuffled_run(tmp_path_factory):
    """(manifest, train-eval runner, report bytes for the generated row order)."""
    root = tmp_path_factory.mktemp("roworder")
    spec = synth.SynthSpec(n_case=6, n_control=6, seed=4, acoustic_separation=40.0,
                           linguistic_separation=2.0, duration_s=1.0)
    manifest = synth.generate(spec, root / "m")
    out = root / "out"

    def run() -> bytes:
        rc = cli.main(["train-eval", "--manifest", str(manifest), "--out", str(out),
                       "--features", "EgemapsLike88,NgramTfidf,Lexical",
                       "--classifiers", "LogisticRegression", "--k", "3", "--workers", "1"])
        assert rc == 0
        return (out / "report.json").read_bytes()

    return manifest, run, run()


# Each example is a full train-eval run, so a failure is reported unshrunk.
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_report_bytes_independent_of_manifest_row_order(shuffled_run, data):
    manifest, run, want = shuffled_run
    for name in (SUBJECTS_FILE, RECORDINGS_FILE):
        header, *rows = (manifest / name).read_text(encoding="utf-8").splitlines()
        rows = data.draw(st.permutations(rows), label=name)
        (manifest / name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert run() == want


# ---------------------------------------------------------------------------
# worker count, extraction pool, BLAS threads

def test_default_workers_are_the_usable_cpus(monkeypatch):
    cfg = cfgmod.merge_config(None)
    assert cfg.workers is None
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._effective_workers(cfg) == 3  # the affinity mask, not the machine
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._effective_workers(cfg) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._effective_workers(cfg) == 1
    assert cli._effective_workers(cfgmod.merge_config(None, workers=5)) == 5


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool evaluation creates."""
    created = []

    class CountingPool(evaluation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", CountingPool)
    return created


def test_train_eval_extracts_through_one_pool(small_manifest, tmp_path, pools):
    def run(workers: str) -> bytes:
        out = tmp_path / "out"  # the report echoes it
        rc = cli.main(["train-eval", "--manifest", str(small_manifest), "--out", str(out),
                       "--tasks", "ShortTerm,LongTerm",
                       "--features", "EgemapsLike88,CompareLike,Lexical",
                       "--classifiers", "LogisticRegression", "--k", "3",
                       "--workers", workers])
        assert rc == 0
        return (out / "report.json").read_bytes()

    pooled = run("2")
    assert pools == [2]  # 2 tasks x 3 sets x 10 recordings, all in one pool
    assert run("1") == pooled
    assert pools == [2]  # one worker extracts in-process


def test_extract_csvs_independent_of_workers(small_manifest, tmp_path, pools):
    def run(workers: str) -> dict[str, bytes]:
        out = tmp_path / workers
        rc = cli.main(["extract", "--manifest", str(small_manifest), "--out", str(out),
                       "--tasks", "ShortTerm,LongTerm", "--features", "EgemapsLike88,Lexical",
                       "--workers", workers])
        assert rc == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    pooled = run("2")
    assert len(pooled) == 4 and pools == [2]
    assert run("1") == pooled


def test_bad_wav_in_the_last_task_fails_the_pooled_run(small_manifest, tmp_path,
                                                        monkeypatch, capsys):
    """A recording that stops decoding after the manifest was read ends the
    run with the same one-line error at any worker count, and no report."""
    load_manifest = cli.corpus.load_manifest
    broken = []

    def load_then_break(path):
        c = load_manifest(path)
        rec = sorted((r for r in c.recordings if r.task is Task.LONG_TERM),
                     key=lambda r: r.subject_id)[4]
        Path(rec.audio_path).write_bytes(b"not a wav at all")
        broken.append(rec.audio_path)
        return c

    def run(workers: str) -> str:
        manifest = tmp_path / f"m{workers}"
        shutil.copytree(small_manifest, manifest)
        out = tmp_path / f"out{workers}"
        rc = cli.main(["train-eval", "--manifest", str(manifest), "--out", str(out),
                       "--tasks", "ShortTerm,LongTerm", "--features", "EgemapsLike88,Lexical",
                       "--classifiers", "LogisticRegression", "--k", "3",
                       "--workers", workers])
        assert rc == 1
        assert not (out / "report.json").exists()
        return capsys.readouterr().err  # one line, naming the file

    monkeypatch.setattr(cli.corpus, "load_manifest", load_then_break)
    for workers in ("2", "1"):
        assert run(workers) == f"error: dsp.read_wav: {broken[-1]}: not a RIFF/WAVE file\n"


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_cli_import_pins_blas_threads_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, cognopipe.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{want}\n"


# ---------------------------------------------------------------------------
# synth

def test_synth_command(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"n_case": 1, "n_control": 1, "duration_s": 2.0}))
    rc = cli.main(
        [
            "synth",
            "--config", str(spec_file),
            "--seed", "21",
            "--out", str(tmp_path / "corpus"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote manifest" in out
    assert (tmp_path / "corpus" / SUBJECTS_FILE).exists()
    # the generated corpus passes validation
    assert cli.main(["validate", "--manifest", str(tmp_path / "corpus")]) == 0
    capsys.readouterr()


def test_synth_rejects_bad_spec(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    for doc, seed, line in [
        ({"n_case": 0}, None, "synth.spec: "),
        ({}, "-1", "synth.spec: seed must be >= 0, got -1"),
        ({"n_case": "5"}, None, "synth.load_spec: n_case must be an integer, got '5'"),
        ({"duration_s": None}, None, "synth.load_spec: duration_s must be a number, got None"),
        ({"snr_db_target": "x"}, None, "synth.load_spec: snr_db_target must be a number, got 'x'"),
        ({"n_case": 1e9}, None, "synth.load_spec: n_case must be an integer, got 1000000000.0"),
        ({"sample_rate_hz": 16000.5}, None, "synth.load_spec: sample_rate_hz must be an integer"),
        ({"n_case": True}, None, "synth.load_spec: n_case must be an integer, got True"),
        ([1, 2], None, "synth.load_spec: spec root must be an object, got list"),
    ]:
        spec_file.write_text(json.dumps(doc))
        argv = ["synth", "--config", str(spec_file), "--out", str(tmp_path / "c")]
        rc = cli.main(argv + (["--seed", seed] if seed else []))
        assert rc == 1, doc
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line}"), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "c" / RECORDINGS_FILE).exists()


# ---------------------------------------------------------------------------
# module invocation

def test_module_entry_point(small_manifest):
    proc = subprocess.run(
        [sys.executable, "-m", "cognopipe.cli", "validate", "--manifest",
         str(small_manifest)],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert b"0 errors" in proc.stdout
