"""Command-line behavior through cli.main, plus config merging."""

import concurrent.futures
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
    ({"acoustic": {"voicing_threshold": 1.5}}, "acoustic.voicing_threshold"),
    ({"acoustic": {"voicing_threshold": 1.0}}, "acoustic.voicing_threshold"),
    ({"acoustic": {"voicing_threshold": 0.0}}, "acoustic.voicing_threshold"),
    ({"acoustic": {"frame_len_s": 0.005}}, "acoustic.frame_len_s * acoustic.f0_min_hz"),
    ({"acoustic": {"f0_min_hz": 10}}, "acoustic.frame_len_s * acoustic.f0_min_hz"),
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


@pytest.mark.parametrize("bad", ["subjects", "transcript"])
def test_validate_lists_text_that_is_not_utf8(small_manifest, tmp_path, capsys, bad):
    man = shutil.copytree(small_manifest, tmp_path / "m")
    if bad == "subjects":
        path = man / SUBJECTS_FILE
        lines = path.read_bytes().split(b"\n")
        fields = lines[1].split(b",")
        fields[3] = b"Fran\xe7aise"  # the first subject's ethnicity, in Latin-1
        lines[1] = b",".join(fields)
        path.write_bytes(b"\n".join(lines))
        want = f"{SUBJECTS_FILE}:0: file is not UTF-8 text"
    else:
        first = (man / RECORDINGS_FILE).read_text(encoding="utf-8").splitlines()[1]
        path = (man / first.split(",")[3]).resolve()
        path.write_bytes(b"caf\xe9 au lait")
        want = f"{RECORDINGS_FILE}:2: transcript is not UTF-8 text: {path}"
    rc = cli.main(["validate", "--manifest", str(man)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert want in lines and lines[-1] == f"{len(lines) - 1} error(s)"


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


@pytest.mark.parametrize("command", ["summarize", "extract", "train-eval"])
def test_an_out_that_cannot_be_written_fails_first(small_manifest, tmp_path, capsys,
                                                   monkeypatch, command):
    """An --out under a regular file is a one-line error before any work,
    and leaves nothing behind."""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "out"
    loads = []
    monkeypatch.setattr(cli.corpus, "load_manifest", loads.append)
    rc = cli.main([command, "--manifest", str(small_manifest), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and loads == []
    assert err == (f"error: config.out_dir: cannot write {out}: "
                   f"{blocker} is not a writable directory\n")
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "x"


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


@pytest.mark.parametrize("content, detail", [
    (None, "cannot read"),
    (b"{\"schema_version\": ", "is not JSON"),
    (b"{\"per_task\": []}\n", "is not a report of schema"),
], ids=["missing", "not_json", "not_a_report"])
def test_report_on_bad_input_is_one_line_error(tmp_path, capsys, content, detail):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: evaluation.read_report: ")
    assert detail in captured.err
    assert captured.err.count("\n") == 1


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


def test_train_eval_survives_a_singular_newton_system(small_manifest, tmp_path):
    """At l2_lambda = 1e-18 the Lexical fits' n x n Newton system is singular
    in floats; those steps fall back to the gradient and the run completes."""
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"classifier": {"l2_lambda": 1e-18}}))
    rc = cli.main(["train-eval", "--manifest", str(small_manifest), "--out", str(tmp_path),
                   "--config", str(cfg_file), "--tasks", "ShortTerm", "--features", "Lexical",
                   "--classifiers", "LogisticRegression", "--workers", "1"])
    assert rc == 0
    assert len(evaluation.read_report(tmp_path / "report.json")["per_task"]) == 1


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
    ({"acoustic": {"frame_len_s": 0.0182}}, "acoustic.extract_llds:"),  # 291 < 290 + 2 samples
    # floor(16000 / 101) = 158 < ceil(16000 / 101.2) = 159: no lag to search
    pytest.param({"acoustic": {"f0_min_hz": 101.0, "f0_max_hz": 101.2}},
                 "acoustic.extract_llds: the [101.0, 101.2] Hz pitch range holds no "
                 "whole-sample period at 16000 Hz", id="doc5-acoustic.extract_llds:pitch"),
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


@pytest.mark.parametrize("classifier", ["LogisticRegression", "LinearSVM"])
def test_train_eval_rejects_an_empty_fold_vocabulary(small_manifest, tmp_path, capsys,
                                                     classifier):
    """No n-gram reaches min_doc_freq in a fold's training transcripts: a
    0-column model would fit the bias alone, so the run stops instead."""
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"ngram": {"min_doc_freq": 1000}}))
    out = tmp_path / "out"
    rc = cli.main(["train-eval", "--manifest", str(small_manifest), "--out", str(out),
                   "--config", str(cfg_file), "--tasks", "ShortTerm", "--k", "5",
                   "--features", "NgramTfidf", "--classifiers", classifier])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: evaluation.fold_features: ShortTerm/NgramTfidf/fold0-train has no n-gram "
        "in 1000 or more of its 8 transcripts\n")
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
    """The max_workers of every process pool evaluation creates.

    evaluation imports the pool class from concurrent.futures when it
    starts a pool, so the counting class is patched in there."""
    created = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
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
    # 2 tasks x 10 recordings, one EgemapsLike88+CompareLike job each, all in one
    # pool; Lexical is built in-process
    assert pools == [2]
    assert run("1") == pooled
    assert pools == [2]  # one worker extracts in-process


def _check_extract_csvs_alike(small_manifest, tmp_path, pools, features: str,
                              started: list[int]):
    """extract writes the same feature matrices at --workers 2, which starts
    the pools `started`, as at --workers 1."""
    def run(workers: str) -> dict[str, bytes]:
        out = tmp_path / workers
        rc = cli.main(["extract", "--manifest", str(small_manifest), "--out", str(out),
                       "--tasks", "ShortTerm,LongTerm", "--features", features,
                       "--workers", workers])
        assert rc == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    pooled = run("2")
    assert len(pooled) == 2 * len(features.split(",")) and pools == started
    assert run("1") == pooled
    assert pools == started


def test_extract_csvs_independent_of_workers(small_manifest, tmp_path, pools):
    _check_extract_csvs_alike(small_manifest, tmp_path, pools, "EgemapsLike88,Lexical", [2])


def test_extract_lexical_starts_no_pool(small_manifest, tmp_path, pools):
    # Lexical vectors are transcript statistics, built in-process
    _check_extract_csvs_alike(small_manifest, tmp_path, pools, "Lexical", [])


def test_extract_csvs_of_both_acoustic_sets_independent_of_workers(small_manifest, tmp_path,
                                                                  pools):
    # the two sets share one job per recording
    _check_extract_csvs_alike(small_manifest, tmp_path, pools, "EgemapsLike88,CompareLike",
                              [2])


def _check_a_bad_wav_fails_alike(small_manifest, tmp_path, monkeypatch, capsys,
                                 features: str):
    """A train-eval whose fifth LongTerm recording stops decoding after the
    manifest was read fails with the same one-line read_wav error, and no
    report, at 2 workers and at 1."""
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
                       "--tasks", "ShortTerm,LongTerm", "--features", features,
                       "--classifiers", "LogisticRegression", "--k", "3",
                       "--workers", workers])
        assert rc == 1
        assert not (out / "report.json").exists()
        return capsys.readouterr().err  # one line, naming the file

    monkeypatch.setattr(cli.corpus, "load_manifest", load_then_break)
    for workers in ("2", "1"):
        assert run(workers) == f"error: dsp.read_wav: {broken[-1]}: not a RIFF/WAVE file\n"


def test_bad_wav_in_the_last_task_fails_the_pooled_run(small_manifest, tmp_path,
                                                        monkeypatch, capsys):
    _check_a_bad_wav_fails_alike(small_manifest, tmp_path, monkeypatch, capsys,
                                 "EgemapsLike88,Lexical")


def test_bad_wav_fails_a_run_of_both_acoustic_sets_alike(small_manifest, tmp_path,
                                                         monkeypatch, capsys):
    _check_a_bad_wav_fails_alike(small_manifest, tmp_path, monkeypatch, capsys,
                                 "EgemapsLike88,CompareLike")


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


_NO_LIBC = "def CDLL(name):\n    called.append(name)\n    raise OSError('no C library')\n"
_NO_MALLOPT = "def CDLL(name):\n    called.append(name)\n    return object()\n"


@pytest.mark.parametrize("fake_cdll", [None, _NO_LIBC, _NO_MALLOPT],
                         ids=["libc", "no_libc", "no_mallopt"])
def test_cli_import_freezes_its_objects_and_keeps_collecting(fake_cdll):
    """Importing the CLI leaves the collector on with the import-time
    objects frozen, and imports alike where malloc cannot be tuned."""
    code = "import ctypes, gc, numpy\ncalled = []\n"
    if fake_cdll is not None:
        code += fake_cdll + "ctypes.CDLL = CDLL\n"
    code += "import cognopipe.cli\nprint(gc.isenabled(), gc.get_freeze_count() > 0, called)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"True True {[] if fake_cdll is None else [None]}\n"


def test_entry_point_reports_byte_identical_across_workers(small_manifest, tmp_path):
    """`python -m cognopipe.cli train-eval` in fresh processes, at one
    worker and through the pool, writes the same report bytes."""
    out = tmp_path / "out"  # the report echoes it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    reports = []
    for workers in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "cognopipe.cli", "train-eval",
             "--manifest", str(small_manifest), "--out", str(out),
             "--tasks", "ShortTerm,LongTerm", "--features", "EgemapsLike88,NgramTfidf",
             "--k", "3", "--seed", "5", "--workers", workers],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_one_worker_run_never_loads_the_pool(small_manifest):
    """Importing the CLI, or extracting at one worker, leaves the process
    pool's modules and synth unimported: they only add start-up time and
    resident memory to a run that does not use them."""
    code = (
        "import sys\n"
        "from cognopipe import cli, corpus, evaluation\n"
        "from cognopipe.corpus import Task\n"
        "from cognopipe.features import FeatureSetId\n"
        "heavy = ('concurrent.futures.process', 'multiprocessing', 'cognopipe.synth')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        f"c = corpus.load_manifest({str(small_manifest)!r})\n"
        "vectors = evaluation.extract_task_features(\n"
        "    c, (Task.SHORT_TERM,), (FeatureSetId.EGEMAPS_LIKE_88, FeatureSetId.LEXICAL),\n"
        "    workers=1)\n"
        "assert all(len(cell) == 10 for cell in vectors.values())\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


@pytest.mark.parametrize("features", ["NgramTfidf,Lexical", "EgemapsLike88,CompareLike"],
                         ids=["text", "acoustic"])
def test_train_eval_never_loads_numpy_ma(small_manifest, tmp_path, features):
    """Neither a text-only nor an acoustic run reaches anything in
    numpy.ma, whose import alone costs several milliseconds of start-up."""
    code = (
        "import sys\n"
        "from cognopipe import cli\n"
        f"rc = cli.main(['train-eval', '--manifest', {str(small_manifest)!r},\n"
        f"    '--out', {str(tmp_path / 'out')!r}, '--features', {features!r},\n"
        "    '--classifiers', 'LogisticRegression,LinearSVM', '--workers', '1'])\n"
        "assert rc == 0, rc\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "report.json").is_file()


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
