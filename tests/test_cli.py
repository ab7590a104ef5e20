"""Command-line behavior through cli.main, plus config merging."""

import concurrent.futures
import errno
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cognopipe import acoustic, cli, config as cfgmod, corpus, dsp, evaluation, synth
from cognopipe.corpus import (
    RECORDING_COLUMNS,
    RECORDINGS_FILE,
    SUBJECT_COLUMNS,
    SUBJECTS_FILE,
    Task,
)
from cognopipe.errors import ConfigError
from cognopipe.features import FeatureSetId

from conftest import SR, glide


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
                {"tie_break": ["always_case"]},
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
    # Not finite: rejected with the types while the file is parsed, so these
    # rows give the line's whole start.  The bytes row is the file as is:
    # json.dumps cannot write 1e400, which json reads as infinity.
    pytest.param({"vad": {"hop_s": float("nan")}},
                 "config.parse: vad.hop_s must be finite, got nan", id="vad.hop_s:nan"),
    pytest.param({"acoustic": {"frame_len_s": float("inf")}},
                 "config.parse: acoustic.frame_len_s must be finite, got inf",
                 id="acoustic.frame_len_s:inf"),
    pytest.param({"vad": {"threshold_margin_db": float("-inf")}},
                 "config.parse: vad.threshold_margin_db must be finite, got -inf",
                 id="vad.threshold_margin_db:-inf"),
    pytest.param({"classifier": {"lr_tol": float("inf")}},
                 "config.parse: classifier.lr_tol must be finite, got inf",
                 id="classifier.lr_tol:inf"),
    pytest.param(b'{"acoustic": {"f0_max_hz": 1e400}}',
                 "config.parse: acoustic.f0_max_hz must be finite, got inf",
                 id="acoustic.f0_max_hz:1e400"),
    pytest.param({"classifier": {"l2_lambda": 10 ** 400}},
                 f"config.parse: classifier.l2_lambda must be finite, got {10 ** 400}",
                 id="classifier.l2_lambda:10**400"),
    ({"vad": {"bridge_gap_s": -1.0}}, "vad.bridge_gap_s"),
    ({"vad": {"min_segment_s": -0.5}}, "vad.min_segment_s"),
    ({"classifier": {"lr_tol": 1e300}}, "classifier.lr_tol"),
])
def test_config_rejects_out_of_range_sections(tmp_path, doc, field):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    with pytest.raises(ConfigError) as exc:
        cfgmod.merge_config(cfg_file)
    expected = field if field.startswith("config.") else f"config.run_config: {field} must be "
    assert str(exc.value).startswith(expected)
    assert "\n" not in str(exc.value)


# Each section row of the table above, as a library caller makes the section.
@pytest.mark.parametrize("section, cls, kwargs", [
    ("classifier", evaluation.ClassifierConfig, {"l2_lambda": -1}),
    ("classifier", evaluation.ClassifierConfig, {"l2_lambda": 0.0}),
    ("classifier", evaluation.ClassifierConfig, {"lr_max_iters": 0}),
    ("classifier", evaluation.ClassifierConfig, {"lr_tol": 0.0}),
    ("classifier", evaluation.ClassifierConfig, {"svm_epochs": 0}),
    ("ngram", cfgmod.NgramConfig, {"n_lo": 0, "n_hi": 1}),
    ("ngram", cfgmod.NgramConfig, {"n_lo": 2, "n_hi": 1}),
    ("ngram", cfgmod.NgramConfig, {"min_doc_freq": 0}),
    ("acoustic", acoustic.AcousticConfig, {"f0_min_hz": 0}),
    ("acoustic", acoustic.AcousticConfig, {"f0_max_hz": 0}),
    ("acoustic", acoustic.AcousticConfig, {"f0_min_hz": 700}),
    ("acoustic", acoustic.AcousticConfig, {"n_mel_filters": 0}),
    ("acoustic", acoustic.AcousticConfig, {"n_mel_filters": -3}),
    ("vad", dsp.VadConfig, {"noise_floor_percentile": 150}),
    ("vad", dsp.VadConfig, {"noise_floor_percentile": -1}),
    ("acoustic", acoustic.AcousticConfig, {"voicing_threshold": 1.5}),
    ("acoustic", acoustic.AcousticConfig, {"voicing_threshold": 1.0}),
    ("acoustic", acoustic.AcousticConfig, {"voicing_threshold": 0.0}),
    ("vad", dsp.VadConfig, {"bridge_gap_s": -1.0}),
    ("vad", dsp.VadConfig, {"min_segment_s": -0.5}),
    ("classifier", evaluation.ClassifierConfig, {"lr_tol": 1e300}),
])
def test_sections_check_their_own_ranges(tmp_path, section, cls, kwargs):
    """A section made directly raises the line a run's config file gets."""
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({section: kwargs}))
    with pytest.raises(ConfigError) as from_file:
        cfgmod.merge_config(cfg_file)
    with pytest.raises(ConfigError) as direct:
        cls(**kwargs)
    assert str(direct.value) == str(from_file.value)
    assert str(direct.value).startswith(f"config.run_config: {section}.")
    assert "\n" not in str(direct.value)


def test_a_section_from_the_library_names_its_field():
    with pytest.raises(ConfigError) as exc:
        dsp.VadConfig(bridge_gap_s=-1.0)
    assert str(exc.value) == "config.run_config: vad.bridge_gap_s must be >= 0, got -1.0"
    with pytest.raises(ConfigError) as exc:
        evaluation.ClassifierConfig(lr_tol=1e300)
    assert str(exc.value) == "config.run_config: classifier.lr_tol must be in (0, 1e-3], got 1e+300"


# One valid non-default value for every field of the four sections.
_SECTION_FIELD_VALUES = [
    ("vad", "frame_len_s", 0.03),
    ("vad", "hop_s", 0.0125),
    ("vad", "noise_floor_percentile", 20.0),
    ("vad", "threshold_margin_db", 6.0),
    ("vad", "bridge_gap_s", 0.3),
    ("vad", "min_segment_s", 1.0),
    ("vad", "homogeneous_range_db", 0.0),
    ("vad", "homogeneous_speech_floor_db", -10.0),
    ("acoustic", "frame_len_s", 0.03),
    ("acoustic", "hop_s", 0.0125),
    ("acoustic", "f0_min_hz", 70.0),
    ("acoustic", "f0_max_hz", 400.0),
    ("acoustic", "voicing_threshold", 0.6),
    ("acoustic", "n_mel_filters", 20),
    ("ngram", "n_lo", 2),
    ("ngram", "n_hi", 1),
    ("ngram", "min_doc_freq", 1),
    ("classifier", "l2_lambda", 0.1),
    ("classifier", "lr_max_iters", 1),
    ("classifier", "lr_tol", 1e-3),
    ("classifier", "svm_epochs", 5),
]


def test_the_section_value_table_names_every_field():
    want = {(name, field) for name, cls in cfgmod._SECTIONS.items() for field in cls._fields}
    assert {(name, field) for name, field, _ in _SECTION_FIELD_VALUES} == want


@pytest.fixture(scope="module")
def section_run(tmp_path_factory):
    """(runner, the default run's output per command) on a 4 + 4 subject
    corpus of 2 s recordings whose first recording is a constant-level
    tone, so that the VAD's homogeneous-file fallback decides it."""
    root = tmp_path_factory.mktemp("sections")
    manifest = synth.generate(synth.SynthSpec(n_case=4, n_control=4, duration_s=2.0),
                              root / "m")
    rec = corpus.load_manifest(manifest).recordings[0]
    t = np.arange(round(rec.duration_s * rec.sample_rate_hz)) / rec.sample_rate_hz
    dsp.write_wav(rec.audio_path, 0.1 * np.sin(2 * np.pi * 150.0 * t), rec.sample_rate_hz)
    flags = {"extract": ["--tasks", rec.task.value, "--features", "EgemapsLike88,CompareLike"],
             "train-eval": ["--features", "NgramTfidf,Lexical", "--k", "4"]}

    def run(command: str, doc: dict | None) -> dict[str, bytes]:
        out = tmp_path_factory.mktemp("run")
        args = [command, "--manifest", str(manifest), "--out", str(out / "out"),
                "--workers", "1"]
        if doc is not None:
            (out / "run.json").write_text(json.dumps(doc))
            args += ["--config", str(out / "run.json")]
        assert cli.main(args + flags[command]) == 0
        written = {p.name: p.read_bytes() for p in sorted((out / "out").iterdir())}
        if command == "train-eval":  # every byte but the config echo
            report = json.loads(written["report.json"])
            del report["config"]
            written["report.json"] = json.dumps(report, sort_keys=True).encode()
        return written

    return run, {command: run(command, None) for command in flags}


@pytest.mark.parametrize("section, field, value", _SECTION_FIELD_VALUES,
                         ids=[f"{s}.{f}" for s, f, _ in _SECTION_FIELD_VALUES])
def test_every_section_field_reaches_its_stage(section_run, section, field, value):
    """A config file that sets one field alone changes what its command
    writes: extract's CSVs for vad and acoustic, and for ngram and
    classifier train-eval's report past its config echo, which names every
    field whether or not a stage reads it."""
    run, default = section_run
    command = "extract" if section in ("vad", "acoustic") else "train-eval"
    assert run(command, {section: {field: value}}) != default[command]


def test_config_file_encodings(tmp_path):
    """UTF-8 with or without a byte-order mark; anything else is one line."""
    cfg_file = tmp_path / "run.json"
    cfg_file.write_bytes(b'\xef\xbb\xbf{"k": 4}')
    assert cfgmod.merge_config(cfg_file).k == 4
    cfg_file.write_bytes(b'\xff\xfe{"k": 3}')  # a UTF-16 byte-order mark
    with pytest.raises(ConfigError) as exc:
        cfgmod.merge_config(cfg_file)
    assert str(exc.value) == (f"config.load: cannot read config {cfg_file}: 'utf-8' codec "
                              "can't decode byte 0xff in position 0: invalid start byte")


def test_config_echo_excludes_workers():
    cfg = cfgmod.merge_config(None, manifest="m", workers=8, out_dir="o")
    echo = cfgmod.config_echo(cfg)
    assert "workers" not in echo and "out_dir" not in echo
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


@pytest.mark.parametrize("column", [None, 2, 3], ids=["recordings_csv", "audio", "transcript"])
def test_validate_lists_an_unreadable_file_in_one_line(small_manifest, tmp_path, capsys,
                                                      deny_read, column):
    man = shutil.copytree(small_manifest, tmp_path / "m")
    if column is None:
        path = man / RECORDINGS_FILE
        want = f"{RECORDINGS_FILE}:0: cannot read file: Permission denied"
    else:
        first = (man / RECORDINGS_FILE).read_text(encoding="utf-8").splitlines()[1]
        path = (man / first.split(",")[column]).resolve()
        what = "dsp.read_wav: cannot read" if column == 2 else "cannot read transcript"
        want = f"{RECORDINGS_FILE}:2: {what} {path}: Permission denied"
    deny_read(path)
    rc = cli.main(["validate", "--manifest", str(man)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.splitlines() == [want, "1 error(s)"] and captured.err == ""


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


def test_extract_names_each_cell_it_writes_no_file_for(small_manifest, tmp_path, capsys):
    """A (task, set) without recordings, here on a manifest without its
    LongTerm rows, is one stdout line after the written files, and the
    run still succeeds."""
    man = shutil.copytree(small_manifest, tmp_path / "m")
    lines = (man / RECORDINGS_FILE).read_text(encoding="utf-8").splitlines(keepends=True)
    (man / RECORDINGS_FILE).write_text(
        "".join(line for line in lines if ",LongTerm," not in line), encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["extract", "--manifest", str(man), "--out", str(out),
                   "--tasks", "ShortTerm,LongTerm", "--features", "Lexical,EgemapsLike88",
                   "--workers", "1"])
    assert rc == 0
    written = [out / f"features_ShortTerm_{fsid}.csv" for fsid in ("Lexical", "EgemapsLike88")]
    assert capsys.readouterr().out.splitlines() == [
        *(f"wrote {path} (10 rows, dim {dim})" for path, dim in zip(written, (5, 88))),
        "no recordings for LongTerm/Lexical; no file written",
        "no recordings for LongTerm/EgemapsLike88; no file written",
    ]
    assert sorted(out.iterdir()) == sorted(written)


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


@pytest.mark.parametrize("command, name, error, workers", [
    ("summarize", "summary.csv.tmp", "config.out_dir", None),
    ("summarize", "summary.csv", "config.out_dir", None),
    ("extract", "features_ShortTerm_Lexical.csv", "acoustic.write_feature_matrix", "1"),
    ("extract", "features_ShortTerm_Lexical.csv", "acoustic.write_feature_matrix", "2"),
    ("extract", "features_ShortTerm_EgemapsLike88.csv", "acoustic.write_feature_matrix", "1"),
    ("extract", "features_ShortTerm_EgemapsLike88.csv", "acoustic.write_feature_matrix", "2"),
    ("extract", "features_ShortTerm_EgemapsLike88.csv.tmp", "acoustic.write_feature_matrix",
     "1"),
    ("train-eval", "report.json", "evaluation.write_report", "1"),
    ("train-eval", "report.json", "evaluation.write_report", "2"),
    ("train-eval", "report.json.tmp", "evaluation.write_report", "1"),
])
def test_an_output_file_that_cannot_be_written_is_one_line(small_manifest, tmp_path, capsys,
                                                           command, name, error, workers):
    """A directory where an output file goes: exit 1 and one line naming
    the file, and the directory is left as it was.  extract writes all its
    feature matrices or none, so the one written before the blocked one
    (Lexical) is gone too."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    args = [command, "--manifest", str(small_manifest), "--out", str(out)]
    if workers:  # Lexical is written first; EgemapsLike88 goes through the pool at 2
        args += ["--tasks", "ShortTerm", "--features", "Lexical,EgemapsLike88",
                 "--workers", workers]
    rc = cli.main(args)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (f"error: {error}: cannot write {out / name}: "
                            f"{os.strerror(errno.EISDIR)}\n")
    assert "wrote" not in captured.out
    assert list(out.iterdir()) == [out / name] and not list((out / name).iterdir())


def test_a_directory_in_the_way_keeps_the_files_of_the_run_before(small_manifest, tmp_path,
                                                                  capsys):
    """extract into the output of an earlier extract, with a directory where
    one of its new files goes: exit 1, one line, and the earlier run's
    feature CSV byte for byte, with no temporary file beside it."""
    out = tmp_path / "out"
    args = ["extract", "--manifest", str(small_manifest), "--out", str(out),
            "--tasks", "ShortTerm", "--workers", "1", "--features"]
    assert cli.main(args + ["Lexical"]) == 0
    lexical = out / "features_ShortTerm_Lexical.csv"
    old = lexical.read_bytes()
    blocked = out / "features_ShortTerm_EgemapsLike88.csv"
    blocked.mkdir()
    capsys.readouterr()
    assert cli.main(args + ["Lexical,EgemapsLike88"]) == 1
    assert capsys.readouterr().err == (f"error: acoustic.write_feature_matrix: cannot write "
                                       f"{blocked}: {os.strerror(errno.EISDIR)}\n")
    assert lexical.read_bytes() == old
    assert sorted(out.iterdir()) == [blocked, lexical] and not list(blocked.iterdir())


def test_train_eval_writes_the_bytes_of_json_dumps(small_manifest, tmp_path, monkeypatch):
    reports = []
    write_report = evaluation.write_report
    monkeypatch.setattr(evaluation, "write_report",
                        lambda report, path: reports.append(report) or write_report(report, path))
    assert cli.main(["train-eval", "--manifest", str(small_manifest), "--out", str(tmp_path),
                     "--features", "EgemapsLike88,Lexical", "--workers", "1"]) == 0
    (report,) = reports
    expected = json.dumps(report, indent=1, sort_keys=True) + "\n"
    assert (tmp_path / "report.json").read_bytes() == expected.encode("utf-8")


def test_a_report_write_that_fails_part_way_keeps_the_old_report(small_manifest, tmp_path,
                                                                 capsys, monkeypatch):
    """A disk that fills half-way through report.json: exit 1, one line,
    the previous report byte for byte, and no temporary file."""
    out = tmp_path / "out"
    args = ["train-eval", "--manifest", str(small_manifest), "--out", str(out),
            "--features", "Lexical", "--workers", "1"]
    assert cli.main(args) == 0
    old = (out / "report.json").read_bytes()
    capsys.readouterr()

    class FullHalfWay:
        """The file write_report opens, on a disk that has room for half
        of the previous report."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)
            self.room = len(old) // 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if len(text) > self.room:
                self.fh.write(text[: self.room])
                self.room = 0
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.room -= len(text)
            return self.fh.write(text)

    monkeypatch.setattr(evaluation, "open", FullHalfWay, raising=False)
    assert cli.main(args + ["--seed", "3"]) == 1
    tmp = out / "report.json.tmp"
    assert capsys.readouterr().err == (f"error: evaluation.write_report: cannot write {tmp}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")
    assert (out / "report.json").read_bytes() == old
    assert not tmp.exists()


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


# The least `cognopipe report` reads: one fused block and no per-task one.
_READABLE = {
    "schema_version": evaluation.REPORT_SCHEMA_VERSION,
    "disclaimers": ["a note"],
    "per_task_csv": "header\n",
    "fused_csv": "header\n",
    "fused": [{"feature_set": "Lexical", "classifier": "LinearSVM",
               "confusion_3x2": [[0, 1], [1, 0], [0, 2]], "confusion_2x2": [[1, 1], [0, 2]]}],
}


def _report_without(key: str, **changes) -> bytes:
    doc = {k: v for k, v in _READABLE.items() if k != key}
    return json.dumps(doc | changes).encode()


def test_report_reads_the_least_it_prints(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(json.dumps(_READABLE).encode())
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"schema {evaluation.REPORT_SCHEMA_VERSION}\nnote: a note\n")
    assert "fused Lexical/LinearSVM confusion 3x2" in out


@pytest.mark.parametrize("content, detail", [
    (None, "cannot read"),
    (b"{\"schema_version\": ", "is not JSON"),
    (b"{\"per_task\": []}\n", "is not a report of schema"),
    (b"{\"schema_version\": \"1.4\"}\n", "(schema_version '1.4')"),
    (json.dumps({"schema_version": evaluation.REPORT_SCHEMA_VERSION}).encode(),
     "disclaimers is not a list of strings"),
    (_report_without("disclaimers", disclaimers=[1]), "disclaimers is not a list of strings"),
    (_report_without("per_task_csv"), "per_task_csv is not a string"),
    (_report_without("fused_csv", fused_csv=["header"]), "fused_csv is not a string"),
    (_report_without("fused", fused={}), "fused is not a list"),
    (_report_without("fused", fused=[{"feature_set": "Lexical", "confusion_3x2": [],
                                      "confusion_2x2": []}]),
     "a fused block lacks one of feature_set, classifier, confusion_3x2, confusion_2x2"),
    (_report_without("fused", fused=[None]), "a fused block lacks one of"),
], ids=["missing", "not_json", "not_a_report", "older_schema", "schema_version_alone",
        "disclaimer_not_a_string", "no_per_task_csv", "fused_csv_not_a_string",
        "fused_not_a_list", "fused_block_without_classifier", "fused_block_not_an_object"])
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
    # frame_len_s * f0_min_hz <= 1: no frame holds one period at the pitch floor
    pytest.param({"acoustic": {"frame_len_s": 0.005}},
                 "acoustic.extract_llds: a 0.005 s frame at 16000 Hz is 80 samples, too short "
                 "for the 55.0 Hz pitch floor's period of 290 samples plus 2\n",
                 id="doc6-acoustic.extract_llds:frame"),
    pytest.param({"acoustic": {"f0_min_hz": 10}},
                 "acoustic.extract_llds: a 0.025 s frame at 16000 Hz is 400 samples, too short "
                 "for the 10 Hz pitch floor's period of 1600 samples plus 2\n",
                 id="doc7-acoustic.extract_llds:floor"),
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


def test_train_eval_at_22050_hz_is_byte_identical_across_workers(tmp_path):
    # a 10 ms hop is 220.5 samples here: the VAD rounds it to whole samples
    spec = synth.SynthSpec(n_case=3, n_control=3, seed=4, duration_s=2.0,
                           acoustic_separation=40.0, sample_rate_hz=22050)
    manifest = synth.generate(spec, tmp_path / "m")
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        rc = cli.main(["train-eval", "--manifest", str(manifest), "--out", str(out),
                       "--features", "EgemapsLike88,Lexical", "--k", "3",
                       "--workers", workers])
        assert rc == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert evaluation.read_report(out / "report.json")["per_task"]


def test_a_long_segment_extracts_byte_identically_across_workers(tmp_path):
    """A corpus whose first recording is one 30 s continuous voiced
    segment, analysed in blocks cut across it: extract writes the same
    CSV bytes at one worker and through the pool."""
    manifest = tmp_path / "m"
    (manifest / "audio").mkdir(parents=True)
    signals = {"A": glide(30.0), "B": glide(2.0, seed=1), "C": glide(3.0, seed=2)}
    for sid, x in signals.items():
        dsp.write_wav(manifest / "audio" / f"{sid}.wav", x, SR)
    (manifest / "subjects.csv").write_text(
        "subject_id,age,gender,ethnicity,diagnosis\n"
        "A,70,F,,MCI\nB,72,M,,HC\nC,68,Undisclosed,,Dementia\n", encoding="utf-8")
    (manifest / "recordings.csv").write_text(
        "subject_id,task,audio_path,transcript_path\n"
        + "".join(f"{sid},ShortTerm,audio/{sid}.wav,\n" for sid in signals), encoding="utf-8")
    long = dsp.detect_speech(dsp.read_wav(manifest / "audio" / "A.wav"))
    assert long.speech == ((0.0, 30.0),)  # 2,998 frames, past ten blocks
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert cli.main(["extract", "--manifest", str(manifest), "--out", str(out),
                         "--tasks", "ShortTerm", "--features", "EgemapsLike88,CompareLike",
                         "--workers", workers]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(written[0]) == ["features_ShortTerm_CompareLike.csv",
                                  "features_ShortTerm_EgemapsLike88.csv"]
    assert written[0] == written[1]


def test_report_bytes_independent_of_the_output_directory(small_manifest, tmp_path):
    """The same run written through --out and through the config file's
    out_dir, at different depths, gives the same report bytes; its config
    block names the corpus but neither output directory nor worker count."""
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"out_dir": str(tmp_path / "b" / "nested")}))
    base = ["train-eval", "--manifest", str(small_manifest), "--tasks", "ShortTerm",
            "--features", "Lexical", "--k", "3", "--workers", "1"]
    assert cli.main(base + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(base + ["--config", str(cfg_file)]) == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert (tmp_path / "b" / "nested" / "report.json").read_bytes() == first
    echo = json.loads(first)["config"]
    assert "out_dir" not in echo and "workers" not in echo
    assert echo["manifest"] == str(small_manifest)


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
        out = tmp_path / workers
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


def _garble(path: Path) -> None:
    path.write_bytes(b"not a wav at all")


def _check_a_bad_wav_fails_alike(small_manifest, tmp_path, monkeypatch, capsys,
                                 features: str, spoil=_garble,
                                 error="dsp.read_wav: {path}: not a RIFF/WAVE file"):
    """A train-eval whose fifth LongTerm recording is spoiled after the
    manifest was read fails with the same one-line read_wav error, and no
    report, at 2 workers and at 1."""
    load_manifest = cli.corpus.load_manifest
    broken = []

    def load_then_break(path):
        c = load_manifest(path)
        rec = sorted((r for r in c.recordings if r.task is Task.LONG_TERM),
                     key=lambda r: r.subject_id)[4]
        spoil(Path(rec.audio_path))
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
        assert run(workers) == f"error: {error.format(path=broken[-1])}\n"


def test_bad_wav_in_the_last_task_fails_the_pooled_run(small_manifest, tmp_path,
                                                        monkeypatch, capsys):
    _check_a_bad_wav_fails_alike(small_manifest, tmp_path, monkeypatch, capsys,
                                 "EgemapsLike88,Lexical")


def test_bad_wav_fails_a_run_of_both_acoustic_sets_alike(small_manifest, tmp_path,
                                                         monkeypatch, capsys):
    _check_a_bad_wav_fails_alike(small_manifest, tmp_path, monkeypatch, capsys,
                                 "EgemapsLike88,CompareLike")


def test_a_wav_a_worker_cannot_open_fails_the_pooled_run_in_one_line(small_manifest, tmp_path,
                                                                    monkeypatch, capsys):
    def into_directory(path: Path) -> None:  # open() then fails in any process
        path.unlink()
        path.mkdir()

    _check_a_bad_wav_fails_alike(small_manifest, tmp_path, monkeypatch, capsys,
                                 "EgemapsLike88,Lexical", into_directory,
                                 "dsp.read_wav: cannot read {path}: Is a directory")


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
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
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


def test_cli_import_builds_only_the_kept_dataclasses():
    """None: every record is a NamedTuple, whose class costs one small exec,
    where a dataclass execs several generated methods; and the import does
    not load the dataclasses module at all."""
    code = (
        "import sys\n"
        "import cognopipe.cli\n"
        "loaded = 'dataclasses' in sys.modules\n"
        "import dataclasses\n"
        "modules = [m for name, m in sys.modules.items() if name.startswith('cognopipe.')]\n"
        "print(loaded, sorted(f'{m.__name__.removeprefix(\"cognopipe.\")}.{name}' for m in modules\n"
        "                     for name, c in vars(m).items() if isinstance(c, type)\n"
        "                     and c.__module__ == m.__name__ and dataclasses.is_dataclass(c)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False []\n"


def test_cli_import_never_loads_logging():
    """The two INFO lines are printed without the logging module, whose
    import also loads traceback and string."""
    code = ("import sys\n"
            "import cognopipe.cli\n"
            "print(sorted(m for m in ('logging', 'traceback', 'string') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("level, shown", [(None, False), ("WARNING", False), ("error", False),
                                          ("NOLEVEL", False), ("INFO", True), ("debug", True),
                                          ("NOTSET", True)])
def test_cognopipe_log_prints_the_info_lines(small_manifest, tmp_path, capsys, monkeypatch,
                                              level, shown):
    """At a level that shows INFO, train-eval prints one experiment line per
    (task, set) and summarize its written file, on stderr; otherwise, or
    with no COGNOPIPE_LOG, stderr stays empty."""
    if level is None:
        monkeypatch.delenv("COGNOPIPE_LOG", raising=False)
    else:
        monkeypatch.setenv("COGNOPIPE_LOG", level)
    assert cli.main(["train-eval", "--manifest", str(small_manifest), "--out", str(tmp_path),
                     "--tasks", "ShortTerm,LongTerm", "--features", "Lexical,NgramTfidf",
                     "--classifiers", "LogisticRegression", "--workers", "1"]) == 0
    experiments = [f"INFO cognopipe: experiment {task} / {fsid}"
                   for task in ("ShortTerm", "LongTerm") for fsid in ("Lexical", "NgramTfidf")]
    assert sorted(capsys.readouterr().err.splitlines()) == sorted(experiments) * shown
    assert cli.main(["summarize", "--manifest", str(small_manifest), "--out",
                     str(tmp_path)]) == 0
    assert capsys.readouterr().err == f"INFO cognopipe: wrote {tmp_path / 'summary.csv'}\n" * shown


def test_train_eval_never_loads_uuid(small_manifest, tmp_path):
    """An acoustic run reads every WAV header without the uuid module,
    which loads _uuid and libuuid; only a rejected subformat names its GUID."""
    code = (
        "import sys\n"
        "from cognopipe import cli\n"
        f"rc = cli.main(['train-eval', '--manifest', {str(small_manifest)!r},\n"
        f"    '--out', {str(tmp_path / 'out')!r}, '--features', 'EgemapsLike88',\n"
        "    '--workers', '1'])\n"
        "assert rc == 0, rc\n"
        "print('uuid' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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
        ({"n_cases": 5}, None, "synth.load_spec: unknown spec keys: ['n_cases']"),
        ({"duration_s": float("nan")}, None, "synth.load_spec: duration_s must be finite, got nan"),
        ({"duration_s": float("inf")}, None, "synth.load_spec: duration_s must be finite, got inf"),
        ({"snr_db_target": float("-inf")}, None,
         "synth.load_spec: snr_db_target must be finite, got -inf"),
        (b'{"duration_s": 1e400}', None, "synth.load_spec: duration_s must be finite, got inf"),
        ({"acoustic_separation": 10 ** 400}, None,
         "synth.load_spec: acoustic_separation must be finite, got 1000"),
        (b'\xff\xfe{"k": 3}', None, f"synth.load_spec: cannot read spec {spec_file}: 'utf-8' "
         "codec can't decode byte 0xff in position 0: invalid start byte"),
        # past a UTF-8 byte-order mark the object is read, so its key is checked
        (b'\xef\xbb\xbf{"k": 4}', None, "synth.load_spec: unknown spec keys: ['k']"),
    ]:
        spec_file.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        argv = ["synth", "--config", str(spec_file), "--out", str(tmp_path / "c")]
        rc = cli.main(argv + (["--seed", seed] if seed else []))
        assert rc == 1, doc
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line}"), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "c" / RECORDINGS_FILE).exists()


def test_synth_out_under_a_regular_file_is_one_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = cli.main(["synth", "--out", str(blocker / "corpus")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: synth.generate: cannot write "
                                       f"{blocker / 'corpus' / 'audio'}: Not a directory\n")


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
