"""Manifest loading/validation, statistics, and fold assignment."""

import os
from pathlib import Path

import numpy as np
import pytest

from cognopipe import corpus, dsp
from cognopipe.corpus import (
    Corpus,
    Diagnosis,
    Gender,
    Label,
    SubjectRecord,
    Task,
    TaskRecording,
    label_of,
)
from cognopipe.errors import ManifestError

from conftest import SR, memory_corpus, tone


def _write_recording(root, sid, task, text="hello there", dur=0.5):
    wav = root / f"{sid}_{task.value}.wav"
    txt = root / f"{sid}_{task.value}.txt"
    dsp.write_wav(wav, tone(180, dur), SR)
    txt.write_text(text, encoding="utf-8")
    return wav.name, txt.name


def make_manifest(root, subjects, recordings):
    (root / "subjects.csv").write_text(
        "subject_id,age,gender,ethnicity,diagnosis\n"
        + "".join(f"{','.join(map(str, row))}\n" for row in subjects),
        encoding="utf-8",
    )
    (root / "recordings.csv").write_text(
        "subject_id,task,audio_path,transcript_path\n"
        + "".join(f"{','.join(row)}\n" for row in recordings),
        encoding="utf-8",
    )
    return root


@pytest.fixture
def good_manifest(tmp_path):
    rows = []
    for sid, diag in (("A1", "MCI"), ("B2", "HC")):
        for task in (Task.SHORT_TERM, Task.SEMANTIC_FLUENCY):
            wav, txt = _write_recording(tmp_path, sid, task)
            rows.append((sid, task.value, wav, txt))
    subjects = [("A1", 74, "F", "White British", "MCI"), ("B2", "", "", "", "HC")]
    return make_manifest(tmp_path, subjects, rows)


# ---------------------------------------------------------------------------
# loading

def test_load_manifest_good(good_manifest):
    c = corpus.load_manifest(good_manifest)
    assert len(c.subjects) == 2
    assert len(c.recordings) == 4
    a = c.subject("A1")
    assert a.age == 74 and a.gender is Gender.F and a.diagnosis is Diagnosis.MCI
    b = c.subject("B2")
    assert b.age is None and b.gender is Gender.UNDISCLOSED and b.ethnicity is None
    recs = {(r.subject_id, r.task): r for r in c.recordings}
    rec = recs[("A1", Task.SHORT_TERM)]
    assert rec.transcript == "hello there"
    assert rec.sample_rate_hz == SR
    assert abs(rec.duration_s - 0.5) < 1e-9
    assert ("A1", Task.LONG_TERM) not in recs
    assert sorted(s for s, t in recs if t is Task.SEMANTIC_FLUENCY) == ["A1", "B2"]


def test_load_manifest_missing_dir(tmp_path):
    with pytest.raises(ManifestError):
        corpus.load_manifest(tmp_path / "nope")


def test_load_manifest_collects_all_problems(tmp_path):
    wav, txt = _write_recording(tmp_path, "ok", Task.SHORT_TERM)
    lofi = tmp_path / "lofi.wav"
    dsp.write_wav(lofi, tone(100, 0.2, sr=4000), 4000)
    subjects = [
        ("ok", 70, "M", "", "HC"),
        ("dup", 71, "F", "", "MCI"),
        ("dup", 72, "F", "", "MCI"),          # duplicate id
        ("badage", "old", "M", "", "HC"),     # non-integer age
        ("baddiag", 70, "M", "", "Unwell"),   # unknown diagnosis
        ("lonely", 70, "M", "", "HC"),        # will have no recordings
        ("lofi", 70, "M", "", "HC"),
    ]
    recordings = [
        ("ok", "ShortTerm", wav, txt),
        ("ok", "ShortTerm", wav, txt),            # duplicate (subject, task)
        ("ghost", "ShortTerm", wav, txt),         # unknown subject
        ("ok", "Karaoke", wav, txt),              # unknown task
        ("dup", "LongTerm", "missing.wav", ""),   # audio not found
        ("lofi", "LongTerm", "lofi.wav", ""),     # sample rate too low
    ]
    make_manifest(tmp_path, subjects, recordings)
    with pytest.raises(ManifestError) as exc:
        corpus.load_manifest(tmp_path)
    messages = [str(d) for d in exc.value.diagnostics]
    assert len(messages) >= 7
    joined = "\n".join(messages)
    assert "duplicate subject_id 'dup'" in joined
    assert "age is not an integer" in joined
    assert "unknown diagnosis 'Unwell'" in joined
    assert "no recordings" in joined
    assert "duplicate recording for (ok, ShortTerm)" in joined
    assert "unknown subject_id 'ghost'" in joined
    assert "unknown task 'Karaoke'" in joined
    assert "audio file not found" in joined
    assert "below minimum 8000" in joined
    # diagnostics arrive sorted by (file, row)
    keys = [(d.file, d.row) for d in exc.value.diagnostics]
    assert keys == sorted(keys)


def test_load_manifest_bad_header(tmp_path):
    (tmp_path / "subjects.csv").write_text("id,diagnosis\nA,HC\n")
    (tmp_path / "recordings.csv").write_text(
        "subject_id,task,audio_path,transcript_path\n"
    )
    with pytest.raises(ManifestError) as exc:
        corpus.load_manifest(tmp_path)
    assert any("header" in str(d) for d in exc.value.diagnostics)


def test_load_manifest_malformed_row(tmp_path, good_manifest):
    with open(tmp_path / "recordings.csv", "a", encoding="utf-8") as fh:
        fh.write("A1,LongTerm\n")  # too few fields
    with pytest.raises(ManifestError) as exc:
        corpus.load_manifest(good_manifest)
    assert any("malformed row" in str(d) for d in exc.value.diagnostics)


def test_byte_order_marks_load_the_same_corpus(good_manifest):
    """A spreadsheet's "CSV UTF-8" export starts each file with a BOM."""
    plain = corpus.load_manifest(good_manifest)
    for name in ("subjects.csv", "recordings.csv", "A1_ShortTerm.txt"):
        path = good_manifest / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert corpus.load_manifest(good_manifest) == plain


def test_manifest_paths_resolve_as_path_resolve_does(tmp_path):
    """Row paths through a symlinked directory, a symlinked file, ".."
    segments and an absolute path load as Path.resolve() names them."""
    data = tmp_path / "data"
    data.mkdir()
    files = {}
    for sid in ("A1", "B2"):
        for task in Task:
            files[sid, task] = _write_recording(data, sid, task)
    root = tmp_path / "m"
    (root / "sub").mkdir(parents=True)
    (root / "linkdir").symlink_to("../data")
    (root / "sub" / "inner").symlink_to(data, target_is_directory=True)
    (root / "link.wav").symlink_to(data / files["A1", Task.SHORT_TERM][0])
    (root / "linkdir" / "rel.txt").symlink_to(files["B2", Task.LONG_TERM][1])
    raw = {
        ("A1", Task.SHORT_TERM): ("link.wav", "linkdir/{txt}"),
        ("A1", Task.LONG_TERM): ("sub/../linkdir/{wav}", "sub/inner/../data/{txt}"),
        ("A1", Task.SEMANTIC_FLUENCY): ("linkdir/../data/{wav}", str(data) + "/{txt}"),
        ("A1", Task.PICTURE_DESCRIPTION): ("sub/inner/{wav}", "../data/{txt}"),
        ("B2", Task.SHORT_TERM): ("sub/../../data/{wav}", "sub/./inner/{txt}"),
        ("B2", Task.LONG_TERM): ("linkdir/{wav}", "sub/inner/rel.txt"),
        ("B2", Task.SEMANTIC_FLUENCY): ("sub/inner/../data/../data/{wav}", "linkdir/{txt}"),
        ("B2", Task.PICTURE_DESCRIPTION): (str(root) + "/linkdir/{wav}", "../m/linkdir/{txt}"),
    }
    rows = []
    for (sid, task), (audio, text) in raw.items():
        wav, txt = files[sid, task]
        rows.append((sid, task.value, audio.format(wav=wav), text.format(txt=txt)))
    make_manifest(root, [("A1", 74, "F", "", "MCI"), ("B2", "", "", "", "HC")], rows)
    c = corpus.load_manifest(root)
    got = {(r.subject_id, r.task.value): (r.audio_path, r.transcript_path)
           for r in c.recordings}
    assert len(got) == len(rows)
    for sid, task, audio, text in rows:
        assert got[sid, task] == (str((root / audio).resolve()), str((root / text).resolve()))
    assert got["A1", "ShortTerm"][0] == str(data / files["A1", Task.SHORT_TERM][0])
    assert got["B2", "LongTerm"][1] == str(data / files["B2", Task.LONG_TERM][1])
    resolve = corpus._resolver(root)
    for odd in ("missing/x.wav", "linkdir/missing.wav", "sub/..", "..", "linkdir", "/"):
        assert resolve(odd) == (root / odd).resolve()
    # a symlink loop, on which Path.resolve() raises, is named as realpath names it
    (root / "loop").symlink_to("loop")
    with pytest.raises(RuntimeError, match="Symlink loop"):
        (root / "loop/x/..").resolve()
    for looped in ("loop", "loop/x.wav", "loop/x/.."):
        assert resolve(looped) == Path(os.path.realpath(root / looped))
        assert not resolve(looped).exists()


@pytest.mark.parametrize("name, data, line", [
    ("subjects.csv",
     b"subject_id,age,gender,ethnicity,diagnosis\nA1,74,F,Fran\xe7aise,MCI\nB2,,,,HC\n",
     "subjects.csv:0: file is not UTF-8 text"),
    ("A1_ShortTerm.txt", b"caf\xe9 au lait",
     "recordings.csv:2: transcript is not UTF-8 text: {path}"),
], ids=["csv", "transcript"])
def test_text_that_is_not_utf8_is_a_diagnostic(good_manifest, name, data, line):
    path = good_manifest / name
    path.write_bytes(data)
    with pytest.raises(ManifestError) as exc:
        corpus.load_manifest(good_manifest)
    assert line.format(path=path.resolve()) in [str(d) for d in exc.value.diagnostics]


def _append_row(path, row):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")


# One defect in good_manifest each; a defective subject or recording row is
# a new row (subjects row 4, recordings row 6), so nothing else depends on it.
@pytest.mark.parametrize("edit, line", [
    (lambda m: (m / "recordings.csv").unlink(), "recordings.csv:0: file not found"),
    (lambda m: (m / "subjects.csv").write_text(""), "subjects.csv:0: empty file (no header)"),
    (lambda m: _append_row(m / "subjects.csv", ",70,M,,HC"), "subjects.csv:4: empty subject_id"),
    (lambda m: _append_row(m / "subjects.csv", "C3,-3,M,,HC"), "subjects.csv:4: negative age: -3"),
    (lambda m: _append_row(m / "subjects.csv", "C3,70,X,,HC"),
     "subjects.csv:4: unknown gender 'X'"),
    (lambda m: _append_row(m / "recordings.csv", "A1,LongTerm,,"),
     "recordings.csv:6: empty audio_path"),
    (lambda m: ((m / "bad.wav").write_bytes(b"not a wav at all"),
                _append_row(m / "recordings.csv", "A1,LongTerm,bad.wav,")),
     "recordings.csv:6: dsp.read_wav: {root}/bad.wav: not a RIFF/WAVE file"),
    (lambda m: (dsp.write_wav(m / "silent.wav", np.zeros(0), SR),
                _append_row(m / "recordings.csv", "A1,LongTerm,silent.wav,")),
     "recordings.csv:6: audio has zero samples"),
    (lambda m: _append_row(m / "recordings.csv", "A1,LongTerm,A1_ShortTerm.wav,gone.txt"),
     "recordings.csv:6: transcript file not found: {root}/gone.txt"),
    (lambda m: make_manifest(m, [], []), "subjects.csv:0: manifest defines no subjects"),
    (lambda m: ((m / "loop.wav").symlink_to("loop.wav"),
                _append_row(m / "recordings.csv", "A1,LongTerm,loop.wav,")),
     "recordings.csv:6: audio file not found: {root}/loop.wav"),
    (lambda m: ((m / "loop.txt").symlink_to("loop.txt"),
                _append_row(m / "recordings.csv", "A1,LongTerm,A1_ShortTerm.wav,loop.txt")),
     "recordings.csv:6: transcript file not found: {root}/loop.txt"),
], ids=["file_not_found", "empty_file", "empty_subject_id", "negative_age", "unknown_gender",
        "empty_audio_path", "malformed_wav", "zero_samples", "transcript_not_found",
        "no_subjects", "audio_symlink_loop", "transcript_symlink_loop"])
def test_each_manifest_defect_is_one_diagnostic(good_manifest, edit, line):
    edit(good_manifest)
    with pytest.raises(ManifestError) as exc:
        corpus.load_manifest(good_manifest)
    root = good_manifest.resolve()
    assert [str(d) for d in exc.value.diagnostics] == [line.format(root=root)]


@pytest.mark.parametrize("name, data, line", [
    ("subjects.csv", b"subject_id,age,gender,ethnicity,diagnosis\nA1,74,F,Fran\xe7aise,MCI\n",
     "subjects.csv:0: file is not UTF-8 text"),
    ("recordings.csv", b"subject,task,audio,transcript\n",
     "recordings.csv:1: header must be exactly subject_id,task,audio_path,transcript_path; "
     "got subject,task,audio,transcript"),
], ids=["subjects", "recordings"])
def test_an_unusable_table_is_its_only_diagnostic(good_manifest, name, data, line):
    """Rows are not checked against a table that could not be read: no
    'unknown subject_id' per recording, no 'has no recordings' per subject."""
    (good_manifest / name).write_bytes(data)
    with pytest.raises(ManifestError) as exc:
        corpus.load_manifest(good_manifest)
    assert [str(d) for d in exc.value.diagnostics] == [line]


# ---------------------------------------------------------------------------
# corpus invariants

def test_corpus_rejects_duplicate_subject():
    s = SubjectRecord("X", None, Gender.M, None, Diagnosis.HC)
    r = TaskRecording("X", Task.SHORT_TERM, "x.wav", None, None, 1.0, SR)
    with pytest.raises(ManifestError):
        Corpus((s, s), (r,))


def test_corpus_rejects_unknown_recording_subject():
    s = SubjectRecord("X", None, Gender.M, None, Diagnosis.HC)
    r = TaskRecording("Y", Task.SHORT_TERM, "y.wav", None, None, 1.0, SR)
    with pytest.raises(ManifestError):
        Corpus((s,), (r,))


def test_corpus_rejects_subject_without_recordings():
    s1 = SubjectRecord("X", None, Gender.M, None, Diagnosis.HC)
    s2 = SubjectRecord("Y", None, Gender.M, None, Diagnosis.HC)
    r = TaskRecording("X", Task.SHORT_TERM, "x.wav", None, None, 1.0, SR)
    with pytest.raises(ManifestError):
        Corpus((s1, s2), (r,))


def test_corpus_rejects_duplicate_recording():
    s = SubjectRecord("X", None, Gender.M, None, Diagnosis.HC)
    r = TaskRecording("X", Task.SHORT_TERM, "x.wav", None, None, 1.0, SR)
    with pytest.raises(ManifestError) as exc:
        Corpus((s,), (r, r))
    assert str(exc.value) == "corpus.corpus: duplicate recording for (X, ShortTerm)"


def test_label_mapping():
    assert label_of(Diagnosis.DEMENTIA) is Label.CASE
    assert label_of(Diagnosis.MCI) is Label.CASE
    assert label_of(Diagnosis.HC) is Label.CONTROL


def test_counts():
    c = memory_corpus(n_case=5, n_control=3, n_dementia=2)
    assert c.diagnosis_counts() == {
        Diagnosis.DEMENTIA: 2, Diagnosis.MCI: 3, Diagnosis.HC: 3
    }
    assert c.label_counts() == {Label.CASE: 5, Label.CONTROL: 3}


# ---------------------------------------------------------------------------
# statistics

def test_summarize_basic(good_manifest):
    c = corpus.load_manifest(good_manifest)
    stats = corpus.summarize(c)
    assert stats.n_subjects == 2
    assert stats.n_recordings == 4
    g = stats.per_group[(Diagnosis.MCI, Task.SHORT_TERM)]
    assert g.count == 1
    assert abs(g.duration_mean_s - 0.5) < 1e-9
    assert g.duration_std_s == 0.0
    assert (Diagnosis.DEMENTIA, Task.SHORT_TERM) not in stats.per_group
    assert Diagnosis.DEMENTIA not in stats.demographics
    demo = stats.demographics[Diagnosis.MCI]
    assert demo.count == 1 and demo.age_mean == 74.0
    hc = stats.demographics[Diagnosis.HC]
    assert hc.age_mean is None  # age undisclosed
    assert hc.gender_counts[Gender.UNDISCLOSED] == 1


def test_summarize_row_order_invariant(good_manifest):
    c = corpus.load_manifest(good_manifest)
    flipped = Corpus(tuple(reversed(c.subjects)), tuple(reversed(c.recordings)))
    assert corpus.summarize(c) == corpus.summarize(flipped)


# ---------------------------------------------------------------------------
# folds

def test_stratified_folds_126_subjects():
    c = memory_corpus(n_case=63, n_control=63, n_dementia=12)
    folds = corpus.stratified_folds(c, 5, seed=7)
    assert folds.fold_sizes() == (26, 25, 25, 25, 25)
    all_ids = {s.subject_id for s in c.subjects}
    seen = set()
    for f in range(5):
        test = set(folds.test_subjects(f))
        train = set(folds.train_subjects(f))
        assert test.isdisjoint(seen)
        assert test | train == all_ids
        seen |= test
        n_case = sum(
            1 for s in test if c.subject(s).binary_label is Label.CASE
        )
        assert abs(n_case - (len(test) - n_case)) <= 1
    assert seen == all_ids


def test_stratified_folds_deterministic():
    c = memory_corpus(n_case=20, n_control=20)
    a = corpus.stratified_folds(c, 5, seed=3)
    b = corpus.stratified_folds(c, 5, seed=3)
    assert a.fold_of_subject == b.fold_of_subject
    other = corpus.stratified_folds(c, 5, seed=4)
    assert a.fold_of_subject != other.fold_of_subject


def test_stratified_folds_rejects_small_classes():
    c = memory_corpus(n_case=3, n_control=10)
    with pytest.raises(ManifestError):
        corpus.stratified_folds(c, 5, seed=0)
    with pytest.raises(ManifestError):
        corpus.stratified_folds(c, 1, seed=0)


def test_fold_assignment_accessors():
    fa = corpus.FoldAssignment(2, {"a": 0, "b": 1, "c": 0})
    assert fa.test_subjects(0) == ("a", "c")
    assert fa.train_subjects(0) == ("b",)
    assert fa.fold_sizes() == (2, 1)
