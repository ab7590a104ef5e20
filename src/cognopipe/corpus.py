"""Study corpus: manifest I/O, validation, statistics, and fold assignment.

A corpus lives on disk as a manifest directory holding two CSV tables,
``subjects.csv`` and ``recordings.csv``, next to the audio and transcript
files they reference.  Relative paths are resolved against the manifest
directory; durations and sample rates come from the WAV headers.
"""

from __future__ import annotations

import csv
import enum
import functools
import os
from typing import Mapping, NamedTuple

import numpy as np

from . import dsp
from .errors import AudioFormatError, ManifestError, checked

SUBJECTS_FILE = "subjects.csv"
RECORDINGS_FILE = "recordings.csv"
SUBJECT_COLUMNS = ("subject_id", "age", "gender", "ethnicity", "diagnosis")
RECORDING_COLUMNS = ("subject_id", "task", "audio_path", "transcript_path")
MIN_SAMPLE_RATE_HZ = 8000


class Task(enum.Enum):
    """The four speech elicitation prompts."""

    SHORT_TERM = "ShortTerm"
    LONG_TERM = "LongTerm"
    SEMANTIC_FLUENCY = "SemanticFluency"
    PICTURE_DESCRIPTION = "PictureDescription"


class Gender(enum.Enum):
    M = "M"
    F = "F"
    UNDISCLOSED = "Undisclosed"


class Diagnosis(enum.Enum):
    DEMENTIA = "Dementia"
    MCI = "MCI"
    HC = "HC"


class Label(enum.Enum):
    """Binary screening label; Dementia and MCI both collapse to Case."""

    CASE = "Case"
    CONTROL = "Control"


def label_of(diagnosis: Diagnosis) -> Label:
    return Label.CONTROL if diagnosis is Diagnosis.HC else Label.CASE


class Diagnostic(NamedTuple):
    """One manifest problem, addressable as file:row."""

    file: str
    row: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.row}: {self.message}"


class SubjectRecord(NamedTuple):
    subject_id: str
    age: int | None
    gender: Gender
    ethnicity: str | None
    diagnosis: Diagnosis

    @property
    def binary_label(self) -> Label:
        return label_of(self.diagnosis)


class TaskRecording(NamedTuple):
    subject_id: str
    task: Task
    audio_path: str
    transcript_path: str | None
    transcript: str | None
    duration_s: float
    sample_rate_hz: int


@checked
class Corpus(NamedTuple):
    """A validated set of subjects and their recordings."""

    subjects: tuple[SubjectRecord, ...]
    recordings: tuple[TaskRecording, ...]
    # derived, always again: each subject by its id
    by_id: Mapping[str, SubjectRecord] | None = None

    def _checked(self):
        by_id = {s.subject_id: s for s in self.subjects}
        if len(by_id) != len(self.subjects):
            raise ManifestError("corpus", "duplicate subject_id")
        pairs = set()
        covered = set()
        for r in self.recordings:
            if r.subject_id not in by_id:
                raise ManifestError(
                    "corpus", f"recording references unknown subject '{r.subject_id}'"
                )
            key = (r.subject_id, r.task)
            if key in pairs:
                raise ManifestError(
                    "corpus", f"duplicate recording for ({r.subject_id}, {r.task.value})"
                )
            pairs.add(key)
            covered.add(r.subject_id)
        missing = by_id.keys() - covered
        if missing:
            raise ManifestError(
                "corpus", f"subjects without recordings: {sorted(missing)}"
            )
        return self._replace(by_id=by_id)

    def subject(self, subject_id: str) -> SubjectRecord:
        return self.by_id[subject_id]

    def diagnosis_counts(self) -> dict[Diagnosis, int]:
        counts = {d: 0 for d in Diagnosis}
        for s in self.subjects:
            counts[s.diagnosis] += 1
        return counts

    def label_counts(self) -> dict[Label, int]:
        counts = {lab: 0 for lab in Label}
        for s in self.subjects:
            counts[s.binary_label] += 1
        return counts


class FoldAssignment(NamedTuple):
    """Subject-level partition into k disjoint folds."""

    k: int
    fold_of_subject: Mapping[str, int]

    def test_subjects(self, fold: int) -> tuple[str, ...]:
        return tuple(
            sorted(s for s, f in self.fold_of_subject.items() if f == fold)
        )

    def train_subjects(self, fold: int) -> tuple[str, ...]:
        return tuple(
            sorted(s for s, f in self.fold_of_subject.items() if f != fold)
        )

    def fold_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.k
        for f in self.fold_of_subject.values():
            sizes[f] += 1
        return tuple(sizes)


def _read_table(root: str, name: str, columns: tuple[str, ...], diags: list[Diagnostic]):
    """Read a CSV table, returning [(row_number, row_dict), ...].

    The file is UTF-8, with or without a byte-order mark.  Header,
    row-shape, encoding and read problems are recorded as diagnostics; an
    unusable file yields None.
    """
    path = os.path.join(root, name)
    if not os.path.isfile(path):
        diags.append(Diagnostic(name, 0, "file not found"))
        return None
    rows = []
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                diags.append(Diagnostic(name, 0, "empty file (no header)"))
                return None
            if tuple(reader.fieldnames) != columns:
                diags.append(Diagnostic(name, 1, f"header must be exactly {','.join(columns)}; "
                                                 f"got {','.join(reader.fieldnames)}"))
                return None
            for i, row in enumerate(reader, start=2):
                if None in row.values() or row.get(None) is not None:
                    diags.append(Diagnostic(name, i, "malformed row "
                                                     f"(expected {len(columns)} fields)"))
                else:
                    rows.append((i, row))
    except UnicodeDecodeError:
        diags.append(Diagnostic(name, 0, "file is not UTF-8 text"))
        return None
    except OSError as exc:
        diags.append(Diagnostic(name, 0, f"cannot read file: {exc.strerror}"))
        return None
    return rows


def _resolver(root: str):
    """Map a manifest path (relative to root unless absolute) to the string
    Path.resolve() names, walking each directory's realpath once.

    Only a symlinked file, or a path ending in "/", "." or "..", needs a walk
    of its own.  Walks go through os.path.realpath, which leaves a symlink
    loop unresolved where Path.resolve() raises, so the row gets its "file
    not found" diagnostic.
    """
    real_dir = functools.cache(os.path.realpath)

    def resolve(raw: str) -> str:
        full = os.path.join(root, raw)
        head, name = os.path.split(full)
        if name in ("", ".", ".."):
            return os.path.realpath(full)
        full = os.path.join(real_dir(head), name)
        return os.path.realpath(full) if os.path.islink(full) else full

    return resolve


def _member(kind: type[enum.Enum], raw: str, problems: list[str]):
    """kind(raw), or None with "unknown <kind> '<raw>'" appended to problems."""
    try:
        return kind(raw)
    except ValueError:
        problems.append(f"unknown {kind.__name__.lower()} '{raw}'")
        return None


def _parse_subject(rownum: int, row: dict, problems: list[str],
                   row_of_subject: dict[str, int]) -> SubjectRecord | None:
    """One subjects.csv row, its problems appended; a good row's id goes into row_of_subject."""
    sid = row["subject_id"].strip()
    if not sid:
        problems.append("empty subject_id")
    elif sid in row_of_subject:
        problems.append(f"duplicate subject_id '{sid}' (first at row {row_of_subject[sid]})")
    age_raw = row["age"].strip()
    age = None
    if age_raw:
        try:
            age = int(age_raw)
        except ValueError:
            problems.append(f"age is not an integer: '{age_raw}'")
    if age is not None and age < 0:
        problems.append(f"negative age: {age}")
    gender = _member(Gender, row["gender"].strip() or Gender.UNDISCLOSED.value, problems)
    diagnosis = _member(Diagnosis, row["diagnosis"].strip(), problems)
    if problems:
        return None
    row_of_subject[sid] = rownum
    return SubjectRecord(sid, age, gender, row["ethnicity"].strip() or None, diagnosis)


def _parse_recording(rownum: int, row: dict, problems: list[str], known: dict | None,
                     first_row: dict[tuple[str, Task], int], resolve) -> TaskRecording | None:
    """One recordings.csv row, its problems appended.  known holds the
    loaded subject ids, None when subjects.csv could not be read; first_row
    maps each (subject, task) to the row that first named it."""
    sid = row["subject_id"].strip()
    if known is not None and sid not in known:
        problems.append(f"unknown subject_id '{sid}'")
    task = _member(Task, row["task"].strip(), problems)
    if not problems:
        first = first_row.setdefault((sid, task), rownum)
        if first != rownum:
            problems.append(f"duplicate recording for ({sid}, {task.value}) "
                            f"(first at row {first})")
    audio_raw = row["audio_path"].strip()
    if not audio_raw:
        problems.append("empty audio_path")
        return None
    audio_path = resolve(audio_raw)
    if not os.path.isfile(audio_path):
        problems.append(f"audio file not found: {audio_path}")
        return None
    try:
        sr, n_samples = dsp.read_wav_info(audio_path)
    except AudioFormatError as exc:
        problems.append(str(exc))
        return None
    if sr < MIN_SAMPLE_RATE_HZ:
        problems.append(f"sample rate {sr} Hz below minimum {MIN_SAMPLE_RATE_HZ} Hz")
    if n_samples == 0:
        problems.append("audio has zero samples")
    transcript_path = transcript = None
    if transcript_raw := row["transcript_path"].strip():
        transcript_path = resolve(transcript_raw)
        if not os.path.isfile(transcript_path):
            problems.append(f"transcript file not found: {transcript_path}")
        else:
            try:
                with open(transcript_path, encoding="utf-8-sig") as fh:
                    transcript = fh.read()
            except UnicodeDecodeError:
                problems.append(f"transcript is not UTF-8 text: {transcript_path}")
            except OSError as exc:
                problems.append(f"cannot read transcript {transcript_path}: {exc.strerror}")
    if problems:
        return None
    return TaskRecording(sid, task, audio_path, transcript_path, transcript,
                         n_samples / sr, sr)


def _parse_rows(name: str, rows, diags: list[Diagnostic], parse, *context) -> list:
    """The records parse(rownum, row, problems, *context) makes of the rows
    it finds no problem in; each problem of the others is a diagnostic."""
    records = []
    for rownum, row in rows or ():
        problems: list[str] = []
        record = parse(rownum, row, problems, *context)
        diags.extend(Diagnostic(name, rownum, message) for message in problems)
        if not problems:
            records.append(record)
    return records


def load_manifest(path) -> Corpus:
    """Load and fully validate a manifest directory.

    All problems are collected (sorted by file then row) and raised
    together as one ManifestError, so a validation pass reports
    everything at once instead of stopping at the first defect.  Rows
    are not checked against a table that could not be read.
    """
    root = os.fspath(path)
    if not os.path.isdir(root):
        raise ManifestError("load_manifest", f"manifest directory not found: {root}")
    diags: list[Diagnostic] = []
    subj_rows = _read_table(root, SUBJECTS_FILE, SUBJECT_COLUMNS, diags)
    rec_rows = _read_table(root, RECORDINGS_FILE, RECORDING_COLUMNS, diags)
    row_of_subject: dict[str, int] = {}
    subjects = _parse_rows(SUBJECTS_FILE, subj_rows, diags, _parse_subject, row_of_subject)
    known = None if subj_rows is None else row_of_subject
    recordings = _parse_rows(RECORDINGS_FILE, rec_rows, diags, _parse_recording,
                             known, {}, _resolver(root))

    if not subjects and not diags:
        diags.append(Diagnostic(SUBJECTS_FILE, 0, "manifest defines no subjects"))
    if rec_rows is not None:
        covered = {r.subject_id for r in recordings}
        diags.extend(Diagnostic(SUBJECTS_FILE, rownum, f"subject '{sid}' has no recordings")
                     for sid, rownum in row_of_subject.items() if sid not in covered)
    if diags:
        ordered = tuple(sorted(diags, key=lambda d: (d.file, d.row)))
        raise ManifestError("load_manifest", f"{len(ordered)} problem(s); first: {ordered[0]}",
                            diagnostics=ordered)
    return Corpus(tuple(subjects), tuple(recordings))


def _sorted_mean_std(values) -> tuple[float, float]:
    """Mean and population std (divisor N, so one value is well defined)
    of the values sorted first, which makes both exactly invariant to
    their order."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(np.mean(v)), float(np.std(v))


def summarize(corpus: Corpus, vad_config: dsp.VadConfig = dsp.VadConfig()) -> list[str]:
    """The corpus census as CSV lines, the text of ``summary.csv``.

    First the subject and recording counts and the count of each
    diagnosis.  Then a header and one ``group`` line per (diagnosis,
    task) that has recordings: its count and the mean and std of its
    durations (s) and SNRs (dB).  Then a header and one ``demographics``
    line per diagnosis that has subjects: its count, the mean and std of
    the disclosed ages (``absent`` when none is) and its M, F and
    Undisclosed counts.  Stds are population stds; values are sorted
    before reduction, so the lines do not depend on manifest row order.
    """
    durations: dict[tuple[Diagnosis, Task], list[float]] = {}
    snrs: dict[tuple[Diagnosis, Task], list[float]] = {}
    for rec in corpus.recordings:
        key = (corpus.subject(rec.subject_id).diagnosis, rec.task)
        audio = dsp.read_wav(rec.audio_path)
        segments = dsp.detect_speech(audio, vad_config)
        durations.setdefault(key, []).append(rec.duration_s)
        snrs.setdefault(key, []).append(dsp.estimate_snr(audio, segments))

    counts = ",".join(f"{d.value}={n}" for d, n in corpus.diagnosis_counts().items())
    lines = [
        f"subjects,{len(corpus.subjects)}",
        f"recordings,{len(corpus.recordings)}",
        f"diagnosis_counts,{counts}",
        "group,diagnosis,task,count,duration_mean_s,duration_std_s,snr_mean_db,snr_std_db",
    ]
    for d in Diagnosis:
        for t in Task:
            if (d, t) not in durations:
                continue
            dur_mean, dur_std = _sorted_mean_std(durations[(d, t)])
            snr_mean, snr_std = _sorted_mean_std(snrs[(d, t)])
            lines.append(
                f"group,{d.value},{t.value},{len(durations[(d, t)])},{dur_mean:.2f},"
                f"{dur_std:.2f},{snr_mean:.2f},{snr_std:.2f}"
            )

    lines.append("demographics,diagnosis,count,age_mean,age_std,M,F,Undisclosed")
    for d in Diagnosis:
        members = [s for s in corpus.subjects if s.diagnosis is d]
        if not members:
            continue
        ages = [s.age for s in members if s.age is not None]
        age_mean, age_std = "absent", "absent"
        if ages:
            mean, std = _sorted_mean_std(ages)
            age_mean, age_std = f"{mean:.1f}", f"{std:.1f}"
        genders = {g: 0 for g in Gender}
        for s in members:
            genders[s.gender] += 1
        lines.append(
            f"demographics,{d.value},{len(members)},{age_mean},{age_std},"
            f"{genders[Gender.M]},{genders[Gender.F]},{genders[Gender.UNDISCLOSED]}"
        )
    return lines


def stratified_folds(corpus: Corpus, k: int, seed: int) -> FoldAssignment:
    """Deterministic subject-level folds stratified by binary label.

    Each class is shuffled with the seeded generator and dealt round-robin
    onto folds; the dealing pointer carries over between classes so the
    overall fold sizes stay within one of each other.
    """
    if k < 2:
        raise ManifestError("stratified_folds", f"k must be >= 2, got {k}")
    by_label: dict[Label, list[str]] = {lab: [] for lab in Label}
    for s in corpus.subjects:
        by_label[s.binary_label].append(s.subject_id)
    for lab in Label:
        if len(by_label[lab]) < k:
            raise ManifestError(
                "stratified_folds",
                f"class {lab.value} has {len(by_label[lab])} subjects, fewer than k={k}",
            )
    rng = np.random.default_rng(seed)
    fold_of: dict[str, int] = {}
    ptr = 0
    for lab in (Label.CASE, Label.CONTROL):
        ids = sorted(by_label[lab])
        for idx in rng.permutation(len(ids)):
            fold_of[ids[idx]] = ptr % k
            ptr += 1
    return FoldAssignment(k=k, fold_of_subject=fold_of)
