"""Study corpus: manifest I/O, validation, statistics, and fold assignment.

A corpus lives on disk as a manifest directory holding two CSV tables,
``subjects.csv`` and ``recordings.csv``, next to the audio and transcript
files they reference.  Relative paths are resolved against the manifest
directory; durations and sample rates come from the WAV headers.
"""

from __future__ import annotations

import csv
import enum
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from . import dsp
from .errors import AudioFormatError, ManifestError

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


@dataclass(frozen=True)
class Diagnostic:
    """One manifest problem, addressable as file:row."""

    file: str
    row: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.row}: {self.message}"


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    age: int | None
    gender: Gender
    ethnicity: str | None
    diagnosis: Diagnosis

    @property
    def binary_label(self) -> Label:
        return label_of(self.diagnosis)


@dataclass(frozen=True)
class TaskRecording:
    subject_id: str
    task: Task
    audio_path: str
    transcript_path: str | None
    transcript: str | None
    duration_s: float
    sample_rate_hz: int


@dataclass(frozen=True)
class Corpus:
    subjects: tuple[SubjectRecord, ...]
    recordings: tuple[TaskRecording, ...]

    def __post_init__(self):
        ids = [s.subject_id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise ManifestError("corpus", "duplicate subject_id")
        known = set(ids)
        pairs = set()
        covered = set()
        for r in self.recordings:
            if r.subject_id not in known:
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
        missing = known - covered
        if missing:
            raise ManifestError(
                "corpus", f"subjects without recordings: {sorted(missing)}"
            )

    @cached_property
    def _by_id(self) -> dict[str, SubjectRecord]:
        return {s.subject_id: s for s in self.subjects}

    def subject(self, subject_id: str) -> SubjectRecord:
        return self._by_id[subject_id]

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


@dataclass(frozen=True)
class FoldAssignment:
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


@dataclass(frozen=True)
class GroupStats:
    count: int
    duration_mean_s: float
    duration_std_s: float
    snr_mean_db: float
    snr_std_db: float


@dataclass(frozen=True)
class DemographicStats:
    count: int
    age_mean: float | None
    age_std: float | None
    gender_counts: Mapping[Gender, int]


@dataclass(frozen=True)
class CorpusStats:
    n_subjects: int
    n_recordings: int
    diagnosis_counts: Mapping[Diagnosis, int]
    per_group: Mapping[tuple[Diagnosis, Task], GroupStats]
    demographics: Mapping[Diagnosis, DemographicStats]


def _read_table(path: Path, columns: tuple[str, ...], diags: list[Diagnostic]):
    """Read a CSV table, returning [(row_number, row_dict), ...].

    The file is UTF-8, with or without a byte-order mark.  Header,
    row-shape and encoding problems are recorded as diagnostics; an
    unusable file yields None.
    """
    name = path.name
    if not path.is_file():
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
    return rows


def _resolver(root: Path):
    """Path.resolve() of manifest paths, each directory's realpath walked once.

    Only a symlinked file (or a path ending in "..") needs a walk of its
    own; any other file is its resolved directory joined with its name.
    Walks go through os.path.realpath, which names the same path as
    Path.resolve() but leaves a symlink loop unresolved instead of raising,
    so the row gets its "file not found" diagnostic.
    """
    dirs: dict[Path, str] = {}

    def resolve(raw: str) -> Path:
        p = Path(raw)
        p = p if p.is_absolute() else root / p
        if p.name in ("", ".."):
            return Path(os.path.realpath(p))
        parent = dirs.get(p.parent)
        if parent is None:
            parent = dirs[p.parent] = os.path.realpath(p.parent)
        full = os.path.join(parent, p.name)
        return Path(os.path.realpath(full)) if os.path.islink(full) else Path(full)

    return resolve


def load_manifest(path) -> Corpus:
    """Load and fully validate a manifest directory.

    All problems are collected (sorted by file then row) and raised
    together as one ManifestError, so a validation pass reports
    everything at once instead of stopping at the first defect.  Rows
    are not checked against a table that could not be read.
    """
    root = Path(path)
    if not root.is_dir():
        raise ManifestError("load_manifest", f"manifest directory not found: {root}")
    diags: list[Diagnostic] = []
    resolve = _resolver(root)
    subj_rows = _read_table(root / SUBJECTS_FILE, SUBJECT_COLUMNS, diags)
    rec_rows = _read_table(root / RECORDINGS_FILE, RECORDING_COLUMNS, diags)

    subjects: list[SubjectRecord] = []
    row_of_subject: dict[str, int] = {}
    for rownum, row in subj_rows or ():
        bad = False
        sid = row["subject_id"].strip()
        if not sid:
            diags.append(Diagnostic(SUBJECTS_FILE, rownum, "empty subject_id"))
            bad = True
        elif sid in row_of_subject:
            diags.append(
                Diagnostic(
                    SUBJECTS_FILE,
                    rownum,
                    f"duplicate subject_id '{sid}' (first at row {row_of_subject[sid]})",
                )
            )
            bad = True
        age: int | None = None
        age_raw = row["age"].strip()
        if age_raw:
            try:
                age = int(age_raw)
            except ValueError:
                diags.append(
                    Diagnostic(SUBJECTS_FILE, rownum, f"age is not an integer: '{age_raw}'")
                )
                bad = True
            else:
                if age < 0:
                    diags.append(Diagnostic(SUBJECTS_FILE, rownum, f"negative age: {age}"))
                    bad = True
        gender_raw = row["gender"].strip() or Gender.UNDISCLOSED.value
        try:
            gender = Gender(gender_raw)
        except ValueError:
            diags.append(
                Diagnostic(SUBJECTS_FILE, rownum, f"unknown gender '{gender_raw}'")
            )
            bad = True
        diag_raw = row["diagnosis"].strip()
        try:
            diagnosis = Diagnosis(diag_raw)
        except ValueError:
            diags.append(
                Diagnostic(SUBJECTS_FILE, rownum, f"unknown diagnosis '{diag_raw}'")
            )
            bad = True
        if bad:
            continue
        row_of_subject[sid] = rownum
        ethnicity = row["ethnicity"].strip() or None
        subjects.append(SubjectRecord(sid, age, gender, ethnicity, diagnosis))

    recordings: list[TaskRecording] = []
    seen_pairs: dict[tuple[str, Task], int] = {}
    covered: set[str] = set()
    for rownum, row in rec_rows or ():
        bad = False
        sid = row["subject_id"].strip()
        if subj_rows is not None and sid not in row_of_subject:
            diags.append(
                Diagnostic(RECORDINGS_FILE, rownum, f"unknown subject_id '{sid}'")
            )
            bad = True
        try:
            task = Task(row["task"].strip())
        except ValueError:
            diags.append(
                Diagnostic(RECORDINGS_FILE, rownum, f"unknown task '{row['task'].strip()}'")
            )
            bad = True
        if not bad:
            if (sid, task) in seen_pairs:
                diags.append(
                    Diagnostic(
                        RECORDINGS_FILE,
                        rownum,
                        f"duplicate recording for ({sid}, {task.value}) "
                        f"(first at row {seen_pairs[(sid, task)]})",
                    )
                )
                bad = True
            else:
                seen_pairs[(sid, task)] = rownum

        audio_raw = row["audio_path"].strip()
        if not audio_raw:
            diags.append(Diagnostic(RECORDINGS_FILE, rownum, "empty audio_path"))
            continue
        audio_path = resolve(audio_raw)
        if not audio_path.is_file():
            diags.append(
                Diagnostic(RECORDINGS_FILE, rownum, f"audio file not found: {audio_path}")
            )
            continue
        try:
            sr, n_samples = dsp.read_wav_info(audio_path)
        except AudioFormatError as exc:
            diags.append(Diagnostic(RECORDINGS_FILE, rownum, str(exc)))
            continue
        if sr < MIN_SAMPLE_RATE_HZ:
            diags.append(
                Diagnostic(
                    RECORDINGS_FILE,
                    rownum,
                    f"sample rate {sr} Hz below minimum {MIN_SAMPLE_RATE_HZ} Hz",
                )
            )
            bad = True
        if n_samples == 0:
            diags.append(Diagnostic(RECORDINGS_FILE, rownum, "audio has zero samples"))
            bad = True

        transcript_raw = row["transcript_path"].strip()
        transcript_path: str | None = None
        transcript: str | None = None
        if transcript_raw:
            tpath = resolve(transcript_raw)
            if not tpath.is_file():
                diags.append(
                    Diagnostic(
                        RECORDINGS_FILE, rownum, f"transcript file not found: {tpath}"
                    )
                )
                bad = True
            else:
                transcript_path = str(tpath)
                try:
                    transcript = tpath.read_text(encoding="utf-8-sig")
                except UnicodeDecodeError:
                    diags.append(Diagnostic(
                        RECORDINGS_FILE, rownum, f"transcript is not UTF-8 text: {tpath}"))
                    bad = True
        if bad:
            continue
        covered.add(sid)
        recordings.append(
            TaskRecording(
                subject_id=sid,
                task=task,
                audio_path=str(audio_path),
                transcript_path=transcript_path,
                transcript=transcript,
                duration_s=n_samples / sr,
                sample_rate_hz=sr,
            )
        )

    if not subjects and not diags:
        diags.append(Diagnostic(SUBJECTS_FILE, 0, "manifest defines no subjects"))
    for sid, rownum in row_of_subject.items():
        if rec_rows is not None and sid not in covered:
            diags.append(
                Diagnostic(SUBJECTS_FILE, rownum, f"subject '{sid}' has no recordings")
            )

    if diags:
        ordered = tuple(sorted(diags, key=lambda d: (d.file, d.row)))
        raise ManifestError(
            "load_manifest",
            f"{len(ordered)} problem(s); first: {ordered[0]}",
            diagnostics=ordered,
        )
    return Corpus(tuple(subjects), tuple(recordings))


def summarize(corpus: Corpus, vad_config: dsp.VadConfig | None = None) -> CorpusStats:
    """Per (diagnosis, task) duration/SNR statistics plus demographics.

    Uses the population std (divisor N) so single-recording groups are
    well defined.  Values are sorted before reduction, which makes the
    result exactly invariant to manifest row order.  Groups with no
    recordings are simply absent from per_group.
    """
    durations: dict[tuple[Diagnosis, Task], list[float]] = {}
    snrs: dict[tuple[Diagnosis, Task], list[float]] = {}
    for rec in corpus.recordings:
        key = (corpus.subject(rec.subject_id).diagnosis, rec.task)
        audio = dsp.read_wav(rec.audio_path)
        segments = dsp.detect_speech(audio, vad_config)
        durations.setdefault(key, []).append(rec.duration_s)
        snrs.setdefault(key, []).append(dsp.estimate_snr(audio, segments))

    per_group: dict[tuple[Diagnosis, Task], GroupStats] = {}
    for d in Diagnosis:
        for t in Task:
            key = (d, t)
            if key not in durations:
                continue
            dur = np.sort(np.asarray(durations[key]))
            snr = np.sort(np.asarray(snrs[key]))
            per_group[key] = GroupStats(
                count=dur.size,
                duration_mean_s=float(np.mean(dur)),
                duration_std_s=float(np.std(dur)),
                snr_mean_db=float(np.mean(snr)),
                snr_std_db=float(np.std(snr)),
            )

    demographics: dict[Diagnosis, DemographicStats] = {}
    for d in Diagnosis:
        members = [s for s in corpus.subjects if s.diagnosis is d]
        if not members:
            continue
        ages = np.sort(np.asarray([s.age for s in members if s.age is not None], dtype=float))
        genders = {g: 0 for g in Gender}
        for s in members:
            genders[s.gender] += 1
        demographics[d] = DemographicStats(
            count=len(members),
            age_mean=float(np.mean(ages)) if ages.size else None,
            age_std=float(np.std(ages)) if ages.size else None,
            gender_counts=genders,
        )

    return CorpusStats(
        n_subjects=len(corpus.subjects),
        n_recordings=len(corpus.recordings),
        diagnosis_counts=corpus.diagnosis_counts(),
        per_group=per_group,
        demographics=demographics,
    )


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
