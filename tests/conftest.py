"""Shared fixtures: deterministic signals and small synthetic corpora."""

import builtins
import errno
import os

import numpy as np
import pytest

from cognopipe import corpus, synth
from cognopipe.corpus import (
    Corpus,
    Diagnosis,
    Gender,
    SubjectRecord,
    Task,
    TaskRecording,
)

SR = 16000


def tone(freq_hz: float, dur_s: float, sr: int = SR, amp: float = 0.3) -> np.ndarray:
    t = np.arange(int(dur_s * sr)) / sr
    return amp * np.sin(2 * np.pi * freq_hz * t)


def sawtooth(freq_hz: float, dur_s: float, sr: int = SR, amp: float = 0.3) -> np.ndarray:
    t = np.arange(int(dur_s * sr)) / sr
    phase = np.mod(t * freq_hz, 1.0)
    return amp * (2.0 * phase - 1.0)


def glide(dur_s: float, sr: int = SR, seed: int = 0) -> np.ndarray:
    """Continuous voicing: two harmonics of an f0 gliding from 130 to 150 Hz,
    in faint noise.  The VAD makes the whole of it one speech segment."""
    n = int(dur_s * sr)
    phase = 2 * np.pi * np.cumsum(130.0 + 20.0 * np.arange(n) / n) / sr
    noise = 0.001 * np.random.default_rng(seed).standard_normal(n)
    return 0.3 * np.sin(phase) + 0.1 * np.sin(2 * phase) + noise


def memory_corpus(n_case: int, n_control: int, n_dementia: int = 0) -> Corpus:
    """In-memory corpus with stub recordings (no files on disk).

    Useful wherever only the roster matters (folds, confusion tables,
    providers fed with precomputed vectors).
    """
    subjects = []
    recordings = []
    for i in range(n_case + n_control):
        if i < n_dementia:
            diag = Diagnosis.DEMENTIA
        elif i < n_case:
            diag = Diagnosis.MCI
        else:
            diag = Diagnosis.HC
        sid = f"P{i:03d}"
        subjects.append(SubjectRecord(sid, 70, Gender.UNDISCLOSED, None, diag))
        for task in Task:
            recordings.append(
                TaskRecording(sid, task, f"{sid}.wav", None, None, 1.0, SR)
            )
    return Corpus(tuple(subjects), tuple(recordings))


@pytest.fixture(scope="session")
def small_manifest(tmp_path_factory):
    """Separable 10-subject corpus on disk (5 Case / 5 Control)."""
    root = tmp_path_factory.mktemp("smallcorpus")
    spec = synth.SynthSpec(
        n_case=5,
        n_control=5,
        seed=13,
        acoustic_separation=60.0,
        linguistic_separation=4.0,
        duration_s=3.0,
    )
    return synth.generate(spec, root / "m")


@pytest.fixture(scope="session")
def small_corpus(small_manifest):
    return corpus.load_manifest(small_manifest)


@pytest.fixture
def deny_read(monkeypatch):
    """deny_read(path) makes every later open() of path raise PermissionError,
    as a file without read permission does for a user other than root (the
    tests may run as root, which file modes do not stop)."""
    denied = set()
    real_open = builtins.open

    def open_unless_denied(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.realpath(file) in denied:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_unless_denied)
    return lambda path: denied.add(os.path.realpath(path))
