"""Synthetic corpora with controllable class separation.

Audio is a harmonic pulse train (voiced bursts separated by pauses) plus
white noise at a target SNR; transcripts are drawn from class-skewed
unigram pools.  acoustic_separation shifts the class F0 centers apart
(in Hz) and slows the Case speaking rate; linguistic_separation skews
the word pools (0 means both classes share one distribution).  The same
spec and seed always produce byte-identical files, so end-to-end runs
are reproducible fixtures.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import corpus, dsp
from .config import number_field_problem, read_json_object
from .errors import SynthError, checked, writing

_SHARED_WORDS = (
    "the and then we saw went to a of in house garden water mother boy girl "
    "cookie jar window kitchen outside little big very really just some "
    "more time day cat dog bird fish horse sheep cow table chair plate cup spoon hand"
).split()

_CASE_WORDS = (
    "forget lost confused maybe thing stuff somewhere somehow trying "
    "hard difficult slow tired blank muddle hazy"
).split()

_CONTROL_WORDS = (
    "remember clearly detail quickly easily exactly organized precise "
    "sharp active bright steady focused calm alert"
).split()

_FILLER_WORDS = ("um", "uh", "er")


@checked
class SynthSpec(NamedTuple):
    """What generate makes: class sizes, seed, separations, noise and
    recording format.  Its ranges are checked when made."""

    n_case: int = 10
    n_control: int = 10
    seed: int = 0
    acoustic_separation: float = 0.0  # Hz between class F0 centers
    linguistic_separation: float = 0.0  # 0 = identical word pools
    snr_db_target: float = 25.0
    duration_s: float = 6.0
    sample_rate_hz: int = 16000

    def _checked(self):
        if self.seed < 0:
            raise SynthError("spec", f"seed must be >= 0, got {self.seed}")
        if self.n_case < 1 or self.n_control < 1:
            raise SynthError("spec", "need at least one subject per class")
        if self.acoustic_separation < 0 or self.linguistic_separation < 0:
            raise SynthError("spec", "separations must be >= 0")
        if self.duration_s < 1.0:
            raise SynthError("spec", f"duration_s must be >= 1, got {self.duration_s}")
        if self.sample_rate_hz < corpus.MIN_SAMPLE_RATE_HZ:
            raise SynthError("spec", f"sample rate must be >= {corpus.MIN_SAMPLE_RATE_HZ}, "
                             f"got {self.sample_rate_hz}")
        return self


def load_spec(path) -> SynthSpec:
    """Read a SynthSpec from a JSON file (missing keys keep defaults)."""
    doc = read_json_object(path, SynthError, "load_spec", "spec")
    problem = number_field_problem(SynthSpec, doc, "spec")
    if problem:
        raise SynthError("load_spec", problem)
    return SynthSpec(**doc)


def _smooth_noise(rng: np.random.Generator, n: int, sr: int, points_per_s: float) -> np.ndarray:
    """Slowly varying unit-variance-ish contour (interpolated white noise)."""
    n_pts = max(3, int(n / sr * points_per_s) + 2)
    pts = rng.standard_normal(n_pts)
    return np.interp(np.arange(n), np.linspace(0, n - 1, n_pts), pts)


def _pulse_train(rng: np.random.Generator, n: int, sr: int, f0_base: float,
                 jitter_amount: float) -> np.ndarray:
    t = np.arange(n) / sr
    vibrato = 0.02 * np.sin(2 * np.pi * 1.7 * t + rng.uniform(0, 2 * np.pi))
    drift = jitter_amount * _smooth_noise(rng, n, sr, 40.0)
    f0 = f0_base * (1.0 + vibrato + drift)
    phase = 2 * np.pi * np.cumsum(f0) / sr
    sig = np.zeros(n)
    k = 1
    while k * f0_base < 4000.0 and k <= 24:
        sig += np.sin(k * phase) / k
        k += 1
    return sig / np.max(np.abs(sig))


def _burst_envelope(rng: np.random.Generator, n: int, sr: int, pause_scale: float) -> np.ndarray:
    env = np.zeros(n)
    pos = 0
    speaking = True
    while pos < n:
        if speaking:
            ln = rng.uniform(0.7, 1.3)
        else:
            ln = rng.uniform(0.25, 0.45) * pause_scale
        seg = max(1, int(ln * sr))
        if speaking:
            env[pos : pos + seg] = 1.0
        pos += seg
        speaking = not speaking
    ramp = max(3, int(0.010 * sr))
    win = np.hanning(2 * ramp + 1)
    return np.convolve(env, win / win.sum(), mode="same")


def _render_audio(rng: np.random.Generator, spec: SynthSpec, f0_base: float,
                  jitter_amount: float, pause_scale: float) -> np.ndarray:
    sr = spec.sample_rate_hz
    n = int(spec.duration_s * sr)
    voiced = _pulse_train(rng, n, sr, f0_base, jitter_amount)
    env = _burst_envelope(rng, n, sr, pause_scale)
    speech = 0.5 * env * voiced
    burst = env > 0.5
    if not burst.any():
        burst[:] = True
    p_speech = float(np.mean(speech[burst] ** 2))
    sigma = np.sqrt(p_speech * 10.0 ** (-spec.snr_db_target / 10.0))
    x = speech + sigma * rng.standard_normal(n)
    peak = np.max(np.abs(x))
    if peak > 0.98:
        x *= 0.98 / peak
    return x


def _transcript(rng: np.random.Generator, q: float, is_case: bool, n_words: int) -> str:
    pool = _CASE_WORDS if is_case else _CONTROL_WORDS
    words = []
    for _ in range(n_words):
        if rng.random() < 0.06:
            words.append(_FILLER_WORDS[rng.integers(len(_FILLER_WORDS))])
        elif rng.random() < q:
            words.append(pool[rng.integers(len(pool))])
        else:
            words.append(_SHARED_WORDS[rng.integers(len(_SHARED_WORDS))])
    return " ".join(words) + "\n"


def generate(spec: SynthSpec, out_dir) -> Path:
    """Write a full synthetic corpus; returns the manifest directory.

    Layout: audio/<sid>_<task>.wav, transcripts/<sid>_<task>.txt, and
    the two manifest CSVs with relative paths.  The result is reloaded
    through the normal manifest path before returning, so a generated
    corpus is valid by construction.  A directory or file that cannot be
    written is SynthError("generate", "cannot write <path>: <reason>").
    """
    out = Path(out_dir)
    for sub in ("audio", "transcripts"):
        with writing(SynthError, "generate", out / sub):
            (out / sub).mkdir(parents=True, exist_ok=True)

    n_total = spec.n_case + spec.n_control
    q = spec.linguistic_separation / (1.0 + spec.linguistic_separation)
    rate_shift = min(1.0, spec.acoustic_separation / 100.0)

    subject_rows = []
    recording_rows = []
    tasks = list(corpus.Task)
    for i in range(n_total):
        is_case = i < spec.n_case
        sid = f"S{i:03d}"
        if is_case:
            diagnosis = corpus.Diagnosis.DEMENTIA if i % 4 == 0 else corpus.Diagnosis.MCI
        else:
            diagnosis = corpus.Diagnosis.HC
        head_rng = np.random.default_rng([spec.seed, i, 999])
        age = int(head_rng.integers(55, 86))
        gender = corpus.Gender.M if i % 2 == 0 else corpus.Gender.F
        subject_rows.append([sid, age, gender.value, "", diagnosis.value])

        f0_center = 140.0 + (-0.5 if is_case else 0.5) * spec.acoustic_separation
        f0_base = float(np.clip(f0_center + head_rng.uniform(-5.0, 5.0), 75.0, 350.0))
        jitter_amount = 0.004 + (0.004 * rate_shift if is_case else 0.0)
        pause_scale = 1.0 + (0.6 * rate_shift if is_case else 0.0)

        for t_idx, task in enumerate(tasks):
            rng = np.random.default_rng([spec.seed, i, t_idx])
            x = _render_audio(rng, spec, f0_base, jitter_amount, pause_scale)
            wav_rel = f"audio/{sid}_{task.value}.wav"
            txt_rel = f"transcripts/{sid}_{task.value}.txt"
            with writing(SynthError, "generate", out / wav_rel):
                dsp.write_wav(out / wav_rel, x, spec.sample_rate_hz)
            n_words = int(rng.integers(30, 50))
            with writing(SynthError, "generate", out / txt_rel):
                (out / txt_rel).write_text(
                    _transcript(rng, q, is_case, n_words), encoding="utf-8"
                )
            recording_rows.append([sid, task.value, wav_rel, txt_rel])

    for name, columns, rows in ((corpus.SUBJECTS_FILE, corpus.SUBJECT_COLUMNS, subject_rows),
                                (corpus.RECORDINGS_FILE, corpus.RECORDING_COLUMNS,
                                 recording_rows)):
        with (writing(SynthError, "generate", out / name),
              open(out / name, "w", encoding="utf-8", newline="") as fh):
            w = csv.writer(fh)
            w.writerow(columns)
            w.writerows(rows)

    corpus.load_manifest(out)  # a generated corpus must validate cleanly
    return out
