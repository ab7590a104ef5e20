"""Audio primitives: WAV I/O, framing, FFT, energy VAD, SNR estimation."""

from __future__ import annotations

import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import kernels
from .errors import AudioFormatError

SNR_CAP_DB = 120.0
_LOG_FLOOR = 1e-12  # mean-square floor, i.e. -120 dB


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio with samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if self.samples.size == 0:
            raise AudioFormatError("audio_buffer", "audio buffer is empty")
        if not np.all(np.isfinite(self.samples)):
            raise AudioFormatError("audio_buffer", "audio buffer contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise AudioFormatError("audio_buffer", f"invalid sample rate {self.sample_rate_hz}")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class SegmentSet:
    """Sorted, non-overlapping speech intervals in seconds."""

    speech: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = 0.0
        for start, end in self.speech:
            if start < prev_end - 1e-12 or end <= start:
                raise ValueError(f"segments not sorted/disjoint: {self.speech}")
            prev_end = end

    @property
    def total_speech_s(self) -> float:
        return sum(e - s for s, e in self.speech)

    def sample_mask(self, n_samples: int, sample_rate_hz: int) -> np.ndarray:
        mask = np.zeros(n_samples, dtype=bool)
        for start, end in self.speech:
            a = max(0, int(round(start * sample_rate_hz)))
            b = min(n_samples, int(round(end * sample_rate_hz)))
            mask[a:b] = True
        return mask


@dataclass(frozen=True)
class VadConfig:
    """Energy VAD parameters; see detect_speech."""

    frame_len_s: float = 0.025
    hop_s: float = 0.010
    noise_floor_percentile: float = 10.0
    threshold_margin_db: float = 10.0
    bridge_gap_s: float = 0.2
    min_segment_s: float = 0.1
    # Degenerate-input guard: when the frame-energy dynamic range is below
    # homogeneous_range_db the file has no usable noise floor, so the whole
    # file is labeled speech iff its median energy clears the absolute floor.
    homogeneous_range_db: float = 10.0
    homogeneous_speech_floor_db: float = -60.0


# ---------------------------------------------------------------------------
# WAV I/O (RIFF/WAVE, PCM 16-bit, mono)

_FORMAT_PCM = 1
_FORMAT_EXTENSIBLE = 0xFFFE
_FMT_EXTENSIBLE_LEN = 40
_SUBFORMAT_PCM = uuid.UUID("00000001-0000-0010-8000-00aa00389b71")


def _read_wav_header(fh: BinaryIO, path: Path) -> tuple[int, int, int]:
    """Walk the RIFF chunks of an open file by seeking from header to header.

    Returns (sample_rate, data_offset, data_len_bytes) or raises; only the
    chunk headers and the fmt body are read.
    """

    def bad(defect: str):
        return AudioFormatError("read_wav", f"{path}: {defect}")

    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise bad("not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_len = struct.unpack("<4sI", fh.read(8))
        body = pos + 8
        if chunk_id == b"fmt ":
            if fmt is not None:
                raise bad("repeated fmt chunk")
            if chunk_len < 16 or body + 16 > size:
                raise bad("truncated fmt chunk")
            fmt = fh.read(min(chunk_len, _FMT_EXTENSIBLE_LEN))
        elif chunk_id == b"data":
            if data is not None:
                raise bad("repeated data chunk")
            data = (body, chunk_len)
        pos = body + chunk_len + (chunk_len & 1)
    if fmt is None:
        raise bad("missing fmt chunk")
    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = (
        struct.unpack_from("<HHIIHH", fmt))
    if audio_format == _FORMAT_EXTENSIBLE:
        if len(fmt) < _FMT_EXTENSIBLE_LEN:
            raise bad("truncated fmt chunk")
        subformat = uuid.UUID(bytes_le=fmt[24:40])
        if subformat != _SUBFORMAT_PCM:
            raise bad(f"non-PCM format tag {audio_format} (subformat {subformat})")
    elif audio_format != _FORMAT_PCM:
        raise bad(f"non-PCM format tag {audio_format}")
    if channels != 1:
        raise bad(f"multi-channel audio ({channels} channels)")
    if bits != 16:
        raise bad(f"{bits}-bit samples, expected 16-bit PCM")
    if sample_rate == 0:
        raise bad("invalid sample rate 0")
    if data is None:
        raise bad("missing data chunk")
    offset, length = data
    if offset + length > size:
        raise bad(f"truncated data chunk (declares {length} bytes, "
                  f"{size - offset} available)")
    if length % 2:
        raise bad("data chunk length is not a whole number of 16-bit samples")
    return sample_rate, offset, length


def read_wav_info(path: str | Path) -> tuple[int, int]:
    """Validate headers and return (sample_rate_hz, n_samples) without decoding."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        sample_rate, _offset, length = _read_wav_header(fh, path)
    return sample_rate, length // 2


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a PCM-16 mono WAV file; samples are scaled by 1/32768."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        sample_rate, offset, length = _read_wav_header(fh, path)
        if length == 0:
            raise AudioFormatError("read_wav", f"{path}: empty data chunk")
        fh.seek(offset)
        pcm = np.fromfile(fh, dtype="<i2", count=length // 2)
    return AudioBuffer(pcm.astype(np.float64) / 32768.0, sample_rate)


def write_wav(path: str | Path, samples: np.ndarray, sample_rate_hz: int) -> None:
    """Write samples in [-1, 1] as PCM-16 mono (round, clip at full scale)."""
    pcm = np.clip(np.round(np.asarray(samples, dtype=np.float64) * 32768.0),
                  -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate_hz,
                                    sample_rate_hz * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(data))
    Path(path).write_bytes(header + data)


# ---------------------------------------------------------------------------
# Framing and FFT

def frame_signal(samples: np.ndarray, sample_rate_hz: int,
                 frame_len_s: float = 0.025, hop_s: float = 0.010) -> np.ndarray:
    """Overlapping frames as a read-only (num, frame_len) view of samples.

    num = 1 + floor((N - len) / hop), or 0 for a signal shorter than one
    frame.  Row i is samples[i*hop : i*hop + len]; nothing is copied.
    Frame and hop must each round to at least one sample.
    """
    flen = int(round(frame_len_s * sample_rate_hz))
    hop = int(round(hop_s * sample_rate_hz))
    if flen < 1 or hop < 1:
        raise AudioFormatError(
            "frame_signal",
            f"frame {frame_len_s} s / hop {hop_s} s at {sample_rate_hz} Hz is "
            f"{flen} / {hop} samples; each must be at least 1",
        )
    if samples.size < flen:
        return np.empty((0, flen))
    return np.lib.stride_tricks.sliding_window_view(samples, flen)[::hop]


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def fft_real(x: np.ndarray, n: int) -> np.ndarray:
    """Forward DFT of a real vector zero-padded/truncated to length n.

    n must be a power of two >= 2; returns the n//2 + 1 low-frequency bins
    where bin b = sum_t x[t] * exp(-2*pi*i*b*t/n).
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"fft_real length must be a power of two >= 2, got {n}")
    x = np.asarray(x, dtype=np.float64)
    buf = np.zeros(n)
    m = min(n, x.size)
    buf[:m] = x[:m]
    return kernels.rfft_pow2_batch(buf[None, :])[0]


# ---------------------------------------------------------------------------
# Speech detection and SNR

def frame_energies_db(frames: np.ndarray) -> np.ndarray:
    """Per-frame RMS energy in dB, floored at -120 dB."""
    return 10.0 * np.log10(np.mean(frames * frames, axis=1) + _LOG_FLOOR)


def detect_speech(audio: AudioBuffer, config: VadConfig | None = None) -> SegmentSet:
    """Energy-based speech/non-speech segmentation.

    A frame is speech when its energy exceeds the noise floor (the
    noise_floor_percentile of frame energies) by threshold_margin_db.
    Adjacent speech frames are merged, gaps shorter than bridge_gap_s are
    bridged, and segments shorter than min_segment_s are dropped.  Files
    with no energy dynamic range fall back to an absolute-floor decision
    (see VadConfig).
    """
    cfg = config or VadConfig()
    frames = frame_signal(audio.samples, audio.sample_rate_hz, cfg.frame_len_s, cfg.hop_s)
    if frames.shape[0] == 0:
        return SegmentSet(())
    energies = frame_energies_db(frames)
    lo = np.percentile(energies, cfg.noise_floor_percentile)
    hi = np.percentile(energies, 90.0)
    if hi - lo < cfg.homogeneous_range_db:
        mask = np.full(energies.size, np.median(energies) > cfg.homogeneous_speech_floor_db)
    else:
        mask = energies > lo + cfg.threshold_margin_db
    if not mask.any():
        return SegmentSet(())

    # speech runs are frames [i, j): the padded mask changes value at i and j
    bounds = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    starts = bounds[0::2] * cfg.hop_s
    ends = (bounds[1::2] - 1) * cfg.hop_s + cfg.frame_len_s
    dur = audio.duration_s
    if mask[-1]:
        # the tail beyond the last full frame cannot be classified; it
        # inherits the final frame's label
        ends[-1] = dur
    # a run that starts under bridge_gap_s after the previous one ends joins it
    first = np.flatnonzero(np.append(True, starts[1:] - ends[:-1] >= cfg.bridge_gap_s))
    last = np.append(first[1:] - 1, ends.size - 1)
    starts, ends = starts[first], np.minimum(ends[last], dur)
    keep = ends - starts >= cfg.min_segment_s
    return SegmentSet(tuple(zip(starts[keep].tolist(), ends[keep].tolist())))


def estimate_snr(audio: AudioBuffer, segments: SegmentSet) -> float:
    """10*log10 of speech power over non-speech power, capped at +/-120 dB.

    Powers are mean squared amplitudes over the samples inside vs outside
    the speech segments.  No speech -> -120; no (or silent) non-speech
    -> +120.
    """
    mask = segments.sample_mask(audio.samples.size, audio.sample_rate_hz)
    speech = audio.samples[mask]
    noise = audio.samples[~mask]
    if speech.size == 0:
        return -SNR_CAP_DB
    p_speech = float(np.mean(speech * speech))
    if p_speech <= 0.0:
        return -SNR_CAP_DB
    if noise.size == 0:
        return SNR_CAP_DB
    p_noise = float(np.mean(noise * noise))
    if p_noise <= 0.0:
        return SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(p_speech / p_noise), -SNR_CAP_DB, SNR_CAP_DB))
