"""Audio primitives: WAV I/O, framing, FFT, energy VAD, SNR estimation."""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from . import kernels
from .errors import AudioFormatError, check_ranges, checked

SNR_CAP_DB = 120.0
_LOG_FLOOR = 1e-12  # mean-square floor, i.e. -120 dB
# Frames per chunk of frame_energies_db: bounds its squared-signal buffer.
_ENERGY_CHUNK = 1024
# Samples per chunk of read_wav's PCM buffer: the decode holds one float32
# copy of the recording and this many int16 samples.
_DECODE_CHUNK = 1 << 16


@checked
class AudioBuffer(NamedTuple):
    """Mono audio with samples normalized to [-1, 1], as float32 (what
    read_wav gives) or float64.  Every computation takes the samples as
    float64, so both dtypes give the same results for the same values."""

    samples: np.ndarray
    sample_rate_hz: int

    def _checked(self):
        if self.samples.size == 0:
            raise AudioFormatError("audio_buffer", "audio buffer is empty")
        # NaN reaches both extremes and an infinity one: no bool per sample
        if not (np.isfinite(self.samples.min()) and np.isfinite(self.samples.max())):
            raise AudioFormatError("audio_buffer", "audio buffer contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise AudioFormatError("audio_buffer", f"invalid sample rate {self.sample_rate_hz}")
        return self

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@checked
class SegmentSet(NamedTuple):
    """Sorted, non-overlapping speech intervals in seconds."""

    speech: tuple[tuple[float, float], ...]

    def _checked(self):
        prev_end = 0.0
        for start, end in self.speech:
            if start < prev_end - 1e-12 or end <= start:
                raise ValueError(f"segments not sorted/disjoint: {self.speech}")
            prev_end = end
        return self

    def sample_bounds(self, n_samples: int, sample_rate_hz: int) -> list[tuple[int, int]]:
        """Each interval as sample indices [a, b), rounded to the nearest
        sample and clipped to a buffer of n_samples."""
        return [(max(0, int(round(start * sample_rate_hz))),
                 min(n_samples, int(round(end * sample_rate_hz))))
                for start, end in self.speech]


@checked
class VadConfig(NamedTuple):
    """Energy VAD parameters (the config file's vad section); see
    detect_speech.  Its ranges are checked when made."""

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

    def _checked(self):
        check_ranges("vad", (
            ("noise_floor_percentile", self.noise_floor_percentile,
             0 <= self.noise_floor_percentile <= 100, "in [0, 100]"),
            ("bridge_gap_s", self.bridge_gap_s, self.bridge_gap_s >= 0, ">= 0"),
            ("min_segment_s", self.min_segment_s, self.min_segment_s >= 0, ">= 0"),
        ))
        return self


# ---------------------------------------------------------------------------
# WAV I/O (RIFF/WAVE, PCM 16-bit, mono)

_FORMAT_PCM = 1
_FORMAT_EXTENSIBLE = 0xFFFE
_FMT_EXTENSIBLE_LEN = 40
# The PCM subformat GUID 00000001-0000-0010-8000-00aa00389b71, in the
# byte order a fmt chunk stores it (uuid's bytes_le).
_SUBFORMAT_PCM = bytes.fromhex("0100000000001000800000aa00389b71")


def _read_wav_header(fh: BinaryIO, path: str | Path) -> tuple[int, int, int]:
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
        if fmt[24:40] != _SUBFORMAT_PCM:
            import uuid  # only this rejection names a GUID

            subformat = uuid.UUID(bytes_le=fmt[24:40])
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


def _unreadable(path: str | Path, exc: OSError) -> AudioFormatError:
    return AudioFormatError("read_wav", f"cannot read {path}: {exc.strerror}")


def read_wav_info(path: str | Path) -> tuple[int, int]:
    """Validate headers and return (sample_rate_hz, n_samples) without decoding."""
    try:
        with open(path, "rb", buffering=0) as fh:
            sample_rate, _offset, length = _read_wav_header(fh, path)
    except OSError as exc:
        raise _unreadable(path, exc) from None
    return sample_rate, length // 2


def _readinto_all(fh, buf: np.ndarray) -> int:
    """Fill buf from fh, read after read, until it is full or the file
    ends (a read of 0 bytes); return the bytes read.  One read of an
    unbuffered file may return fewer bytes than asked without being at
    its end."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < view.nbytes:
        n = fh.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a PCM-16 mono WAV file; samples are scaled by 1/32768.

    The samples are float32: each k/32768 for a 16-bit k is exact in it,
    so the recording takes half the bytes of float64 with the same values.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            sample_rate, offset, length = _read_wav_header(fh, path)
            if length == 0:
                raise AudioFormatError("read_wav", f"{path}: empty data chunk")
            fh.seek(offset)
            samples = np.empty(length // 2, dtype=np.float32)
            # the PCM is read _DECODE_CHUNK samples at a time into one
            # buffer, and 2**-15 is 1/32768 exactly
            pcm = np.empty(min(samples.size, _DECODE_CHUNK), dtype="<i2")
            for lo in range(0, samples.size, _DECODE_CHUNK):
                chunk = pcm[:min(_DECODE_CHUNK, samples.size - lo)]
                if _readinto_all(fh, chunk) != chunk.nbytes:
                    raise AudioFormatError("read_wav", f"{path}: truncated data chunk")
                np.multiply(chunk, 2.0 ** -15, out=samples[lo:lo + chunk.size])
    except OSError as exc:
        raise _unreadable(path, exc) from None
    return AudioBuffer(samples, sample_rate)


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

def frame_geometry(sample_rate_hz: int, frame_len_s: float, hop_s: float) -> tuple[int, int]:
    """(frame, hop) in samples: each length rounded to the nearest whole
    sample at sample_rate_hz, and each must come to at least one."""
    frame = int(round(frame_len_s * sample_rate_hz))
    hop = int(round(hop_s * sample_rate_hz))
    if frame < 1 or hop < 1:
        raise AudioFormatError(
            "frame_signal",
            f"frame {frame_len_s} s / hop {hop_s} s at {sample_rate_hz} Hz is "
            f"{frame} / {hop} samples; each must be at least 1",
        )
    return frame, hop


def frame_signal(samples: np.ndarray, sample_rate_hz: int,
                 frame_len_s: float = 0.025, hop_s: float = 0.010) -> np.ndarray:
    """Overlapping frames as a read-only (num, frame) view of samples.

    frame and hop come from frame_geometry.  num = 1 + floor((N - frame) /
    hop), or 0 for a signal shorter than one frame.  Row i is
    samples[i*hop : i*hop + frame]; nothing is copied.
    """
    frame, hop = frame_geometry(sample_rate_hz, frame_len_s, hop_s)
    if samples.size < frame:
        return np.empty((0, frame))
    return np.lib.stride_tricks.sliding_window_view(samples, frame)[::hop]


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def fft_real(x: np.ndarray, n: int) -> np.ndarray:
    """Forward DFT of a real vector zero-padded/truncated to length n.

    n must be a power of two >= 2 (kernels.rfft_pow2_batch checks it);
    returns the n//2 + 1 low-frequency bins where
    bin b = sum_t x[t] * exp(-2*pi*i*b*t/n).
    """
    x = np.asarray(x, dtype=np.float64)
    buf = np.zeros(n)
    m = min(n, x.size)
    buf[:m] = x[:m]
    return kernels.rfft_pow2_batch(buf[None, :])[0]


# ---------------------------------------------------------------------------
# Order statistics

def sorted_percentiles(s: np.ndarray, q) -> np.ndarray:
    """np.percentile(x, q, axis=-1) from s = np.sort(x, axis=-1).

    numpy's default "linear" rule (Hyndman & Fan type 7): the virtual index
    v = (n - 1) * q / 100 falls between lo = floor(v) and hi = min(lo + 1,
    n - 1).  With g = v - lo and d = s[hi] - s[lo] the percentile is
    s[lo] + d * g, or s[hi] - d * (1 - g) where g >= 0.5.  For finite s
    that is numpy's float, bit for bit, except that a zero may carry the
    other sign.  The result has q's axes, then s's leading axes.
    """
    n = s.shape[-1]
    v = (n - 1) * (np.asarray(q, dtype=np.float64) / 100)
    lo = np.floor(v)
    g = (v - lo).reshape(v.shape + (1,) * (s.ndim - 1))
    lo = lo.astype(np.intp)
    by_rank = np.moveaxis(s, -1, 0)
    a = by_rank[lo]
    b = by_rank[np.minimum(lo + 1, n - 1)]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


# ---------------------------------------------------------------------------
# Speech detection and SNR

def frame_energies_db(samples: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """Per-frame RMS energy in dB, floored at -120 dB, of the frames that
    frame_signal cuts at (frame, hop) samples.

    Each energy is 10*log10(mean(x**2) + 1e-12) of its frame x, bit for
    bit: the mean runs over the strided frames of the squared signal,
    taken _ENERGY_CHUNK frames at a time, so no frames x frame matrix and
    no squared copy of the whole signal is built.  Each chunk is squared
    as float64, whatever the samples' dtype.
    """
    num = 0 if samples.size < frame else 1 + (samples.size - frame) // hop
    mean_sq = np.empty(num)
    for lo in range(0, num, _ENERGY_CHUNK):
        hi = min(num, lo + _ENERGY_CHUNK)
        sq = np.square(samples[lo * hop:(hi - 1) * hop + frame], dtype=np.float64)
        np.mean(np.lib.stride_tricks.sliding_window_view(sq, frame)[::hop], axis=1,
                out=mean_sq[lo:hi])
        del sq
    return 10.0 * np.log10(mean_sq + _LOG_FLOOR)


def detect_speech(audio: AudioBuffer, config: VadConfig = VadConfig()) -> SegmentSet:
    """Energy-based speech/non-speech segmentation.

    A frame is speech when its energy exceeds the noise floor (the
    noise_floor_percentile of frame energies) by threshold_margin_db.
    Adjacent speech frames are merged, gaps shorter than bridge_gap_s are
    bridged, and segments shorter than min_segment_s are dropped.  Files
    with no energy dynamic range fall back to an absolute-floor decision
    (see VadConfig).  The dynamic range runs from the noise floor to the
    90th percentile; both follow numpy's "linear" percentile rule (see
    sorted_percentiles).  The fallback's median is numpy's: the mean of
    the two middle energies, or the middle one for an odd count.  Frame
    and hop are whole samples at the recording's rate (frame_geometry), and
    segment times are the bounds of the frames scored: a run of frames
    [i, j) spans i*hop/sr to (j-1)*hop/sr + frame/sr seconds.
    """
    sr = audio.sample_rate_hz
    frame, hop = frame_geometry(sr, config.frame_len_s, config.hop_s)
    energies = frame_energies_db(audio.samples, frame, hop)
    if energies.size == 0:
        return SegmentSet(())
    ranked = np.sort(energies)
    lo, hi = sorted_percentiles(ranked, (config.noise_floor_percentile, 90.0))
    if hi - lo < config.homogeneous_range_db:
        n = ranked.size
        median = (ranked[(n - 1) // 2] + ranked[n // 2]) / 2
        mask = np.full(n, median > config.homogeneous_speech_floor_db)
    else:
        mask = energies > lo + config.threshold_margin_db
    if not mask.any():
        return SegmentSet(())

    # speech runs are frames [i, j): the padded mask changes value at i and j
    bounds = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    starts = bounds[0::2] * (hop / sr)
    ends = (bounds[1::2] - 1) * (hop / sr) + frame / sr
    dur = audio.duration_s
    if mask[-1]:
        # the tail beyond the last full frame cannot be classified; it
        # inherits the final frame's label
        ends[-1] = dur
    # a run that starts under bridge_gap_s after the previous one ends joins it
    first = np.flatnonzero(np.append(True, starts[1:] - ends[:-1] >= config.bridge_gap_s))
    last = np.append(first[1:] - 1, ends.size - 1)
    starts, ends = starts[first], np.minimum(ends[last], dur)
    keep = ends - starts >= config.min_segment_s
    return SegmentSet(tuple(zip(starts[keep].tolist(), ends[keep].tolist())))


def _sum_squares(samples: np.ndarray, spans) -> tuple[float, int]:
    """(sum of x**2, count) over the samples of the [a, b) spans, each
    span taken as float64 (a copy only of a float32 span)."""
    total, count = 0.0, 0
    for a, b in spans:
        span = samples[a:b].astype(np.float64, copy=False)
        total += float(np.dot(span, span))
        count += b - a
    return total, count


def estimate_snr(audio: AudioBuffer, segments: SegmentSet) -> float:
    """10*log10 of speech power over non-speech power, capped at +/-120 dB.

    Powers are mean squared amplitudes over the samples inside vs outside
    the speech segments (their sample_bounds).  No speech -> -120; no (or
    silent) non-speech -> +120.  Each power is a sum of squares over the
    speech spans or the gaps between them, a dot product of each span
    with itself as float64, so at most one span is copied at a time.
    """
    x = audio.samples
    speech, noise, at = [], [], 0
    for a, b in segments.sample_bounds(x.size, audio.sample_rate_hz):
        a = max(a, at)  # spans that meet after rounding count each sample once
        if b > a:
            speech.append((a, b))
            noise.append((at, a))
            at = b
    noise.append((at, x.size))
    sq_speech, n_speech = _sum_squares(x, speech)
    if n_speech == 0:
        return -SNR_CAP_DB
    p_speech = sq_speech / n_speech
    if p_speech <= 0.0:
        return -SNR_CAP_DB
    sq_noise, n_noise = _sum_squares(x, noise)
    if n_noise == 0:
        return SNR_CAP_DB
    p_noise = sq_noise / n_noise
    if p_noise <= 0.0:
        return SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(p_speech / p_noise), -SNR_CAP_DB, SNR_CAP_DB))
