"""Frame-level acoustic descriptors and their functional summaries.

Low-level descriptors (LLDs) are computed over 25 ms frames with a 10 ms
hop, restricted to detected speech segments.  Functionals collapse each
LLD track into scalars, yielding two fixed-length feature sets:

* EgemapsLike88  -- an 88-entry manifest frozen in data/egemaps_like_88.json
* CompareLike    -- a config-derived LLD x functional grid, optionally
                    doubled with delta (frame-difference) tracks

The manifests are data files so the exact composition is auditable
without reading code.  Each set is a list of (LLD, functional) cells of
one table over one LLD matrix (vectors_from_llds), so a recording is
analysed once for however many sets are requested.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from importlib import resources
from typing import NamedTuple, Sequence

import numpy as np

from . import dsp, kernels
from .errors import FeatureError, check_ranges, checked
from .features import FeatureSetId, FeatureVector

N_MFCC = 13

LLD_NAMES = (
    "f0_hz",
    "voiced_flag",
    "rms_energy",
    "log_energy_db",
    "zcr",
    "jitter_local",
    "shimmer_local",
    "hnr_db",
    "spectral_centroid_hz",
    "spectral_flux",
    "spectral_slope_0_500",
    "spectral_slope_500_1500",
    "alpha_ratio_db",
    "hammarberg_index_db",
) + tuple(f"mfcc_{i}" for i in range(1, N_MFCC + 1))

FUNCTIONAL_NAMES = (
    "mean",
    "std",
    "percentile20",
    "percentile50",
    "percentile80",
    "range",
    "slope",
    "riseRate",
    "fallRate",
)

FEATURE_SETS = (FeatureSetId.EGEMAPS_LIKE_88, FeatureSetId.COMPARE_LIKE)

MANIFEST_VERSION = "1.0"
_EPS = 1e-12


@checked
class AcousticConfig(NamedTuple):
    """Frame analysis parameters (the config file's acoustic section).
    Its ranges are checked when made."""

    frame_len_s: float = 0.025
    hop_s: float = 0.010
    f0_min_hz: float = 55.0
    f0_max_hz: float = 600.0
    voicing_threshold: float = 0.45
    n_mel_filters: int = 26

    def _checked(self):
        check_ranges("acoustic", (
            ("f0_min_hz", self.f0_min_hz, self.f0_min_hz > 0, "> 0"),
            ("f0_max_hz", self.f0_max_hz, self.f0_max_hz > self.f0_min_hz,
             "> acoustic.f0_min_hz"),
            ("voicing_threshold", self.voicing_threshold,
             0 < self.voicing_threshold < 1, "in (0, 1)"),
            ("n_mel_filters", self.n_mel_filters, self.n_mel_filters >= 1, ">= 1"),
        ))
        return self


@checked
class LldMatrix(NamedTuple):
    """num_frames x len(LLD_NAMES) array of per-frame descriptors."""

    values: np.ndarray

    def _checked(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] != len(LLD_NAMES):
            raise FeatureError(
                "lld_matrix", f"expected (m, {len(LLD_NAMES)}) array, got {vals.shape}"
            )
        if vals.size and not (np.isfinite(vals.min()) and np.isfinite(vals.max())):
            raise FeatureError("lld_matrix", "non-finite LLD values")
        return self._replace(values=vals)

    @property
    def num_frames(self) -> int:
        return int(self.values.shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.values[:, LLD_NAMES.index(name)]


def _mel_filterbank(n_filters: int, nfft: int, sr: int) -> np.ndarray:
    """Triangular mel filters over rfft bins, (n_filters, nfft//2+1)."""
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    mel_inv = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    edges = mel_inv(np.linspace(mel(0.0), mel(sr / 2.0), n_filters + 2))
    freqs = np.arange(nfft // 2 + 1) * (sr / nfft)
    fb = np.zeros((n_filters, freqs.size))
    for i in range(n_filters):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (freqs - lo) / max(mid - lo, _EPS)
        down = (hi - freqs) / max(hi - mid, _EPS)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def _dct_rows(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II basis rows 1..n_out (row 0 dropped)."""
    t = np.arange(n_in)
    k = np.arange(n_out + 1)[:, None]
    basis = np.cos(np.pi * (t + 0.5) * k / n_in)
    basis[0] *= np.sqrt(1.0 / n_in)
    basis[1:] *= np.sqrt(2.0 / n_in)
    return basis[1:]


class AnalysisPlan(NamedTuple):
    """The rate- and config-derived constants of the frame analysis: pitch
    lags, FFT size, window, bin frequencies, the dB span (bins < 1500 Hz),
    each band's bins, and the mel filterbank and DCT rows, transposed."""

    sr: int
    cfg: AcousticConfig
    min_lag: int
    max_lag: int
    nfft: int
    window: np.ndarray
    freqs: np.ndarray
    low: int
    slope_lo: np.ndarray
    slope_hi: np.ndarray
    alpha_lo: np.ndarray
    alpha_hi: np.ndarray
    ham_lo: np.ndarray
    ham_hi: np.ndarray
    mel: np.ndarray
    dct: np.ndarray


@lru_cache(maxsize=16)
def analysis_plan(sr: int, cfg: AcousticConfig) -> AnalysisPlan:
    """The read-only frame analysis plan at sr Hz, built once per (sr, cfg).

    The pitch search covers whole periods of max(2, ceil(sr / f0_max_hz))
    to floor(sr / f0_min_hz) samples; no such period is an error, and so
    is a frame too short for the floor's period plus two lags; frame and
    hop samples come from dsp.frame_geometry, which checks them first.
    Bands are index arrays: a slice would sum to other bits than a mask."""
    n, _hop = dsp.frame_geometry(sr, cfg.frame_len_s, cfg.hop_s)
    min_lag, max_lag = max(2, int(np.ceil(sr / cfg.f0_max_hz))), int(np.floor(sr / cfg.f0_min_hz))
    if max_lag < min_lag:
        raise FeatureError("extract_llds", f"the [{cfg.f0_min_hz}, {cfg.f0_max_hz}] Hz pitch "
                           f"range holds no whole-sample period at {sr} Hz")
    if max_lag > n - 2:
        raise FeatureError("extract_llds", f"a {cfg.frame_len_s} s frame at {sr} Hz is {n} "
                           f"samples, too short for the {cfg.f0_min_hz} Hz pitch floor's "
                           f"period of {max_lag} samples plus 2")
    nfft = dsp.next_pow2(n)
    freqs = np.arange(nfft // 2 + 1) * (sr / nfft)
    band = lambda lo, hi: np.flatnonzero((freqs >= lo) & (freqs < min(hi, sr / 2.0)))
    arrays = dict(window=np.hamming(n), freqs=freqs,
                  slope_lo=band(0.0, 500.0), slope_hi=band(500.0, 1500.0),
                  alpha_lo=band(50.0, 1000.0), alpha_hi=band(1000.0, 5000.0),
                  ham_lo=band(0.0, 2000.0), ham_hi=band(2000.0, 5000.0),
                  mel=_mel_filterbank(cfg.n_mel_filters, nfft, sr).T,
                  dct=_dct_rows(N_MFCC, cfg.n_mel_filters).T)
    for a in arrays.values():
        a.flags.writeable = False
    return AnalysisPlan(sr, cfg, min_lag, max_lag, nfft,
                        low=int(np.count_nonzero(freqs < 1500.0)), **arrays)


def _band_slope(db_spec: np.ndarray, freqs: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Per-frame OLS slope of the dB spectrum over the given bins."""
    if bins.size < 2:
        return np.zeros(db_spec.shape[0])
    fc = freqs[bins] - freqs[bins].mean()
    return (db_spec[:, bins] @ fc) / np.sum(fc * fc)


def _pick_lags(r: np.ndarray, min_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Choose one autocorrelation lag per frame, resisting octave errors.

    Among local maxima whose value reaches 90% of the frame's peak, the
    smallest lag wins (period multiples of a truly periodic signal all
    score ~1.0, and the naive argmax lands on a multiple).  Returns
    (refined fractional lags, peak correlation values).
    """
    m, n_lags = r.shape
    best = np.argmax(r, axis=1)
    if n_lags >= 3:
        # local maxima are interior lags: column j of mid is lag j + 1
        mid = r[:, 1:-1]
        good = (mid >= r[:, :-2]) & (mid >= r[:, 2:]) & (mid >= 0.9 * r.max(axis=1)[:, None])
        best = np.where(good.any(axis=1), np.argmax(good, axis=1) + 1, best)

    # parabolic refinement around the chosen sample
    lag = best.astype(np.float64)
    inner = (best > 0) & (best < n_lags - 1)
    idx = np.nonzero(inner)[0]
    if idx.size:
        l = r[idx, best[idx] - 1]
        c = r[idx, best[idx]]
        rr = r[idx, best[idx] + 1]
        denom = l - 2.0 * c + rr
        shift = np.where(np.abs(denom) > _EPS, 0.5 * (l - rr) / np.where(denom == 0, 1.0, denom), 0.0)
        lag[idx] += np.clip(shift, -0.5, 0.5)
    r_at = r[np.arange(m), best]
    return lag + min_lag, r_at


def _pair_rel_diff(x: np.ndarray, valid_pair: np.ndarray, out: np.ndarray) -> None:
    """out[t] = |x[t]-x[t-1]| / mean(x[t],x[t-1]) per consecutive valid
    pair, else 0; out[0] = 0."""
    out[0] = 0.0
    avg = 0.5 * (x[1:] + x[:-1])
    rel = np.abs(np.diff(x)) / np.where(avg > _EPS, avg, 1.0)
    out[1:] = np.where(valid_pair & (avg > _EPS), rel, 0.0)


_COLUMN = {name: j for j, name in enumerate(LLD_NAMES)}
_PAIRWISE = [_COLUMN[name] for name in ("jitter_local", "shimmer_local", "spectral_flux")]

# Speech frames per _llds_for_frames call, past one overlap row.  On a
# 2-CPU VM a call had a fixed cost of about 170 us, and past about 512
# frames the cost per frame doubled
_BLOCK_FRAMES = 256
# Rows per tile of a block's autocorrelation, lag choice and spectrum:
# bounds their buffers beside the block's per-frame arrays.
_TILE = 64


def _llds_for_frames(frames: np.ndarray, plan: AnalysisPlan) -> np.ndarray:
    """The (m, len(LLD_NAMES)) LLDs of m >= 1 frames, each pairwise
    descriptor taken against the row before it (0 at row 0)."""
    m, n = frames.shape
    sr, cfg = plan.sr, plan.cfg
    out = np.empty((m, len(LLD_NAMES)))
    col = lambda name: out[:, _COLUMN[name]]

    mean_sq = np.mean(frames * frames, axis=1)
    rms = col("rms_energy")
    np.sqrt(mean_sq, out=rms)
    col("log_energy_db")[:] = 10.0 * np.log10(mean_sq + _EPS)
    col("zcr")[:] = np.count_nonzero(frames[:, 1:] * frames[:, :-1] < 0.0, axis=1) / (n - 1)

    # pitch and periodicity, _TILE rows at a time: each row's lags and
    # choice are the same in any batch
    lags, r_best = np.empty(m), np.empty(m)
    for lo in range(0, m, _TILE):
        r = kernels.autocorr_norm_batch(frames[lo:lo + _TILE], plan.min_lag, plan.max_lag)
        lags[lo:lo + _TILE], r_best[lo:lo + _TILE] = _pick_lags(r, plan.min_lag)
    del r
    voiced = r_best >= cfg.voicing_threshold
    col("f0_hz")[:] = np.clip(np.where(voiced, sr / lags, 0.0), 0.0, cfg.f0_max_hz)
    col("voiced_flag")[:] = voiced
    r_clip = np.clip(r_best, 1e-6, 1.0 - 1e-6)
    col("hnr_db")[:] = 10.0 * np.log10(r_clip / (1.0 - r_clip))

    pair = voiced[1:] & voiced[:-1]
    _pair_rel_diff(np.where(voiced, lags / sr, 0.0), pair, col("jitter_local"))
    _pair_rel_diff(rms, pair, col("shimmer_local"))

    # spectral shape: the magnitude spectrum of the windowed frames,
    # zero-padded to nfft, taken _TILE rows at a time through one padded
    # buffer.  Each row's transform is the same in any batch, and every
    # product below still runs over the whole block, so it rounds as one
    # block does.  It runs after the lag search, whose buffers thus never
    # sit beside the magnitudes
    mag = np.empty((m, plan.nfft // 2 + 1))
    padded = np.zeros((min(m, _TILE), plan.nfft))
    for lo in range(0, m, _TILE):
        tile = padded[:min(_TILE, m - lo)]
        np.multiply(frames[lo:lo + tile.shape[0]], plan.window, out=tile[:, :n])
        np.abs(kernels.rfft_pow2_batch(tile), out=mag[lo:lo + tile.shape[0]])
    del padded, tile

    col("spectral_centroid_hz")[:] = (mag @ plan.freqs) / (mag.sum(axis=1) + _EPS)
    # the band slopes are the only readers of the dB spectrum
    db_spec = 20.0 * np.log10(mag[:, :plan.low] + _EPS)
    col("spectral_slope_0_500")[:] = _band_slope(db_spec, plan.freqs, plan.slope_lo)
    col("spectral_slope_500_1500")[:] = _band_slope(db_spec, plan.freqs, plan.slope_hi)
    del db_spec

    # each band squares its own bins before the power spectrum is built, so
    # no band's copy sits beside the two whole spectra
    alpha_lo = np.square(mag[:, plan.alpha_lo]).sum(axis=1)
    alpha_hi = np.square(mag[:, plan.alpha_hi]).sum(axis=1)
    col("alpha_ratio_db")[:] = 10.0 * np.log10((alpha_lo + _EPS) / (alpha_hi + _EPS))
    ham_lo = np.square(mag[:, plan.ham_lo]).max(axis=1) if plan.ham_lo.size else np.zeros(m)
    ham_hi = np.square(mag[:, plan.ham_hi]).max(axis=1) if plan.ham_hi.size else np.zeros(m)
    col("hammarberg_index_db")[:] = 10.0 * np.log10((ham_lo + _EPS) / (ham_hi + _EPS))
    power = mag * mag
    out[:, _COLUMN["mfcc_1"]:] = np.log(power @ plan.mel + _EPS) @ plan.dct
    # each norm is np.linalg.norm's: sqrt(add.reduce(x * x))
    norm = np.sqrt(np.add.reduce(power, axis=1))
    del power

    # the flux is the step between consecutive unit-norm spectra, both
    # normalised and squared in place
    mag /= norm[:, None] + _EPS
    flux = col("spectral_flux")
    flux[0] = 0.0
    step = np.diff(mag, axis=0)
    del mag
    np.sqrt(np.add.reduce(np.square(step, out=step), axis=1), out=flux[1:])
    return out


def extract_llds(
    audio: dsp.AudioBuffer,
    segments: dsp.SegmentSet,
    config: AcousticConfig = AcousticConfig(),
) -> LldMatrix:
    """Compute per-frame LLDs over the speech segments only.

    Frames never straddle a segment boundary; pairwise descriptors
    (jitter, shimmer, flux) reset at each segment start.  The speech
    frames, in order across segments, are analysed _BLOCK_FRAMES at a
    time; a block after the first is led by the frame before it, as an
    extra row whose output is dropped, so no call holds more than
    _BLOCK_FRAMES + 1 frames.  Each row thus equals its segment's own
    analysis up to the rounding of the block's matrix products.  No
    speech segments (or segments too short for one frame) yield an empty
    matrix.  The rate's analysis_plan comes first, so a config that breaks
    its pitch rules is an error whatever the speech.
    """
    plan = analysis_plan(audio.sample_rate_hz, config)
    sr, cfg = plan.sr, plan.cfg
    segs = []
    for lo, hi in segments.sample_bounds(audio.samples.size, sr):
        frames = dsp.frame_signal(audio.samples[lo:hi], sr, cfg.frame_len_s, cfg.hop_s)
        if frames.shape[0]:
            segs.append(frames)
    if not segs:
        return LldMatrix(np.zeros((0, len(LLD_NAMES))))
    starts = np.cumsum([0] + [frames.shape[0] for frames in segs])
    values = np.empty((starts[-1], len(LLD_NAMES)))
    for at in range(0, starts[-1], _BLOCK_FRAMES):
        lo, hi = max(at - 1, 0), min(at + _BLOCK_FRAMES, starts[-1])
        # the segments holding the block's first and last rows
        first, last = np.searchsorted(starts, (lo, hi - 1), side="right") - 1
        parts = [segs[k][max(lo - starts[k], 0):hi - starts[k]] for k in range(first, last + 1)]
        # the one place frames become float64: a copy of the block's frames
        # (none for a one-segment block of float64 samples)
        block = (np.concatenate(parts, dtype=np.float64) if len(parts) > 1
                 else parts[0].astype(np.float64, copy=False))
        values[at:hi] = _llds_for_frames(block, plan)[at - lo:]
    values[starts[:-1, None], _PAIRWISE] = 0.0  # each segment's first row
    return LldMatrix(values)


def functional_table(values: np.ndarray, delta: bool = False) -> np.ndarray:
    """Every functional of every column, (n_columns, len(FUNCTIONAL_NAMES)).

    Row j summarizes column j of a non-empty frames x columns array, in
    FUNCTIONAL_NAMES order; with delta, it summarizes the column's first
    differences instead (one zero with fewer than two frames).  The
    percentiles follow numpy's "linear" rule and, with range, are read off
    one sort of each column (dsp.sorted_percentiles).  riseRate/fallRate
    are the mean positive / mean negative frame-to-frame step (0 if no
    such step); slope is per frame-step (0 for a single frame).
    """
    x = np.ascontiguousarray(np.asarray(values, dtype=np.float64).T)
    if delta:
        x = np.diff(x, axis=1) if x.shape[1] >= 2 else np.zeros((x.shape[0], 1))
    mean = x.mean(axis=1)
    table = np.empty((x.shape[0], len(FUNCTIONAL_NAMES)))
    table[:, 0] = mean
    table[:, 1] = x.std(axis=1)
    ranked = np.sort(x, axis=1)
    table[:, 2:5] = dsp.sorted_percentiles(ranked, (20, 50, 80)).T
    table[:, 5] = ranked[:, -1] - ranked[:, 0]
    del ranked
    if x.shape[1] >= 2:
        tc = np.arange(x.shape[1], dtype=np.float64)
        tc -= tc.mean()
        xc = x - mean[:, None]
        xc *= tc
        table[:, 6] = np.sum(xc, axis=1) / np.sum(tc * tc)
        del xc
    else:
        table[:, 6] = 0.0
    d = np.diff(x, axis=1)
    rise, fall = d > 0, d < 0
    table[:, 7] = np.where(rise, d, 0.0).sum(axis=1) / np.maximum(rise.sum(axis=1), 1)
    np.negative(d, out=d)
    table[:, 8] = np.where(fall, d, 0.0).sum(axis=1) / np.maximum(fall.sum(axis=1), 1)
    return table


def _load_data_json(filename: str) -> dict:
    with resources.files("cognopipe.data").joinpath(filename).open("r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=1)
def egemaps_manifest() -> tuple[dict, ...]:
    """The frozen 88-entry (lld, functional) manifest."""
    doc = _load_data_json("egemaps_like_88.json")
    entries = tuple(doc["entries"])
    if len(entries) != 88:
        raise FeatureError("egemaps_like", f"manifest has {len(entries)} entries, expected 88")
    for e in entries:
        if e["lld"] not in LLD_NAMES or e["functional"] not in FUNCTIONAL_NAMES:
            raise FeatureError("egemaps_like", f"bad manifest entry {e}")
    return entries


@checked
class CompareGrid(NamedTuple):
    """LLD x functional grid spec for the extended feature set."""

    llds: tuple[str, ...]
    functionals: tuple[str, ...]
    deltas: bool

    def _checked(self):
        if not self.llds or not self.functionals:
            raise FeatureError("compare_like", "empty LLD or functional list")
        for name in self.llds:
            if name not in LLD_NAMES:
                raise FeatureError("compare_like", f"unknown LLD '{name}'")
        for name in self.functionals:
            if name not in FUNCTIONAL_NAMES:
                raise FeatureError("compare_like", f"unknown functional '{name}'")
        return self


@lru_cache(maxsize=1)
def default_compare_grid() -> CompareGrid:
    doc = _load_data_json("compare_like_default.json")
    return CompareGrid(tuple(doc["llds"]), tuple(doc["functionals"]), bool(doc["deltas"]))


@lru_cache(maxsize=None)
def _cells(fsid: FeatureSetId) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of an acoustic set's cells, in vector order, in the
    functional table of the LLDs stacked over that of their deltas."""
    if fsid is FeatureSetId.EGEMAPS_LIKE_88:
        cells = [(0, e["lld"], e["functional"]) for e in egemaps_manifest()]
    elif fsid is FeatureSetId.COMPARE_LIKE:
        g = default_compare_grid()
        cells = [(block, lld, fn) for block in range(1 + g.deltas)
                 for lld in g.llds for fn in g.functionals]
    else:
        raise FeatureError("vectors_from_llds", f"{fsid.value} is not an acoustic set")
    rows = np.array([block * len(LLD_NAMES) + LLD_NAMES.index(lld) for block, lld, _ in cells])
    cols = np.array([FUNCTIONAL_NAMES.index(fn) for _, _, fn in cells])
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def vectors_from_llds(
    llds: LldMatrix, feature_sets: Sequence[FeatureSetId]
) -> tuple[FeatureVector, ...]:
    """The vector of each requested acoustic set, in the order given.

    Every set reads its cells off one table: the functionals of the LLDs,
    stacked over those of their deltas (first differences, zero with
    fewer than two frames) when some requested set reads a delta row.
    An empty matrix (no speech) gives every set an all-zero vector
    flagged empty_speech.
    """
    cells = [_cells(fsid) for fsid in feature_sets]
    empty = llds.num_frames == 0
    if not empty:
        table = functional_table(llds.values)
        if any(rows.max() >= len(LLD_NAMES) for rows, _ in cells):
            table = np.vstack([table, functional_table(llds.values, delta=True)])
    return tuple(FeatureVector(fsid, np.zeros(rows.size) if empty else table[rows, cols],
                               empty_speech=empty)
                 for fsid, (rows, cols) in zip(feature_sets, cells))


def egemaps_like(
    audio: dsp.AudioBuffer,
    segments: dsp.SegmentSet,
    config: AcousticConfig = AcousticConfig(),
) -> FeatureVector:
    """The 88-dimension manifest-defined feature vector."""
    llds = extract_llds(audio, segments, config)
    return vectors_from_llds(llds, (FeatureSetId.EGEMAPS_LIKE_88,))[0]


def compare_like(
    audio: dsp.AudioBuffer,
    segments: dsp.SegmentSet,
    config: AcousticConfig = AcousticConfig(),
) -> FeatureVector:
    """Config-derived grid vector: plain block, then delta block.

    Delta tracks are first differences of each LLD column; with fewer
    than two frames the delta block is zero.
    """
    llds = extract_llds(audio, segments, config)
    return vectors_from_llds(llds, (FeatureSetId.COMPARE_LIKE,))[0]


def write_feature_matrix(path, rows, feature_set_id: FeatureSetId, dim: int) -> None:
    """Persist extracted vectors as CSV with an identity header.

    rows: iterable of (subject_id, task_value, FeatureVector).
    Layout: three key,value metadata lines (feature_set_id, version,
    dim), then a column-header line, then one line per recording.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["feature_set_id", feature_set_id.value])
        w.writerow(["version", MANIFEST_VERSION])
        w.writerow(["dim", dim])
        w.writerow(["subject_id", "task", "empty_speech"] + [f"v{i}" for i in range(dim)])
        for subject_id, task_value, vec in rows:
            if vec.dim != dim:
                raise FeatureError(
                    "write_feature_matrix",
                    f"vector dim {vec.dim} != contracted dim {dim} for {subject_id}",
                )
            w.writerow(
                [subject_id, task_value, int(vec.empty_speech)]
                + [repr(float(v)) for v in vec.values]
            )
