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
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dsp, kernels
from .errors import FeatureError
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


@dataclass(frozen=True)
class AcousticConfig:
    frame_len_s: float = 0.025
    hop_s: float = 0.010
    f0_min_hz: float = 55.0
    f0_max_hz: float = 600.0
    voicing_threshold: float = 0.45
    n_mel_filters: int = 26


@dataclass(frozen=True, eq=False)
class LldMatrix:
    """num_frames x len(LLD_NAMES) array of per-frame descriptors."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] != len(LLD_NAMES):
            raise FeatureError(
                "lld_matrix", f"expected (m, {len(LLD_NAMES)}) array, got {vals.shape}"
            )
        if vals.size and not np.all(np.isfinite(vals)):
            raise FeatureError("lld_matrix", "non-finite LLD values")
        object.__setattr__(self, "values", vals)

    @property
    def num_frames(self) -> int:
        return int(self.values.shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.values[:, LLD_NAMES.index(name)]


@lru_cache(maxsize=8)
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


@lru_cache(maxsize=8)
def _dct_rows(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II basis rows 1..n_out (row 0 dropped)."""
    t = np.arange(n_in)
    k = np.arange(n_out + 1)[:, None]
    basis = np.cos(np.pi * (t + 0.5) * k / n_in)
    basis[0] *= np.sqrt(1.0 / n_in)
    basis[1:] *= np.sqrt(2.0 / n_in)
    return basis[1:]


@lru_cache(maxsize=8)
def _hamming(n: int) -> np.ndarray:
    """Read-only Hamming window of n samples."""
    win = np.hamming(n)
    win.flags.writeable = False
    return win


def _band_slope(db_spec: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-frame OLS slope of the dB spectrum over [lo, hi) Hz."""
    mask = (freqs >= lo) & (freqs < hi)
    if mask.sum() < 2:
        return np.zeros(db_spec.shape[0])
    f = freqs[mask]
    y = db_spec[:, mask]
    fc = f - f.mean()
    denom = np.sum(fc * fc)
    return (y @ fc) / denom


def _band_power(power: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    mask = (freqs >= lo) & (freqs < hi)
    return power[:, mask].sum(axis=1)


def _pick_lags(r: np.ndarray, min_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Choose one autocorrelation lag per frame, resisting octave errors.

    Among local maxima whose value reaches 90% of the frame's peak, the
    smallest lag wins (period multiples of a truly periodic signal all
    score ~1.0, and the naive argmax lands on a multiple).  Returns
    (refined fractional lags, peak correlation values).
    """
    m, n_lags = r.shape
    peak = r.max(axis=1)
    interior = np.zeros_like(r, dtype=bool)
    if n_lags >= 3:
        interior[:, 1:-1] = (r[:, 1:-1] >= r[:, :-2]) & (r[:, 1:-1] >= r[:, 2:])
    good = interior & (r >= 0.9 * peak[:, None])
    has_good = good.any(axis=1)
    first_good = np.argmax(good, axis=1)
    best = np.where(has_good, first_good, np.argmax(r, axis=1))

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


def _pair_rel_diff(x: np.ndarray, valid_pair: np.ndarray) -> np.ndarray:
    """|x[t]-x[t-1]| / mean(x[t],x[t-1]) per consecutive valid pair, else 0."""
    out = np.zeros(x.size)
    if x.size < 2:
        return out
    avg = 0.5 * (x[1:] + x[:-1])
    rel = np.abs(np.diff(x)) / np.where(avg > _EPS, avg, 1.0)
    out[1:] = np.where(valid_pair & (avg > _EPS), rel, 0.0)
    return out


def _lag_range(sr: int, cfg: AcousticConfig) -> tuple[int, int]:
    """The shortest and longest pitch period searched, in samples (the
    ceiling's and the floor's)."""
    return max(2, int(np.ceil(sr / cfg.f0_max_hz))), int(np.floor(sr / cfg.f0_min_hz))


def _llds_for_frames(frames: np.ndarray, sr: int, cfg: AcousticConfig) -> np.ndarray:
    m, n = frames.shape
    cols: dict[str, np.ndarray] = {}

    mean_sq = np.mean(frames * frames, axis=1)
    cols["rms_energy"] = np.sqrt(mean_sq)
    cols["log_energy_db"] = 10.0 * np.log10(mean_sq + _EPS)
    cols["zcr"] = np.mean(frames[:, 1:] * frames[:, :-1] < 0.0, axis=1)

    # pitch and periodicity
    min_lag, max_lag = _lag_range(sr, cfg)
    r = kernels.autocorr_norm_batch(frames, min_lag, max_lag)
    lags, r_best = _pick_lags(r, min_lag)
    voiced = r_best >= cfg.voicing_threshold
    f0 = np.where(voiced, sr / lags, 0.0)
    f0 = np.clip(f0, 0.0, cfg.f0_max_hz)
    cols["f0_hz"] = f0
    cols["voiced_flag"] = voiced.astype(np.float64)
    r_clip = np.clip(r_best, 1e-6, 1.0 - 1e-6)
    cols["hnr_db"] = 10.0 * np.log10(r_clip / (1.0 - r_clip))

    pair = voiced[1:] & voiced[:-1] if m >= 2 else np.zeros(0, dtype=bool)
    periods = np.where(voiced, lags / sr, 0.0)
    cols["jitter_local"] = _pair_rel_diff(periods, pair)
    cols["shimmer_local"] = _pair_rel_diff(cols["rms_energy"], pair)

    # spectral shape
    nfft = dsp.next_pow2(n)
    spec = kernels.rfft_pow2_batch(
        np.pad(frames * _hamming(n), ((0, 0), (0, nfft - n)))
    )
    mag = np.abs(spec)
    power = mag * mag
    freqs = np.arange(mag.shape[1]) * (sr / nfft)

    cols["spectral_centroid_hz"] = (mag @ freqs) / (mag.sum(axis=1) + _EPS)
    norm = mag / (np.linalg.norm(mag, axis=1, keepdims=True) + _EPS)
    flux = np.zeros(m)
    if m >= 2:
        flux[1:] = np.linalg.norm(np.diff(norm, axis=0), axis=1)
    cols["spectral_flux"] = flux

    # the band slopes are the only readers of the dB spectrum
    low = int(np.count_nonzero(freqs < 1500.0))
    db_spec = 20.0 * np.log10(mag[:, :low] + _EPS)
    cols["spectral_slope_0_500"] = _band_slope(db_spec, freqs[:low], 0.0, 500.0)
    cols["spectral_slope_500_1500"] = _band_slope(db_spec, freqs[:low], 500.0, 1500.0)

    hi_edge = min(5000.0, sr / 2.0)
    alpha_lo = _band_power(power, freqs, 50.0, 1000.0)
    alpha_hi = _band_power(power, freqs, 1000.0, hi_edge)
    cols["alpha_ratio_db"] = 10.0 * np.log10((alpha_lo + _EPS) / (alpha_hi + _EPS))
    ham_mask_lo = (freqs >= 0.0) & (freqs < 2000.0)
    ham_mask_hi = (freqs >= 2000.0) & (freqs < hi_edge)
    ham_lo = power[:, ham_mask_lo].max(axis=1) if ham_mask_lo.any() else np.zeros(m)
    ham_hi = power[:, ham_mask_hi].max(axis=1) if ham_mask_hi.any() else np.zeros(m)
    cols["hammarberg_index_db"] = 10.0 * np.log10((ham_lo + _EPS) / (ham_hi + _EPS))

    fb = _mel_filterbank(cfg.n_mel_filters, nfft, sr)
    log_mel = np.log(power @ fb.T + _EPS)
    mfcc = log_mel @ _dct_rows(N_MFCC, cfg.n_mel_filters).T
    for i in range(N_MFCC):
        cols[f"mfcc_{i + 1}"] = mfcc[:, i]

    return np.column_stack([cols[name] for name in LLD_NAMES])


def extract_llds(
    audio: dsp.AudioBuffer,
    segments: dsp.SegmentSet,
    config: AcousticConfig | None = None,
) -> LldMatrix:
    """Compute per-frame LLDs over the speech segments only.

    Frames never straddle a segment boundary; pairwise descriptors
    (jitter, shimmer, flux) reset at each segment start.  No speech
    segments (or segments too short for one frame) yield an empty
    matrix.  A pitch range that holds no whole-sample period is an
    error, and so is a frame too short to hold the pitch floor's period
    and the two lags past it: the search would stop above the floor.
    """
    cfg = config or AcousticConfig()
    sr = audio.sample_rate_hz
    n = int(round(cfg.frame_len_s * sr))
    min_lag, max_lag = _lag_range(sr, cfg)
    if max_lag < min_lag:
        raise FeatureError(
            "extract_llds",
            f"the [{cfg.f0_min_hz}, {cfg.f0_max_hz}] Hz pitch range holds no whole-sample "
            f"period at {sr} Hz",
        )
    if max_lag > n - 2:
        raise FeatureError(
            "extract_llds",
            f"a {cfg.frame_len_s} s frame at {sr} Hz is {n} samples, too short for "
            f"the {cfg.f0_min_hz} Hz pitch floor's period of {max_lag} samples plus 2",
        )
    blocks = []
    for start_s, end_s in segments.speech:
        lo = int(round(start_s * sr))
        hi = int(round(end_s * sr))
        frames = dsp.frame_signal(audio.samples[lo:hi], sr, cfg.frame_len_s, cfg.hop_s)
        if frames.shape[0]:
            blocks.append(_llds_for_frames(frames, sr, cfg))
    return LldMatrix(np.vstack(blocks) if blocks else np.zeros((0, len(LLD_NAMES))))


def functional_table(values: np.ndarray) -> np.ndarray:
    """Every functional of every column, (n_columns, len(FUNCTIONAL_NAMES)).

    Row j summarizes column j of a non-empty frames x columns array, in
    FUNCTIONAL_NAMES order.  The percentiles follow numpy's "linear" rule
    and, with range, are read off one sort of each column
    (dsp.sorted_percentiles).  riseRate/fallRate are the mean positive /
    mean negative frame-to-frame step (0 if no such step); slope is per
    frame-step (0 for a single frame).
    """
    x = np.ascontiguousarray(np.asarray(values, dtype=np.float64).T)
    mean = x.mean(axis=1)
    table = np.empty((x.shape[0], len(FUNCTIONAL_NAMES)))
    table[:, 0] = mean
    table[:, 1] = x.std(axis=1)
    ranked = np.sort(x, axis=1)
    table[:, 2:5] = dsp.sorted_percentiles(ranked, (20, 50, 80)).T
    table[:, 5] = ranked[:, -1] - ranked[:, 0]
    if x.shape[1] >= 2:
        tc = np.arange(x.shape[1], dtype=np.float64)
        tc -= tc.mean()
        table[:, 6] = np.sum(tc * (x - mean[:, None]), axis=1) / np.sum(tc * tc)
    else:
        table[:, 6] = 0.0
    d = np.diff(x, axis=1)
    rise, fall = d > 0, d < 0
    table[:, 7] = np.where(rise, d, 0.0).sum(axis=1) / np.maximum(rise.sum(axis=1), 1)
    table[:, 8] = np.where(fall, -d, 0.0).sum(axis=1) / np.maximum(fall.sum(axis=1), 1)
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


@dataclass(frozen=True)
class CompareGrid:
    """LLD x functional grid spec for the extended feature set."""

    llds: tuple[str, ...]
    functionals: tuple[str, ...]
    deltas: bool

    def __post_init__(self):
        if not self.llds or not self.functionals:
            raise FeatureError("compare_like", "empty LLD or functional list")
        for name in self.llds:
            if name not in LLD_NAMES:
                raise FeatureError("compare_like", f"unknown LLD '{name}'")
        for name in self.functionals:
            if name not in FUNCTIONAL_NAMES:
                raise FeatureError("compare_like", f"unknown functional '{name}'")


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
            deltas = (np.diff(llds.values, axis=0) if llds.num_frames >= 2
                      else np.zeros((1, len(LLD_NAMES))))
            table = np.vstack([table, functional_table(deltas)])
    return tuple(FeatureVector(fsid, np.zeros(rows.size) if empty else table[rows, cols],
                               empty_speech=empty)
                 for fsid, (rows, cols) in zip(feature_sets, cells))


def egemaps_like(
    audio: dsp.AudioBuffer,
    segments: dsp.SegmentSet,
    config: AcousticConfig | None = None,
) -> FeatureVector:
    """The 88-dimension manifest-defined feature vector."""
    llds = extract_llds(audio, segments, config)
    return vectors_from_llds(llds, (FeatureSetId.EGEMAPS_LIKE_88,))[0]


def compare_like(
    audio: dsp.AudioBuffer,
    segments: dsp.SegmentSet,
    config: AcousticConfig | None = None,
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
