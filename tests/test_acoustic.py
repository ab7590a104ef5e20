"""Low-level descriptors, functionals, and the two acoustic feature sets."""

import csv
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cognopipe import acoustic, dsp
from cognopipe.acoustic import FUNCTIONAL_NAMES, LLD_NAMES, AcousticConfig, LldMatrix
from cognopipe.errors import FeatureError
from cognopipe.features import FeatureSetId

from conftest import SR, glide, sawtooth, tone


def full_span(audio):
    return dsp.SegmentSet(((0.0, audio.duration_s),))


# ---------------------------------------------------------------------------
# functional oracle (independent recomputation)

def naive_functional(x, name):
    if name == "mean":
        return np.mean(x)
    if name == "std":
        return np.std(x)
    if name.startswith("percentile"):
        return np.percentile(x, int(name[len("percentile"):]))
    if name == "range":
        return np.max(x) - np.min(x)
    if name == "slope":
        if x.size < 2:
            return 0.0
        return np.polyfit(np.arange(x.size), x, 1)[0]
    d = np.diff(x)
    if name == "riseRate":
        pos = d[d > 0]
        return pos.mean() if pos.size else 0.0
    if name == "fallRate":
        neg = d[d < 0]
        return (-neg).mean() if neg.size else 0.0
    raise AssertionError(name)


def test_functionals_match_naive_oracle():
    rng = np.random.default_rng(0)
    mat = LldMatrix(rng.standard_normal((40, len(LLD_NAMES))))
    table = acoustic.functional_table(mat.values)
    assert table.shape == (len(LLD_NAMES), len(FUNCTIONAL_NAMES))
    for i, lld in enumerate(LLD_NAMES):
        for j, fn in enumerate(FUNCTIONAL_NAMES):
            want = naive_functional(mat.values[:, i], fn)
            assert abs(table[i, j] - want) < 1e-12, (lld, fn)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lld_matrix_rejects_each_non_finite_value(bad):
    values = np.zeros((30, len(LLD_NAMES)))
    values[17, 5] = bad
    with pytest.raises(FeatureError) as err:
        LldMatrix(values)
    assert str(err.value) == "acoustic.lld_matrix: non-finite LLD values"


ORDER_STATISTICS = [FUNCTIONAL_NAMES.index(fn)
                    for fn in ("percentile20", "percentile50", "percentile80", "range")]


def order_statistics_oracle(values):
    """percentile20/50/80 and range of each column by np.percentile, np.max, np.min."""
    return np.array([[*np.percentile(col, (20, 50, 80)), np.max(col) - np.min(col)]
                     for col in values.T])


@pytest.mark.parametrize("frames", [1, 2, 3, 40, 301])
def test_order_statistic_functionals_equal_numpy(frames):
    rng = np.random.default_rng(frames)
    values = rng.standard_normal((frames, len(LLD_NAMES)))
    values[:, ::3] = np.round(values[:, ::3])  # ties
    values[:, 1] = 0.25  # a constant column
    tables = [values] + ([np.diff(values, axis=0)] if frames >= 2 else [])
    audio = dsp.AudioBuffer(sawtooth(160.0, 0.01 * frames + 0.02), SR)
    llds = acoustic.extract_llds(audio, full_span(audio)).values
    tables += [llds, np.diff(llds, axis=0)] if llds.shape[0] >= 2 else [llds]
    for table in tables:
        got = acoustic.functional_table(table)[:, ORDER_STATISTICS]
        assert np.array_equal(got, order_statistics_oracle(table))


@pytest.mark.parametrize("frames", [1, 2, 40, 301])
def test_delta_table_equals_the_table_of_np_diff(frames):
    """functional_table(values, delta=True) is the table of the frame-to-
    frame differences, bit for bit, and of one zero row for a single frame."""
    rng = np.random.default_rng(frames)
    values = rng.standard_normal((frames, len(LLD_NAMES))) * rng.uniform(0.1, 100.0, len(LLD_NAMES))
    values[:, ::4] = np.round(values[:, ::4])  # ties and flat steps
    deltas = np.diff(values, axis=0) if frames >= 2 else np.zeros((1, len(LLD_NAMES)))
    assert np.array_equal(acoustic.functional_table(values, delta=True),
                          acoustic.functional_table(deltas))


def test_functionals_edge_cases():
    one = acoustic.functional_table(np.ones((1, len(LLD_NAMES))))
    cols = [FUNCTIONAL_NAMES.index(fn) for fn in ("slope", "riseRate", "fallRate")]
    assert np.all(one[:, cols] == 0.0)  # no pairs, no steps
    # no speech: both acoustic sets give an all-zero vector flagged empty_speech
    audio = dsp.AudioBuffer(tone(200.0, 0.5), SR)
    for extract in (acoustic.egemaps_like, acoustic.compare_like):
        v = extract(audio, dsp.SegmentSet(()))
        assert v.empty_speech and v.dim > 0 and np.all(v.values == 0.0)


# ---------------------------------------------------------------------------
# pitch, jitter, shimmer, voicing

def test_f0_on_sawtooth():
    audio = dsp.AudioBuffer(sawtooth(200.0, 1.0), SR)
    llds = acoustic.extract_llds(audio, full_span(audio))
    f0 = llds.column("f0_hz")
    voiced = llds.column("voiced_flag") > 0
    assert voiced.mean() > 0.9
    assert abs(np.median(f0[voiced]) - 200.0) < 2.0
    assert np.mean(llds.column("jitter_local")[voiced]) < 0.005


def test_f0_avoids_octave_error_on_pure_tone():
    # period multiples all correlate ~1; the smallest qualifying lag wins
    audio = dsp.AudioBuffer(tone(220.0, 1.0), SR)
    llds = acoustic.extract_llds(audio, full_span(audio))
    voiced = llds.column("voiced_flag") > 0
    f0 = llds.column("f0_hz")[voiced]
    assert abs(np.median(f0) - 220.0) < 3.0


def test_white_noise_is_unvoiced():
    rng = np.random.default_rng(5)
    audio = dsp.AudioBuffer(0.3 * rng.standard_normal(SR), SR)
    llds = acoustic.extract_llds(audio, full_span(audio))
    assert llds.column("voiced_flag").mean() < 0.1


def test_hnr_higher_for_tone_than_noise():
    rng = np.random.default_rng(6)
    clean = dsp.AudioBuffer(tone(180.0, 1.0), SR)
    noisy = dsp.AudioBuffer(
        tone(180.0, 1.0) + 0.2 * rng.standard_normal(SR), SR
    )
    h_clean = acoustic.extract_llds(clean, full_span(clean)).column("hnr_db").mean()
    h_noisy = acoustic.extract_llds(noisy, full_span(noisy)).column("hnr_db").mean()
    assert h_clean > h_noisy + 3.0


def test_shimmer_on_amplitude_modulated_tone():
    # amplitude alternates +-40% in 40 ms blocks; block boundaries make
    # large frame-to-frame level steps, a steady tone makes none
    sr = SR
    x = sawtooth(200.0, 1.0, sr=sr, amp=1.0)
    block = int(0.040 * sr)
    scale = np.where((np.arange(x.size) // block) % 2 == 0, 1.4, 0.6)
    am = dsp.AudioBuffer(0.3 * x * scale, sr)
    steady = dsp.AudioBuffer(0.3 * x, sr)
    s_am = acoustic.extract_llds(am, full_span(am)).column("shimmer_local").mean()
    s_steady = acoustic.extract_llds(steady, full_span(steady)).column("shimmer_local").mean()
    assert s_steady < 0.01
    assert 0.1 < s_am < 0.35
    assert s_am > 10 * s_steady


def test_jitter_rises_with_frequency_wobble():
    t = np.arange(SR) / SR
    wobble = 200.0 * (1.0 + 0.05 * np.sin(2 * np.pi * 30.0 * t))
    phase = 2 * np.pi * np.cumsum(wobble) / SR
    wobbly = dsp.AudioBuffer(0.3 * np.sin(phase), SR)
    steady = dsp.AudioBuffer(tone(200.0, 1.0), SR)
    j_wobbly = acoustic.extract_llds(wobbly, full_span(wobbly)).column("jitter_local").mean()
    j_steady = acoustic.extract_llds(steady, full_span(steady)).column("jitter_local").mean()
    assert j_wobbly > 2 * j_steady


# ---------------------------------------------------------------------------
# spectra

def test_spectral_centroid_tracks_tone_frequency():
    lo = dsp.AudioBuffer(tone(300.0, 0.5), SR)
    hi = dsp.AudioBuffer(tone(3000.0, 0.5), SR)
    c_lo = acoustic.extract_llds(lo, full_span(lo)).column("spectral_centroid_hz").mean()
    c_hi = acoustic.extract_llds(hi, full_span(hi)).column("spectral_centroid_hz").mean()
    assert c_lo < 1000.0 < c_hi


def test_mel_filterbank_shape_and_coverage():
    fb = acoustic._mel_filterbank(26, 512, SR)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0.0)
    assert np.all(fb.sum(axis=1) > 0.0)
    centers = np.argmax(fb, axis=1)
    assert np.all(np.diff(centers) > 0)  # centers strictly increase


def test_dct_rows_orthonormal():
    rows = acoustic._dct_rows(13, 26)
    assert rows.shape == (13, 26)
    assert np.allclose(rows @ rows.T, np.eye(13), atol=1e-12)
    # orthogonal to the dropped constant basis row
    assert np.allclose(rows @ np.full(26, np.sqrt(1 / 26)), 0.0, atol=1e-12)


# the GeMAPS bands, [lo, hi) Hz, and the plan field holding each one's bins
BANDS_HZ = {"slope_lo": (0.0, 500.0), "slope_hi": (500.0, 1500.0),
            "alpha_lo": (50.0, 1000.0), "alpha_hi": (1000.0, 5000.0),
            "ham_lo": (0.0, 2000.0), "ham_hi": (2000.0, 5000.0)}


@pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100, 48000])
def test_analysis_plan_holds_what_the_rate_and_config_derive(sr):
    cfg = AcousticConfig()
    plan = acoustic.analysis_plan(sr, cfg)
    n = int(round(cfg.frame_len_s * sr))
    assert (plan.min_lag, plan.max_lag) == (max(2, math.ceil(sr / cfg.f0_max_hz)),
                                            math.floor(sr / cfg.f0_min_hz))
    assert plan.nfft == dsp.next_pow2(n)
    assert np.array_equal(plan.window, np.hamming(n))
    freqs = np.arange(plan.nfft // 2 + 1) * (sr / plan.nfft)
    assert np.array_equal(plan.freqs, freqs)
    assert plan.low == np.count_nonzero(freqs < 1500.0)
    for name, (lo, hi) in BANDS_HZ.items():
        want = np.flatnonzero((freqs >= lo) & (freqs < min(hi, sr / 2)))
        assert np.array_equal(getattr(plan, name), want), name
    assert np.array_equal(plan.mel, acoustic._mel_filterbank(cfg.n_mel_filters, plan.nfft, sr).T)
    assert np.array_equal(plan.dct, acoustic._dct_rows(acoustic.N_MFCC, cfg.n_mel_filters).T)
    arrays = [v for v in plan._asdict().values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 10 and not any(a.flags.writeable for a in arrays)
    assert acoustic.analysis_plan(sr, AcousticConfig()) is plan  # an equal config, one plan


@pytest.mark.parametrize("sr", [8000, 16000])
def test_band_descriptors_equal_boolean_masks_bit_for_bit(sr):
    """alpha_ratio_db and both band slopes, recomputed over boolean masks of
    the spectrum of both segments' frames, the one block the kernel sees:
    the plan's bins must read the same copies (a strided slice reduces to
    other last bits)."""
    rng = np.random.default_rng(sr)
    x = np.concatenate([sawtooth(140.0, 0.4, sr=sr), tone(230.0, 0.3, sr=sr)])
    x += 0.02 * rng.standard_normal(x.size)
    segments = dsp.SegmentSet(((0.0, 0.35), (0.42, 0.7)))
    frames = np.concatenate([dsp.frame_signal(x[int(round(start * sr)):int(round(end * sr))], sr)
                             for start, end in segments.speech])
    n = frames.shape[1]
    nfft = dsp.next_pow2(n)
    mag = np.abs(acoustic.kernels.rfft_pow2_batch(
        np.pad(frames * np.hamming(n), ((0, 0), (0, nfft - n)))))
    power = mag * mag
    freqs = np.arange(mag.shape[1]) * (sr / nfft)
    low = int(np.count_nonzero(freqs < 1500.0))
    db_spec = 20.0 * np.log10(mag[:, :low] + 1e-12)

    def slope(lo, hi):
        mask = (freqs[:low] >= lo) & (freqs[:low] < hi)
        fc = freqs[:low][mask] - freqs[:low][mask].mean()
        return (db_spec[:, mask] @ fc) / np.sum(fc * fc)

    def band_power(lo, hi):
        return power[:, (freqs >= lo) & (freqs < hi)].sum(axis=1)

    alpha = 10.0 * np.log10((band_power(50.0, 1000.0) + 1e-12)
                            / (band_power(1000.0, min(5000.0, sr / 2.0)) + 1e-12))
    want = np.column_stack([slope(0.0, 500.0), slope(500.0, 1500.0), alpha])
    llds = acoustic.extract_llds(dsp.AudioBuffer(x, sr), segments)
    got = np.column_stack([llds.column(name) for name in
                           ("spectral_slope_0_500", "spectral_slope_500_1500", "alpha_ratio_db")])
    assert got.shape[0] > 20
    assert np.array_equal(got, want)


def test_mfcc_invariant_to_gain():
    audio = dsp.AudioBuffer(sawtooth(150.0, 0.5), SR)
    quiet = dsp.AudioBuffer(0.25 * audio.samples, SR)
    m_loud = acoustic.extract_llds(audio, full_span(audio))
    m_quiet = acoustic.extract_llds(quiet, full_span(quiet))
    for i in range(1, 14):
        a = m_loud.column(f"mfcc_{i}")
        b = m_quiet.column(f"mfcc_{i}")
        assert np.max(np.abs(a - b)) < 1e-6


# ---------------------------------------------------------------------------
# segment handling

def test_llds_restricted_to_segments():
    x = np.concatenate([tone(200.0, 1.0), np.zeros(SR), tone(200.0, 1.0)])
    audio = dsp.AudioBuffer(x, SR)
    segs = dsp.SegmentSet(((0.0, 1.0), (2.0, 3.0)))
    llds = acoustic.extract_llds(audio, segs)
    per_second = dsp.frame_signal(np.zeros(SR), SR).shape[0]
    assert llds.num_frames == 2 * per_second
    # silence contributes nothing, so every frame is loud
    assert llds.column("log_energy_db").min() > -40.0


def test_pairwise_descriptors_reset_at_segment_starts():
    x = np.concatenate([tone(200.0, 0.5), tone(200.0, 0.5)])
    audio = dsp.AudioBuffer(x, SR)
    one = acoustic.extract_llds(audio, dsp.SegmentSet(((0.0, 1.0),)))
    two = acoustic.extract_llds(audio, dsp.SegmentSet(((0.0, 0.5), (0.5, 1.0))))
    per_half = dsp.frame_signal(np.zeros(SR // 2), SR).shape[0]
    # first frame of the second segment has no predecessor
    assert two.column("spectral_flux")[per_half] == 0.0
    assert two.num_frames == 2 * per_half
    assert one.num_frames > two.num_frames  # straddling frames dropped


_PAIRWISE = ("jitter_local", "shimmer_local", "spectral_flux")
# 25 s of a gliding sawtooth in noise, with a quiet stretch: voiced and
# unvoiced frames for any segment layout below
_LAYOUT_SIGNAL = np.concatenate([
    sawtooth(140.0, 10.0) * np.linspace(0.2, 1.0, 10 * SR),
    0.001 * np.random.default_rng(7).standard_normal(2 * SR),
    tone(210.0, 13.0),
]) + 0.01 * np.random.default_rng(8).standard_normal(25 * SR)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30),
                          st.one_of(st.integers(1, 300), st.integers(257, 700))),
                min_size=1, max_size=8))
@example([(0, 128), (3, 128), (5, 300), (0, 1)])  # a block of exactly 256, one of 300
@example([(0, 512), (2, 513), (0, 257), (4, 100)])  # cuts at whole blocks and one past
def test_blocks_equal_one_call_per_segment(layout):
    """Segments of (gap hops, frames), their speech frames taken a block
    at a time, give each segment's own LLDs: the pairwise descriptors are
    0 at its first row and carry across each cut.  Every call after the
    first is led by the frame before its block, so the calls hold
    _BLOCK_FRAMES rows, then _BLOCK_FRAMES + 1, the last one fewer."""
    block = acoustic._BLOCK_FRAMES
    plan = acoustic.analysis_plan(SR, AcousticConfig())
    frame, hop = dsp.frame_geometry(SR, 0.025, 0.010)
    bounds, at = [], 0
    for gap, count in layout:
        at += gap * hop
        bounds.append((at, at + (count - 1) * hop + frame))
        at = bounds[-1][1]
    x = np.resize(_LAYOUT_SIGNAL, at)  # repeated past its 25 s
    want = [acoustic._llds_for_frames(dsp.frame_signal(x[lo:hi], SR), plan) for lo, hi in bounds]

    calls = []
    kernel = acoustic._llds_for_frames

    def recording(frames, plan_):
        calls.append(frames.shape[0])
        return kernel(frames, plan_)

    with mock.patch.object(acoustic, "_llds_for_frames", recording):
        got = acoustic.extract_llds(dsp.AudioBuffer(x, SR),
                                    dsp.SegmentSet(tuple((lo / SR, hi / SR) for lo, hi in bounds)))
    assert np.allclose(got.values, np.vstack(want), rtol=1e-9, atol=1e-9)
    firsts = np.cumsum([0] + [count for _, count in layout[:-1]])
    for name in _PAIRWISE:
        assert not got.column(name)[firsts].any(), name
    cuts = [first + a for first, (_, count) in zip(firsts, layout) for a in range(block, count, block)]
    assert got.column("spectral_flux")[cuts].all()

    total = sum(count for _, count in layout)
    assert calls == [min(block, total)] + [min(block, total - a) + 1
                                           for a in range(block, total, block)]


def test_consecutive_segments_are_analysed_a_block_at_a_time():
    """Three consecutive 100-frame segments make a block of 256 frames,
    then one of the 44 left led by the frame before them."""
    frame, hop = dsp.frame_geometry(SR, 0.025, 0.010)
    span = 99 * hop + frame
    x = _LAYOUT_SIGNAL[:3 * span]
    calls = []
    kernel = acoustic._llds_for_frames

    def recording(frames, plan_):
        calls.append(frames.shape[0])
        return kernel(frames, plan_)

    with mock.patch.object(acoustic, "_llds_for_frames", recording):
        llds = acoustic.extract_llds(dsp.AudioBuffer(x, SR), dsp.SegmentSet(
            tuple((k * span / SR, (k + 1) * span / SR) for k in range(3))))
    assert llds.num_frames == 300
    assert calls == [256, 45]


def test_a_long_segment_is_cut_into_calls_of_one_block_and_one_row():
    """30 s of continuous voicing is one segment of 2,998 frames: it is
    analysed in calls of 256 frames, then 257 (the frame before each cut
    leads), and the pairwise descriptors reset only at its first frame."""
    audio = dsp.AudioBuffer(glide(30.0), SR)
    segments = dsp.detect_speech(audio)
    assert segments.speech == ((0.0, 30.0),)
    calls = []
    kernel = acoustic._llds_for_frames

    def recording(frames, plan_):
        calls.append(frames.shape[0])
        return kernel(frames, plan_)

    with mock.patch.object(acoustic, "_llds_for_frames", recording):
        llds = acoustic.extract_llds(audio, segments)
    block = acoustic._BLOCK_FRAMES
    assert llds.num_frames == 2998
    assert calls == [block] + [block + 1] * 10 + [2998 - 11 * block + 1]
    assert max(calls) == block + 1
    flux = llds.column("spectral_flux")
    assert flux[0] == 0.0 and flux[1:].all()
    assert llds.column("voiced_flag").all() and llds.column("jitter_local")[1:].all()


def _bursts(seconds: float, on_s: float) -> np.ndarray:
    """glide(seconds), with only faint noise in the second on_s of every
    2 * on_s seconds."""
    x = glide(seconds)
    off = np.mod(np.arange(x.size), int(2 * on_s * SR)) >= on_s * SR
    x[off] = 0.003 * np.random.default_rng(1).standard_normal(np.count_nonzero(off))
    return x


@pytest.mark.parametrize("x, one_segment", [(glide(4.0), True), (_bursts(8.0, 0.4), False)],
                         ids=["one-segment-blocks", "multi-segment-blocks"])
def test_a_float32_recording_gives_the_bits_of_its_float64_copy(tmp_path, x, one_segment):
    """read_wav's float32 samples give the frame energies, segments, LLDs,
    vectors and SNR of the same samples as float64, bit for bit: each
    stage takes the samples as float64 before any arithmetic.  Over 256
    speech frames, as one segment (blocks of one segment each) and as
    short bursts (blocks that span several segments)."""
    path = tmp_path / "x.wav"
    dsp.write_wav(path, x, SR)
    a32 = dsp.read_wav(path)
    a64 = dsp.AudioBuffer(a32.samples.astype(np.float64), SR)
    assert a32.samples.dtype == np.float32
    vad = dsp.VadConfig()
    frame, hop = dsp.frame_geometry(SR, vad.frame_len_s, vad.hop_s)
    assert np.array_equal(dsp.frame_energies_db(a32.samples, frame, hop),
                          dsp.frame_energies_db(a64.samples, frame, hop))
    segments = dsp.detect_speech(a32)
    assert segments == dsp.detect_speech(a64)
    assert (len(segments.speech) == 1) == one_segment
    llds = acoustic.extract_llds(a32, segments)
    assert llds.num_frames > acoustic._BLOCK_FRAMES
    assert np.array_equal(llds.values, acoustic.extract_llds(a64, segments).values)
    for extract in (acoustic.egemaps_like, acoustic.compare_like):
        assert np.array_equal(extract(a32, segments).values, extract(a64, segments).values)
    snr = dsp.estimate_snr(a32, segments)
    assert snr == dsp.estimate_snr(a64, segments)
    assert (abs(snr) == dsp.SNR_CAP_DB) == one_segment  # the bursts have noise between


def test_extraction_memory_holds_one_block_past_its_output():
    """Past the LLD matrix it returns, extract_llds holds what one call on
    _BLOCK_FRAMES + 1 frames holds, on a 30 s segment and on one twice as
    long (one call per segment took about 42 MB at 30 s)."""
    plan = acoustic.analysis_plan(SR, AcousticConfig())
    frames = dsp.frame_signal(glide(3.0), SR)[: acoustic._BLOCK_FRAMES + 1]
    tracemalloc.start()
    try:
        acoustic._llds_for_frames(frames, plan)
        block_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for seconds in (30.0, 60.0):
        audio = dsp.AudioBuffer(glide(seconds), SR)
        segments = dsp.SegmentSet(((0.0, seconds),))
        tracemalloc.start()
        try:
            llds = acoustic.extract_llds(audio, segments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert llds.num_frames == 100 * seconds - 2
        assert peak - llds.values.nbytes < block_peak + (1 << 18), seconds


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 257])
def test_lag_and_spectrum_tiles_are_bit_identical(m, monkeypatch):
    """The block's autocorrelation, lag choice and spectrum taken one row,
    7 rows or all rows at a time give the LLDs of the default 64-row
    tiles, bit for bit."""
    plan = acoustic.analysis_plan(SR, AcousticConfig())
    n = 400 + 160 * (m - 1)  # m frames of 25 ms every 10 ms
    x = glide(0.1 + n / SR)[:n] + 0.05 * np.random.default_rng(m).standard_normal(n)
    frames = dsp.frame_signal(x, SR)
    assert frames.shape[0] == m
    want = acoustic._llds_for_frames(frames, plan)
    for tile in (1, 7, 1 << 20):
        monkeypatch.setattr(acoustic, "_TILE", tile)
        assert np.array_equal(acoustic._llds_for_frames(frames, plan), want), tile


def test_a_block_takes_its_autocorrelation_a_tile_at_a_time():
    """On 257 frames, each autocorrelation call gets at most _TILE rows,
    and the calls cover the 257 rows."""
    plan = acoustic.analysis_plan(SR, AcousticConfig())
    frames = dsp.frame_signal(glide(3.0), SR)[:257]
    with mock.patch.object(acoustic.kernels, "autocorr_norm_batch",
                           wraps=acoustic.kernels.autocorr_norm_batch) as acf:
        acoustic._llds_for_frames(frames, plan)
    rows = [c.args[0].shape[0] for c in acf.call_args_list]
    assert max(rows) <= acoustic._TILE
    assert sum(rows) == 257


def test_a_block_holds_its_magnitudes_and_a_few_tiles():
    """A 257-frame call holds at most 1.45 MB past its input: the block's
    magnitude and power spectra, one band's copy and 64-row tiles (the
    padded frames and their complex spectrum over the whole block took
    2.7 MB, and the block's whole lag matrix beside its tiles 1.48 MB)."""
    plan = acoustic.analysis_plan(SR, AcousticConfig())
    frames = np.ascontiguousarray(dsp.frame_signal(glide(3.0), SR)[: acoustic._BLOCK_FRAMES + 1])
    acoustic._llds_for_frames(frames, plan)  # numpy's FFT plan caches, once
    tracemalloc.start()
    try:
        acoustic._llds_for_frames(frames, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.45e6


def test_time_shift_by_one_hop_shifts_frames():
    x = sawtooth(170.0, 1.0)
    hop = int(0.010 * SR)
    a = dsp.AudioBuffer(x, SR)
    b = dsp.AudioBuffer(x[hop:], SR)
    la = acoustic.extract_llds(a, full_span(a))
    lb = acoustic.extract_llds(b, full_span(b))
    pairwise = {"jitter_local", "shimmer_local", "spectral_flux"}
    for name in LLD_NAMES:
        col_a = la.column(name)[1 : 1 + lb.num_frames]
        col_b = lb.column(name)
        start = 1 if name in pairwise else 0  # pairwise cols restart at frame 0
        # batches of different sizes may round BLAS products differently,
        # so equality here is to tolerance, not bitwise
        assert np.allclose(col_a[start:], col_b[start:], rtol=1e-9, atol=1e-9), name


def test_empty_segments_vector():
    audio = dsp.AudioBuffer(tone(100.0, 0.2), SR)
    v88 = acoustic.egemaps_like(audio, dsp.SegmentSet(()))
    assert v88.dim == 88 and v88.empty_speech and np.all(v88.values == 0.0)
    vcl = acoustic.compare_like(audio, dsp.SegmentSet(()))
    assert vcl.dim == 450 and vcl.empty_speech


# ---------------------------------------------------------------------------
# feature sets

def test_egemaps_manifest_composition():
    entries = acoustic.egemaps_manifest()
    assert len(entries) == 88
    assert len({(e["lld"], e["functional"]) for e in entries}) == 88
    counts = {}
    for e in entries:
        counts[e["lld"]] = counts.get(e["lld"], 0) + 1
    for lld in ("f0_hz", "log_energy_db", "jitter_local", "shimmer_local", "hnr_db"):
        assert counts[lld] == len(FUNCTIONAL_NAMES)
    for i in range(1, 14):
        assert counts[f"mfcc_{i}"] == 2
    assert counts["voiced_flag"] == 1


def test_egemaps_dim_and_values(small_corpus):
    rec = small_corpus.recordings[0]
    audio = dsp.read_wav(rec.audio_path)
    segs = dsp.detect_speech(audio)
    vec = acoustic.egemaps_like(audio, segs)
    assert vec.feature_set_id is FeatureSetId.EGEMAPS_LIKE_88
    assert vec.dim == 88
    assert np.all(np.isfinite(vec.values))
    # entries equal the functional applied to the raw LLD track
    llds = acoustic.extract_llds(audio, segs)
    entries = acoustic.egemaps_manifest()
    e0 = entries[0]
    want = naive_functional(llds.column(e0["lld"]), e0["functional"])
    assert abs(vec.values[0] - want) < 1e-12
    table = acoustic.functional_table(llds.values)
    for k, e in enumerate(entries):
        row, col = LLD_NAMES.index(e["lld"]), FUNCTIONAL_NAMES.index(e["functional"])
        assert vec.values[k] == table[row, col]


def test_compare_like_dim_and_delta_block():
    audio = dsp.AudioBuffer(sawtooth(160.0, 0.8), SR)
    grid = acoustic.default_compare_grid()
    assert len(grid.llds) * len(grid.functionals) == 225 and grid.deltas
    vec = acoustic.compare_like(audio, full_span(audio))
    assert vec.dim == 450
    # plain block reproduces the functional grid over those LLDs
    llds = acoustic.extract_llds(audio, full_span(audio))
    for gi, lld in enumerate(grid.llds[:3]):
        for fj, fn in enumerate(grid.functionals):
            want = naive_functional(llds.column(lld), fn)
            got = vec.values[gi * len(grid.functionals) + fj]
            assert abs(got - want) < 1e-9
    # delta block reproduces functionals of the first differences
    half = vec.dim // 2
    d0 = np.diff(llds.column(grid.llds[0]))
    assert abs(vec.values[half] - naive_functional(d0, grid.functionals[0])) < 1e-9


def test_compare_grid_validation():
    with pytest.raises(FeatureError):
        acoustic.CompareGrid(("bogus",), ("mean",), False)
    with pytest.raises(FeatureError):
        acoustic.CompareGrid(("f0_hz",), ("bogus",), False)
    g = acoustic.CompareGrid(("f0_hz", "zcr"), ("mean", "std"), True)
    assert (g.llds, g.functionals, g.deltas) == (("f0_hz", "zcr"), ("mean", "std"), True)


def _standalone_egemaps(llds):
    """EgemapsLike88 cells read straight off the LLDs' functional table."""
    table = acoustic.functional_table(llds.values)
    return np.array([table[LLD_NAMES.index(e["lld"]), FUNCTIONAL_NAMES.index(e["functional"])]
                     for e in acoustic.egemaps_manifest()])


def _standalone_compare(llds):
    """CompareLike's plain block, then the block of its first differences."""
    grid = acoustic.default_compare_grid()
    rows = [LLD_NAMES.index(name) for name in grid.llds]
    cols = [FUNCTIONAL_NAMES.index(fn) for fn in grid.functionals]
    deltas = (np.diff(llds.values, axis=0) if llds.num_frames >= 2
              else np.zeros((1, len(LLD_NAMES))))
    return np.concatenate([acoustic.functional_table(v)[np.ix_(rows, cols)].ravel()
                           for v in (llds.values, deltas)])


@pytest.mark.parametrize("segments, frames", [
    (((0.0, 0.4), (0.55, 0.8)), 61),  # two speech segments: 38 + 23 frames
    ((), 0),  # silence: no speech detected
    (((0.1, 0.125),), 1),  # one 25 ms frame: the delta block is zero
])
@pytest.mark.parametrize("sets", [
    (FeatureSetId.EGEMAPS_LIKE_88,),
    (FeatureSetId.COMPARE_LIKE,),
    (FeatureSetId.EGEMAPS_LIKE_88, FeatureSetId.COMPARE_LIKE),
    (FeatureSetId.COMPARE_LIKE, FeatureSetId.EGEMAPS_LIKE_88),
])
def test_shared_pass_matches_each_standalone_set(segments, frames, sets):
    audio = dsp.AudioBuffer(sawtooth(160.0, 0.8), SR)
    segs = dsp.SegmentSet(segments)
    llds = acoustic.extract_llds(audio, segs)
    assert llds.num_frames == frames
    empty = frames == 0
    standalone = {FeatureSetId.EGEMAPS_LIKE_88: acoustic.egemaps_like(audio, segs),
                  FeatureSetId.COMPARE_LIKE: acoustic.compare_like(audio, segs)}
    shared = acoustic.vectors_from_llds(llds, sets)
    assert [v.feature_set_id for v in shared] == list(sets)
    for vec in shared:
        alone = standalone[vec.feature_set_id]
        assert np.array_equal(vec.values, alone.values)
        assert vec.empty_speech is alone.empty_speech is empty
        if empty:
            assert np.all(vec.values == 0.0)
        elif vec.feature_set_id is FeatureSetId.EGEMAPS_LIKE_88:
            assert np.array_equal(vec.values, _standalone_egemaps(llds))
        else:
            assert np.array_equal(vec.values, _standalone_compare(llds))
    if frames == 1:
        compare = standalone[FeatureSetId.COMPARE_LIKE].values
        assert np.all(compare[compare.size // 2:] == 0.0)


def test_shared_pass_rejects_a_text_set():
    llds = LldMatrix(np.zeros((3, len(LLD_NAMES))))
    with pytest.raises(FeatureError, match=r"^acoustic\.vectors_from_llds: Lexical"):
        acoustic.vectors_from_llds(llds, (FeatureSetId.EGEMAPS_LIKE_88, FeatureSetId.LEXICAL))


# ---------------------------------------------------------------------------
# pitch search range

@pytest.mark.parametrize("sr, max_lag", [(16000, 290), (8000, 145)])
def test_frame_must_hold_the_pitch_floor_period_plus_two(sr, max_lag, monkeypatch):
    """floor(sr / f0_min_hz) > frame samples - 2 is an error, not a clipped
    search; a frame two samples longer than the floor's period searches up
    to that period."""
    audio = dsp.AudioBuffer(sawtooth(160.0, 0.3, sr=sr), sr)
    too_short = AcousticConfig(frame_len_s=(max_lag + 1) / sr)
    with pytest.raises(FeatureError) as err:
        acoustic.extract_llds(audio, full_span(audio), too_short)
    assert str(err.value).startswith("acoustic.extract_llds: ") and "\n" not in str(err.value)
    with pytest.raises(FeatureError, match=r"^acoustic\.extract_llds: "):
        acoustic.extract_llds(audio, dsp.SegmentSet(()), too_short)  # whatever the speech

    searched = []
    autocorr = acoustic.kernels.autocorr_norm_batch

    def recording(frames, min_lag, max_lag_):
        searched.append((frames.shape[1], max_lag_))
        return autocorr(frames, min_lag, max_lag_)

    monkeypatch.setattr(acoustic.kernels, "autocorr_norm_batch", recording)
    acoustic.extract_llds(audio, full_span(audio), AcousticConfig(frame_len_s=(max_lag + 2) / sr))
    assert set(searched) == {(max_lag + 2, max_lag)}


def test_config_frame_just_past_the_rule_is_rejected_at_extraction():
    # 0.0182 s holds 1.001 periods of 55 Hz, but at 16 kHz the frame is 291
    # samples and the 55 Hz period 290: the search needs two lags past it
    audio = dsp.AudioBuffer(sawtooth(160.0, 0.3), SR)
    with pytest.raises(FeatureError, match=r"^acoustic\.extract_llds: .* 291 samples"):
        acoustic.extract_llds(audio, full_span(audio), AcousticConfig(frame_len_s=0.0182))


@pytest.mark.parametrize("sr", [8000, 16000])
def test_default_frames_hold_the_pitch_floor(sr):
    audio = dsp.AudioBuffer(sawtooth(160.0, 0.3, sr=sr), sr)
    assert acoustic.extract_llds(audio, full_span(audio)).num_frames > 0


@pytest.mark.parametrize("f0_max_hz", [100.5, 101.0])
def test_a_one_lag_pitch_range_still_finds_the_period(f0_max_hz):
    """[100, 100.5] Hz at 16 kHz searches the single lag 160, a 100 Hz
    tone's period; [100, 101] Hz searches lags 159 and 160."""
    audio = dsp.AudioBuffer(tone(100.0, 0.5), SR)
    cfg = AcousticConfig(f0_min_hz=100.0, f0_max_hz=f0_max_hz)
    v = acoustic.extract_llds(audio, full_span(audio), cfg).values
    assert np.all(v[:, LLD_NAMES.index("voiced_flag")] == 1.0)
    assert np.allclose(v[:, LLD_NAMES.index("f0_hz")], 100.0, atol=1e-6)
    assert np.all(v[:, LLD_NAMES.index("hnr_db")] > 20.0)


def test_a_pitch_range_without_a_whole_sample_period_is_an_error():
    # floor(16000 / 101) = 158 < ceil(16000 / 101.2) = 159: no lag to search
    audio = dsp.AudioBuffer(tone(101.0, 0.3), SR)
    cfg = AcousticConfig(f0_min_hz=101.0, f0_max_hz=101.2)
    want = ("acoustic.extract_llds: the [101.0, 101.2] Hz pitch range holds no whole-sample "
            "period at 16000 Hz")
    for segments in (full_span(audio), dsp.SegmentSet(())):  # whatever the speech
        with pytest.raises(FeatureError) as err:
            acoustic.extract_llds(audio, segments, cfg)
        assert str(err.value) == want


# ---------------------------------------------------------------------------
# matrix persistence

def test_feature_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    rows = [
        (f"S{i}", "ShortTerm",
         acoustic.FeatureVector(FeatureSetId.EGEMAPS_LIKE_88, rng.standard_normal(88),
                                empty_speech=(i == 2)))
        for i in range(4)
    ]
    p = tmp_path / "m.csv"
    acoustic.write_feature_matrix(p, rows, FeatureSetId.EGEMAPS_LIKE_88, 88)
    with open(p, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[:3] == [["feature_set_id", "EgemapsLike88"],
                         ["version", acoustic.MANIFEST_VERSION], ["dim", "88"]]
    assert lines[3] == ["subject_id", "task", "empty_speech"] + [f"v{i}" for i in range(88)]
    got = lines[4:]
    assert [line[:2] for line in got] == [[sid, task] for sid, task, _ in rows]
    for (_, _, vec), line in zip(rows, got):
        assert np.array_equal(vec.values, [float(v) for v in line[3:]])  # repr round-trips
        assert line[2] == str(int(vec.empty_speech))


def test_feature_matrix_rejects_wrong_dim(tmp_path):
    rows = [("S0", "ShortTerm", acoustic.FeatureVector(FeatureSetId.LEXICAL, np.zeros(5)))]
    with pytest.raises(FeatureError):
        acoustic.write_feature_matrix(tmp_path / "m.csv", rows, FeatureSetId.LEXICAL, 6)

