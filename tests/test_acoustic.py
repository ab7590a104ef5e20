"""Low-level descriptors, functionals, and the two acoustic feature sets."""

import csv

import numpy as np
import pytest

from cognopipe import acoustic, dsp
from cognopipe.acoustic import FUNCTIONAL_NAMES, LLD_NAMES, AcousticConfig, LldMatrix
from cognopipe.errors import FeatureError
from cognopipe.features import FeatureSetId

from conftest import SR, sawtooth, tone


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
    assert grid.dim == 450
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
    half = grid.dim // 2
    d0 = np.diff(llds.column(grid.llds[0]))
    assert abs(vec.values[half] - naive_functional(d0, grid.functionals[0])) < 1e-9


def test_compare_grid_validation():
    with pytest.raises(FeatureError):
        acoustic.CompareGrid(("bogus",), ("mean",), False)
    with pytest.raises(FeatureError):
        acoustic.CompareGrid(("f0_hz",), ("bogus",), False)
    g = acoustic.CompareGrid(("f0_hz", "zcr"), ("mean", "std"), True)
    assert g.dim == 8


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

