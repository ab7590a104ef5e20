"""Kernels against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cognopipe import kernels


# ---------------------------------------------------------------------------
# oracles

def naive_dft(x: np.ndarray) -> np.ndarray:
    """Textbook O(n^2) DFT, non-redundant bins of a real input."""
    n = x.size
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return (np.exp(-2j * np.pi * k * t / n) * x).sum(axis=1)


def naive_autocorr(x: np.ndarray, min_lag: int, max_lag: int) -> np.ndarray:
    n = x.size
    out = np.zeros(max_lag - min_lag + 1)
    for k, lag in enumerate(range(min_lag, max_lag + 1)):
        if lag >= n:
            continue
        head = x[: n - lag]
        tail = x[lag:]
        denom = np.sqrt((head @ head) * (tail @ tail))
        if denom > 0:
            out[k] = (head @ tail) / denom
    return out


def reference_pegasos(X, y, cw, lam, idx):
    """Deliberately plain re-statement of the update rule."""
    w = np.zeros(X.shape[1])
    b = 0.0
    w_sum = np.zeros_like(w)
    b_sum = 0.0
    for t, i in enumerate(idx, start=1):
        eta = 1.0 / (lam * t)
        margin = y[i] * (X[i] @ w + b)
        w = (1.0 - eta * lam) * w
        if margin < 1.0:
            w = w + (eta * cw[i] * y[i]) * X[i]
            b = b + eta * cw[i] * y[i]
        w_sum += w
        b_sum += b
    return w_sum / len(idx), b_sum / len(idx)


def gram_loop_pegasos(X, y, cw, lam, idx):
    """The Gram-form loop that accumulated the averaged weights at each
    violation, in step order: kernels.pegasos must match it bit for bit."""
    cy = cw * y
    cyG = X @ X.T  # the kernel's Gram, so every margin decision is the same
    cyG *= cy[:, None]
    steps = idx.size
    inv = np.zeros(steps + 1)
    inv[1:] = 1.0 / (lam * np.arange(1, steps + 1))
    tail = np.cumsum(inv[:0:-1])[::-1]
    z = np.zeros(X.shape[0])
    w_sum = np.zeros(X.shape[1])
    b = 0.0
    b_sum = 0.0
    inv_l, tail_l = inv.tolist(), tail.tolist()
    y_l, cw_l, cy_l = y.tolist(), cw.tolist(), cy.tolist()
    for t, i in enumerate(idx.tolist(), start=1):
        if y_l[i] * (z.item(i) * inv_l[t - 1] + b) < 1.0:
            z += cyG[i]
            w_sum += (cy_l[i] * tail_l[t - 1]) * X[i]
            b += inv_l[t] * cw_l[i] * y_l[i]
        b_sum += b
    return w_sum / steps, b_sum / steps


# ---------------------------------------------------------------------------
# FFT

@pytest.mark.parametrize("n", [2 ** k for k in range(1, 11)])
def test_fft_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = rng.standard_normal(n)
        got = kernels.rfft_pow2_batch(x[None, :])[0]
        want = naive_dft(x)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9


def test_fft_linearity():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 256))
    a, b = 2.3, -0.7
    lhs = kernels.rfft_pow2_batch((a * x + b * y)[None, :])[0]
    rhs = a * kernels.rfft_pow2_batch(x[None, :])[0] + b * kernels.rfft_pow2_batch(y[None, :])[0]
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-9


def test_fft_parseval():
    rng = np.random.default_rng(1)
    for n in (8, 64, 512):
        x = rng.standard_normal(n)
        spec = kernels.rfft_pow2_batch(x[None, :])[0]
        mag_sq = np.abs(spec) ** 2
        # half-spectrum accounting: interior bins appear twice in the full DFT
        freq_energy = (mag_sq[0] + mag_sq[-1] + 2.0 * mag_sq[1:-1].sum()) / n
        time_energy = float(x @ x)
        assert abs(freq_energy - time_energy) / time_energy < 1e-9


def test_fft_impulse_and_constant():
    imp = np.zeros(16)
    imp[0] = 1.0
    assert np.allclose(kernels.rfft_pow2_batch(imp[None, :])[0], 1.0, atol=1e-12)
    const = np.full(16, 3.0)
    spec = kernels.rfft_pow2_batch(const[None, :])[0]
    assert abs(spec[0] - 48.0) < 1e-12
    assert np.max(np.abs(spec[1:])) < 1e-12


def test_fft_rejects_bad_lengths():
    for n in (0, 1, 3, 6, 100):
        with pytest.raises(ValueError):
            kernels.rfft_pow2_batch(np.zeros((1, max(n, 1))) if n else np.zeros((1, 0)))


# ---------------------------------------------------------------------------
# autocorrelation

def test_autocorr_matches_naive():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((6, 300))
    got = kernels.autocorr_norm_batch(frames, 20, 200)
    for i in range(6):
        want = naive_autocorr(frames[i], 20, 200)
        assert np.max(np.abs(got[i] - want)) < 1e-10


def _dense_frames(m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], (m, n)) * rng.uniform(0.5, 1.5, (m, n))


@st.composite
def autocorr_cases(draw):
    """Frames, lag range and oracle cases: 0 and 1 frames, any length,
    min_lag == max_lag, max_lag >= n, silent frames and silent runs.

    Samples are drawn with magnitudes in [0.5, 1.5] (or exactly 0), so every
    non-zero head or tail energy is at least 0.25.  The FFT numerator has an
    absolute error of order eps * sum(x^2); r differs from the oracle by
    that error over the denominator, which this bound keeps far below 1e-10.
    """
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1, 300))
    min_lag = draw(st.integers(0, n + 5))
    max_lag = draw(st.one_of(st.just(min_lag), st.integers(min_lag, n + 40)))
    frames = _dense_frames(m, n, draw(st.integers(0, 2 ** 32 - 1)))
    for row in frames:
        kind = draw(st.sampled_from(["dense", "silent", "head", "tail"]))
        cut = draw(st.integers(0, n))
        if kind == "silent":
            row[:] = 0.0
        elif kind == "head":
            row[:cut] = 0.0
        elif kind == "tail":
            row[cut:] = 0.0
    return frames, min_lag, max_lag


@settings(max_examples=200, deadline=None)
@given(autocorr_cases())
# n + top just below, at and just above the 5-smooth length 720, where the
# FFT length jumps from 720 to 729
@example((_dense_frames(3, 400, 0), 25, 319))
@example((_dense_frames(3, 400, 1), 25, 320))
@example((_dense_frames(3, 400, 2), 25, 321))
@example((_dense_frames(2, 360, 3), 0, 359))
@example((_dense_frames(2, 361, 4), 1, 400))
def test_autocorr_matches_naive_property(case):
    frames, min_lag, max_lag = case
    got = kernels.autocorr_norm_batch(frames, min_lag, max_lag)
    assert got.shape == (frames.shape[0], max_lag - min_lag + 1)
    for row, x in zip(got, frames):
        assert np.max(np.abs(row - naive_autocorr(x, min_lag, max_lag))) < 1e-10


def test_smooth_length_is_the_least_5_smooth_length_at_or_above():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    want = 1
    for n in range(1, 5001):
        while not smooth(want) or want < n:
            want += 1
        assert kernels.smooth_length(n) == want, n


def test_autocorr_peaks_at_period():
    sr = 16000
    period = 80  # 200 Hz
    t = np.arange(400)
    x = np.sin(2 * np.pi * t / period)
    r = kernels.autocorr_norm_batch(x[None, :], 40, 160)[0]
    assert r[period - 40] > 0.999
    assert np.all(np.abs(r) <= 1.0 + 1e-12)


def test_autocorr_zero_signal_is_zero():
    r = kernels.autocorr_norm_batch(np.zeros((2, 100)), 5, 50)
    assert np.all(r == 0.0)


# ---------------------------------------------------------------------------
# pegasos

def test_pegasos_matches_reference_loop():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 7))
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    cw = rng.uniform(0.5, 2.0, 30)
    idx = rng.integers(0, 30, 400)
    w_got, b_got = kernels.pegasos(X, y, cw, 0.3, idx)
    w_want, b_want = reference_pegasos(X, y, cw, 0.3, idx)
    assert np.max(np.abs(w_got - w_want)) < 1e-12
    assert abs(b_got - b_want) < 1e-12


@st.composite
def pegasos_cases(draw):
    """Problems in generic position (no margin lands on 1.0 by construction)
    from a drawn seed, in one of three regimes: a generic mix; violating
    (tiny rows, strong regularizer: nearly every margin stays below 1);
    separable (rows far apart along one axis, weak regularizer: after the
    first step almost no margin falls below 1).  idx is uniform, a single
    repeated row, or a short pattern cycled."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 50))
    steps = draw(st.integers(1, 500))
    regime = draw(st.sampled_from(["mixed", "violating", "separable"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    cw = rng.uniform(0.2, 3.0, n)
    X = rng.standard_normal((n, d))
    if regime == "mixed":
        lam = draw(st.floats(1e-3, 10.0))
    elif regime == "violating":
        # |b| <= max(cw) * sum_t 1/(lam*t) < 1 and |x.w| is tiny
        lam = draw(st.floats(7.0, 10.0))
        cw = rng.uniform(0.2, 1.0, n)
        X *= 1e-3
    else:
        # x_i.x_j ~ +-1600 keeps every margin far above 1 for 500 steps
        lam = draw(st.floats(1e-3, 1e-2))
        X *= 0.1
        X[:, 0] += 40.0 * y
    pattern = draw(st.sampled_from(["uniform", "repeat", "cycle"]))
    if pattern == "uniform":
        idx = rng.integers(0, n, steps)
    elif pattern == "repeat":
        idx = np.full(steps, draw(st.integers(0, n - 1)))
    else:
        idx = np.resize(rng.integers(0, n, draw(st.integers(1, 5))), steps)
    return X, y, cw, lam, idx


@settings(max_examples=300, deadline=None)
@given(pegasos_cases())
def test_pegasos_matches_reference_property(case):
    X, y, cw, lam, idx = case
    w_got, b_got = kernels.pegasos(X, y, cw, lam, idx)
    w_want, b_want = reference_pegasos(X, y, cw, lam, idx)
    scale = max(np.max(np.abs(w_want)), abs(b_want), 1e-300)
    assert np.max(np.abs(w_got - w_want)) <= 1e-12 * scale
    assert abs(b_got - b_want) <= 1e-12 * scale
    w_ref, b_ref = gram_loop_pegasos(X, y, cw, lam, idx)
    assert np.array_equal(w_got, w_ref)
    assert b_got == b_ref


@pytest.mark.parametrize("d", [1, 2, 50, 3 * 2 ** 14])
def test_pegasos_bit_exact_over_several_sum_blocks(d):
    """Nearly every step violates, so the post-loop sum spans several blocks
    (one row each at d > 2**14); a single column summed pairwise, as numpy
    sums one column, would round differently from the step-order sum."""
    rng = np.random.default_rng(d)
    n, steps = 12, 500 if d < 2 ** 14 else 40
    X = 1e-3 * rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    cw = rng.uniform(0.2, 1.0, n)
    idx = rng.integers(0, n, steps)
    w_got, b_got = kernels.pegasos(X, y, cw, 8.0, idx)
    w_ref, b_ref = gram_loop_pegasos(X, y, cw, 8.0, idx)
    assert np.array_equal(w_got, w_ref)
    assert b_got == b_ref


@pytest.mark.parametrize("regime", ["violating", "separable"])
def test_pegasos_memory_stays_within_a_few_rows(regime):
    """The post-loop weight sum works in bounded blocks: the peak of the
    fit stays below 8 rows of d floats, whatever the number of violations
    (summing all violating rows at once would take 400 rows here)."""
    rng = np.random.default_rng(0)
    n, d, steps = 40, 50_000, 400
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = rng.standard_normal((n, d))
    if regime == "violating":
        X *= 1e-5
        lam = 8.0
    else:
        X[:, 0] += 40.0 * y
        lam = 1e-2
    cw = np.ones(n)
    idx = rng.integers(0, n, steps)
    tracemalloc.start()
    try:
        kernels.pegasos(X, y, cw, lam, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * d * 8


def test_pegasos_rejects_empty_idx():
    with pytest.raises(ValueError):
        kernels.pegasos(np.ones((2, 3)), np.array([1.0, -1.0]), np.ones(2), 1.0,
                        np.zeros(0, dtype=np.int64))
