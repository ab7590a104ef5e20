"""Kernels against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
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
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frames = rng.choice([-1.0, 1.0], (m, n)) * rng.uniform(0.5, 1.5, (m, n))
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
def test_autocorr_matches_naive_property(case):
    frames, min_lag, max_lag = case
    got = kernels.autocorr_norm_batch(frames, min_lag, max_lag)
    assert got.shape == (frames.shape[0], max_lag - min_lag + 1)
    for row, x in zip(got, frames):
        assert np.max(np.abs(row - naive_autocorr(x, min_lag, max_lag))) < 1e-10


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
