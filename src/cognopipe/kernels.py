"""Hot numeric kernels, one numpy implementation each.

The three inner loops that dominate pipeline runtime live here: the real
FFT applied to every analysis frame, the normalized autocorrelation used
for pitch tracking, and the stochastic subgradient loop of the linear SVM,
which runs in Gram form (margins from X X^T, n^2 floats for n rows).
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's environment probe; only the numpy path exists.
USE_NUMBA = False


def rfft_pow2_batch(frames: np.ndarray) -> np.ndarray:
    """Real FFT of each row; row length must be a power of two >= 2.

    Returns the n//2 + 1 non-redundant bins, where bin b of row x is
    sum_t x[t] * exp(-2*pi*i*b*t/n).
    """
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[1]
    if n < 2 or n & (n - 1):
        raise ValueError(f"FFT length must be a power of two >= 2, got {n}")
    return np.fft.rfft(frames, axis=1)


def autocorr_norm_batch(frames: np.ndarray, min_lag: int, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation r(lag) per frame for lag in [min_lag, max_lag].

    r(lag) = sum_t x[t] x[t+lag] / sqrt(E_head(lag) * E_tail(lag)), the
    normalized cross-correlation between the frame and its lagged copy;
    values lie in [-1, 1] and peak near 1 for periodic frames.  Lags >= n
    and lags whose head or tail has no energy give 0.

    The numerator is the inverse FFT of |X|^2 with X zero-padded to the
    smallest power of two N >= n + min(max_lag, n - 1), so no lag wraps
    around (Boersma 1993); the energies come from a cumulative sum.  The
    numerator carries an absolute error of order eps * sum(x^2), so r is
    accurate to about eps * sum(x^2) / denominator.
    """
    frames = np.asarray(frames, dtype=np.float64)
    m, n = frames.shape
    out = np.zeros((m, max_lag - min_lag + 1), dtype=np.float64)
    top = min(max_lag, n - 1)
    if top < min_lag:
        return out
    nfft = 1 << (n + top - 1).bit_length()
    spec = np.fft.rfft(frames, nfft, axis=1)
    num = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft, axis=1)[:, min_lag:top + 1]

    csum = np.zeros((m, n + 1))
    np.cumsum(frames * frames, axis=1, out=csum[:, 1:])
    lags = np.arange(min_lag, top + 1)
    e_head = csum[:, n - lags]
    e_tail = csum[:, n:] - csum[:, lags]
    denom = np.sqrt(e_head * e_tail)
    np.divide(num, denom, out=out[:, : lags.size], where=denom > 0.0)
    return out


def pegasos(X: np.ndarray, y: np.ndarray, cw: np.ndarray, lam: float,
            idx: np.ndarray) -> tuple[np.ndarray, float]:
    """Pegasos-style stochastic subgradient descent on the weighted hinge loss.

    Visits samples in the order given by ``idx`` with step 1/(lam*t) and
    returns the averaged iterate (w_bar, b_bar).  The bias is updated on
    margin violations but not shrunk by the regularizer.

    Runs in Gram form (Shalev-Shwartz et al. 2011, section 4).  With
    eta_t = 1/(lam*t) the update gives t*w_t = (t-1)*w_{t-1} + v_t/lam,
    where v_t = cw_i*y_i*x_i on a margin violation and 0 otherwise, so
    w_t = u_t/(lam*t) with u_t the sum of the v's so far.  The margin test
    needs only z_i = x_i . u, kept for every row and moved by cw_j*y_j*G[j]
    on a violation at row j, with G = X X^T built once: a step without a
    violation is scalar work.  A violation at step k adds v_k * sum_{t>=k}
    1/(lam*t) to sum_t w_t, which is accumulated there, in step order.
    G takes n^2 floats for n training rows.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    cw = np.ascontiguousarray(cw, dtype=np.float64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    steps = idx.size
    if steps == 0:
        raise ValueError("pegasos needs at least one step, got an empty idx")
    # einsum, not X @ X.T: with one BLAS thread, switching this and
    # classifiers.train_logistic's G to X @ X.T made text_many ~8 % faster,
    # but it rounds differently (report scores move in their last
    # digits) and peak RSS rose ~0.6 MB
    cy = cw * y
    cyG = np.einsum("ik,jk->ij", X, X)
    cyG *= cy[:, None]  # row j is the z-update of a violation at j
    # inv[t] = 1/(lam*t), with inv[0] = 0 so the first margin reads w_0 = 0
    inv = np.zeros(steps + 1)
    inv[1:] = 1.0 / (lam * np.arange(1, steps + 1))
    tail = np.cumsum(inv[:0:-1])[::-1]  # tail[t-1] = sum_{s>=t} inv[s]
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
