"""Hot numeric kernels, one numpy implementation each.

The three inner loops that dominate pipeline runtime live here: the real
FFT applied to every analysis frame, the normalized autocorrelation used
for pitch tracking, and the stochastic subgradient loop of the linear SVM,
which runs in Gram form (margins from X X^T, n^2 floats for n rows): a
margin violation costs one n-vector add, and the averaged weights are
summed once, after the loop, in step order.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's environment probe; only the numpy path exists.
USE_NUMBA = False

# Floats per block of pegasos's post-loop weight sum: bounds its buffer.
_SUM_BLOCK_FLOATS = 1 << 14


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


def smooth_length(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT does fast."""
    best = 2 * max(n, 1)  # a bound: some power of two lies in [n, 2n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def autocorr_norm_batch(frames: np.ndarray, min_lag: int, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation r(lag) per frame for lag in [min_lag, max_lag].

    r(lag) = sum_t x[t] x[t+lag] / sqrt(E_head(lag) * E_tail(lag)), the
    normalized cross-correlation between the frame and its lagged copy;
    values lie in [-1, 1] and peak near 1 for periodic frames.  Lags >= n
    and lags whose head or tail has no energy give 0.

    The numerator is the inverse FFT of |X|^2 with X zero-padded to the
    smallest 5-smooth N >= n + min(max_lag, n - 1), so no lag wraps
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
    nfft = smooth_length(n + top)
    spec = np.fft.rfft(frames, nfft, axis=1)
    num = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft, axis=1)[:, min_lag:top + 1]

    csum = np.zeros((m, n + 1))
    np.cumsum(frames * frames, axis=1, out=csum[:, 1:])
    # lag l: the head holds samples [0, n - l), the tail [l, n)
    e_head = csum[:, n - top:n - min_lag + 1][:, ::-1]
    e_tail = csum[:, n:] - csum[:, min_lag:top + 1]
    denom = np.sqrt(e_head * e_tail)
    np.divide(num, denom, out=out[:, : top - min_lag + 1], where=denom > 0.0)
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
    violation is scalar work, and a violation one n-vector add to z.  A
    violation at step k adds v_k * sum_{t>=k} 1/(lam*t) to sum_t w_t; the
    loop only records the violating steps, and these terms are summed once
    after it, in step order, so the sum rounds as a running sum would.
    G takes n^2 floats for n training rows, and the sum's buffer at most
    2**14 floats, or two rows of X where a row is longer.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    cw = np.ascontiguousarray(cw, dtype=np.float64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    steps = idx.size
    if steps == 0:
        raise ValueError("pegasos needs at least one step, got an empty idx")
    # X @ X.T runs as one BLAS syrk: about 0.075 ms against 0.88 ms for the
    # einsum at 80 x 683 on one thread, and the result is exactly symmetric
    cy = cw * y
    cyG = X @ X.T
    cyG *= cy[:, None]  # row j is the z-update of a violation at j
    # inv[t] = 1/(lam*t), with inv[0] = 0 so the first margin reads w_0 = 0
    inv = np.zeros(steps + 1)
    inv[1:] = 1.0 / (lam * np.arange(1, steps + 1))
    tail = np.cumsum(inv[:0:-1])[::-1]  # tail[t-1] = sum_{s>=t} inv[s]
    z = np.zeros(X.shape[0])
    b = 0.0
    b_sum = 0.0
    violated = bytearray(steps)  # 1 at each 0-based step that violates
    inv_l = inv.tolist()
    y_l, cw_l = y.tolist(), cw.tolist()
    cyG_rows = list(cyG)  # views made once, not at every violation
    for t, i in enumerate(idx.tolist()):
        if y_l[i] * (z.item(i) * inv_l[t] + b) < 1.0:
            z += cyG_rows[i]
            b += inv_l[t + 1] * cw_l[i] * y_l[i]
            violated[t] = 1
        b_sum += b
    hits = np.flatnonzero(violated)
    rows = idx[hits]
    coef = cy[rows] * tail[hits]
    # sum_k coef[k] * X[rows[k]] in step order, a block of rows at a time.
    # Row 0 of each block carries the running sum, and an axis-0 reduce
    # adds row after row, as the running sum did.  A single column would
    # be summed pairwise, in another order, so the buffer has at least two
    # columns
    d = X.shape[1]
    width = max(d, 2)
    per = max(2, _SUM_BLOCK_FLOATS // width)
    buf = np.zeros((min(per, rows.size + 1), width))
    for lo in range(0, rows.size, per - 1):
        hi = min(lo + per - 1, rows.size)
        blk = buf[: hi - lo + 1]
        np.multiply(coef[lo:hi, None], X[rows[lo:hi]], out=blk[1:, :d])
        buf[0] = np.add.reduce(blk, axis=0)
    return buf[0, :d] / steps, b_sum / steps
