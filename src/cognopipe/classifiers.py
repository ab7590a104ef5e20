"""From-scratch linear classifiers over feature vectors.

Both trainers minimize a class-weighted, sample-averaged loss plus an L2
penalty on the weights (never the bias):

    J(w, b) = (1/W) * sum_i cw_i * loss_i  +  (lambda/2) * ||w||^2

with W = sum_i cw_i.  Normalizing by total class weight makes
"duplicate every Case sample k times" and "weight Case by k" the same
objective, which the tests exploit.  Logistic regression runs Newton with
Armijo backtracking; its Hessian is solved in n x n by Woodbury, for n
training rows, so a step costs one n x n solve whatever the feature count.
The linear SVM runs Pegasos (stochastic subgradient, step 1/(lambda*t),
averaged iterates), whose kernel works in Gram form and so holds an n x n
matrix as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import kernels
from .errors import TrainingError


class ModelKind(enum.Enum):
    LOGISTIC_REGRESSION = "LogisticRegression"
    LINEAR_SVM = "LinearSVM"


@dataclass(frozen=True, eq=False)
class StandardizerParams:
    mean: np.ndarray
    std: np.ndarray
    fitted_subjects: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise TrainingError("fit_standardizer", "mean/std shape mismatch")


@dataclass(frozen=True, eq=False)
class LinearModel:
    kind: ModelKind
    weights: np.ndarray
    bias: float
    l2_lambda: float
    class_weights: tuple[float, float]  # (w_case, w_control)
    training_meta: Mapping[str, float] = field(default_factory=dict)
    fitted_subjects: frozenset[str] = frozenset()


def fit_standardizer(
    X_train: np.ndarray, fitted_subjects: frozenset[str] = frozenset()
) -> StandardizerParams:
    """Per-column mean and population std of the training matrix."""
    X = np.asarray(X_train, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TrainingError("fit_standardizer", f"need a non-empty 2-D matrix, got {X.shape}")
    return StandardizerParams(
        mean=X.mean(axis=0), std=X.std(axis=0), fitted_subjects=fitted_subjects
    )


def apply_standardizer(x: np.ndarray, params: StandardizerParams) -> np.ndarray:
    """(x - mean) / std, with zero-variance columns mapped to 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.mean.size:
        raise TrainingError(
            "apply_standardizer",
            f"dim mismatch: x has {x.shape[-1]}, standardizer has {params.mean.size}",
        )
    safe = np.where(params.std > 0, params.std, 1.0)
    out = (x - params.mean) / safe
    return np.where(params.std > 0, out, 0.0)


def balanced_class_weights(n_case: int, n_control: int) -> tuple[float, float]:
    """Inverse-frequency weights; equal-sized classes give (1.0, 1.0)."""
    n = n_case + n_control
    return (n / (2.0 * n_case), n / (2.0 * n_control))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_training_inputs(op: str, X: np.ndarray, y: np.ndarray, classes) -> None:
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise TrainingError(op, f"shape mismatch: X {X.shape}, y {y.shape}")
    if not np.all(np.isfinite(X)):
        raise TrainingError(op, "non-finite values in X")
    present = set(y.tolist())
    if not present <= set(classes):
        raise TrainingError(op, f"labels must be in {sorted(classes)}, got {sorted(present)}")
    if len(present) < 2:
        raise TrainingError(op, f"training labels contain a single class: {sorted(present)}")


def logistic_objective_grad(
    X: np.ndarray, y: np.ndarray, cw: np.ndarray, lam: float, w: np.ndarray, b: float
):
    """Weighted-average cross-entropy + L2; returns (J, grad_w, grad_b)."""
    W = cw.sum()
    z = X @ w + b
    # log(1 + e^z) - y*z, computed stably
    losses = np.logaddexp(0.0, z) - y * z
    J = float((cw * losses).sum() / W + 0.5 * lam * (w @ w))
    resid = cw * (_sigmoid(z) - y)
    grad_w = X.T @ resid / W + lam * w
    grad_b = float(resid.sum() / W)
    return J, grad_w, grad_b


def _newton_direction(X: np.ndarray, G: np.ndarray, s: np.ndarray, lam: float,
                      gw: np.ndarray, gb: float) -> tuple[np.ndarray, float]:
    """Newton direction (dw, db) of the logistic objective, or -gradient.

    Solves H [dw; db] = -[gw; gb] for the Hessian
        H = [[A, u], [u^T, sum(s)]],  A = X^T S X + lam I,  u = X^T s,
    with S = diag(s), s_i = cw_i p_i (1 - p_i) / W, without forming H.
    With r = sqrt(s) and the n x n SPD K = lam I + R G R, G = X X^T, Woodbury
    gives A^-1 v = (v - X^T R K^-1 R X v) / lam, and since u = X^T R r:
        A^-1 u = X^T R K^-1 r,   u^T A^-1 v = r . K^-1 R X v,
    so the unpenalized bias's Schur complement sum(s) - u^T A^-1 u equals
    lam * r . K^-1 r, free of cancellation.  One solve with two right-hand
    sides gives the step.  It falls back to -gradient where the step does
    not exist in floats: K is singular, every s_i is 0 (all p(1 - p)
    underflowed), the Schur complement is not positive, or the direction
    is not finite or not a descent direction.
    """
    r = np.sqrt(s)
    K = r[:, None] * G * r
    K.flat[:: K.shape[0] + 1] += lam
    try:
        t_g, t_r = np.linalg.solve(K, np.column_stack((r * (X @ gw), r))).T
    except np.linalg.LinAlgError:  # K singular in floats: lam is below G's rounding
        return -gw, -gb
    schur = lam * float(r @ t_r)
    if schur > 0.0:
        a_g, a_u = (X.T @ (r[:, None] * np.column_stack((t_g, t_r)))).T
        with np.errstate(over="ignore", invalid="ignore"):
            db = (float(r @ t_g) - gb) / schur
            dw = (a_g - gw) / lam - db * a_u
            slope = float(gw @ dw) + gb * db
        if np.isfinite(slope) and np.all(np.isfinite(dw)) and slope < 0.0:
            return dw, db
    return -gw, -gb


def train_logistic(
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float = 1.0,
    max_iters: int = 500,
    tol: float = 1e-6,
    class_weights: tuple[float, float] | None = None,
    fitted_subjects: frozenset[str] = frozenset(),
) -> LinearModel:
    """Newton with Armijo backtracking; Hessian solved in n x n by Woodbury.

    y is {0, 1} with Case = 1.  Each step moves along the Newton direction
    of _newton_direction, halving the step from 1 until the Armijo
    condition holds; G = X X^T is built once per fit.  Stops when the
    gradient infinity-norm drops below tol or after max_iters accepted
    Newton steps.  The objective is asserted non-increasing at every
    accepted step.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_training_inputs("train_logistic", X, y, (0.0, 1.0))
    if l2_lambda <= 0:
        raise TrainingError("train_logistic", f"l2_lambda must be > 0, got {l2_lambda}")
    if class_weights is None:
        class_weights = balanced_class_weights(int(y.sum()), int((1 - y).sum()))
    cw = np.where(y == 1.0, class_weights[0], class_weights[1])
    # X @ X.T runs as one BLAS syrk: about 0.075 ms against 0.88 ms for the
    # einsum at 80 x 683 on one thread, and the result is exactly symmetric
    G = X @ X.T
    W = cw.sum()

    w = np.zeros(X.shape[1])
    b = 0.0
    J, gw, gb = logistic_objective_grad(X, y, cw, l2_lambda, w, b)
    iters = 0
    converged = False
    while True:
        if max(np.max(np.abs(gw)), abs(gb)) < tol:
            converged = True
            break
        if iters == max_iters:
            break
        p = _sigmoid(X @ w + b)
        dw, db = _newton_direction(X, G, cw * p * (1.0 - p) / W, l2_lambda, gw, gb)
        slope = float(gw @ dw) + gb * db
        step = 1.0
        # backtrack until the Armijo condition holds
        for _ in range(60):
            w_new = w + step * dw
            b_new = b + step * db
            J_new, gw_new, gb_new = logistic_objective_grad(
                X, y, cw, l2_lambda, w_new, b_new
            )
            if J_new <= J + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            converged = True  # no descent possible at float resolution
            break
        if J_new > J + 1e-12:
            raise TrainingError(
                "train_logistic", f"objective increased ({J} -> {J_new}) on an accepted step"
            )
        w, b, J, gw, gb = w_new, b_new, J_new, gw_new, gb_new
        iters += 1

    return LinearModel(
        kind=ModelKind.LOGISTIC_REGRESSION,
        weights=w,
        bias=b,
        l2_lambda=l2_lambda,
        class_weights=class_weights,
        training_meta={"iterations": iters, "final_objective": J, "converged": converged},
        fitted_subjects=fitted_subjects,
    )


def svm_objective(
    X: np.ndarray, y: np.ndarray, cw: np.ndarray, lam: float, w: np.ndarray, b: float
) -> float:
    """Weighted-average hinge loss + L2 penalty on w."""
    margins = y * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float((cw * hinge).sum() / cw.sum() + 0.5 * lam * (w @ w))


def train_linear_svm(
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float = 1.0,
    epochs: int = 50,
    seed: int = 0,
    class_weights: tuple[float, float] | None = None,
    fitted_subjects: frozenset[str] = frozenset(),
) -> LinearModel:
    """Pegasos with averaged iterates; y is {-1, +1} with Case = +1.

    Visits epochs*N uniformly sampled (with replacement) training rows;
    the sample index sequence is floor(u_t * N) over seeded uniforms, so
    runs are deterministic given the seed.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_training_inputs("train_linear_svm", X, y, (-1.0, 1.0))
    if l2_lambda <= 0:
        raise TrainingError("train_linear_svm", f"l2_lambda must be > 0, got {l2_lambda}")
    n = X.shape[0]
    if class_weights is None:
        class_weights = balanced_class_weights(int((y > 0).sum()), int((y < 0).sum()))
    cw = np.where(y > 0, class_weights[0], class_weights[1])
    # fold the 1/W normalization into the per-sample weights so the
    # stochastic subgradient is unbiased for the averaged objective
    cw_scaled = cw * (n / cw.sum())

    rng = np.random.default_rng(seed)
    steps = epochs * n
    idx = np.floor(rng.random(steps) * n).astype(np.int64)
    w, b = kernels.pegasos(X, y, cw_scaled, l2_lambda, idx)
    return LinearModel(
        kind=ModelKind.LINEAR_SVM,
        weights=w,
        bias=float(b),
        l2_lambda=l2_lambda,
        class_weights=class_weights,
        training_meta={
            "epochs": epochs,
            "steps": steps,
            "final_objective": svm_objective(X, y, cw, l2_lambda, w, float(b)),
        },
        fitted_subjects=fitted_subjects,
    )


def decision_score(x: np.ndarray, model: LinearModel):
    """Positive favors Case: LR gives its Case probability - 0.5, the SVM its
    signed margin.  A scalar for a single vector, an array for a matrix."""
    z = np.asarray(x, dtype=np.float64) @ model.weights + model.bias
    score = np.atleast_1d(z)
    if model.kind is ModelKind.LOGISTIC_REGRESSION:
        score = _sigmoid(score) - 0.5
    return float(score[0]) if np.ndim(z) == 0 else score
