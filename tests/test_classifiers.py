"""Standardizer, logistic regression, linear SVM.

The gradient and equivalence tests lean on independent restatements of the
objectives (plain loops, central differences) rather than the library's own
vectorized code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cognopipe import classifiers as cl
from cognopipe.errors import TrainingError


# ---------------------------------------------------------------------------
# oracles

def naive_logistic_objective(X, y, cw, lam, w, b):
    total, W = 0.0, 0.0
    for i in range(len(y)):
        z = float(np.dot(X[i], w)) + b
        total += cw[i] * (math.log(1.0 + math.exp(z)) - y[i] * z)
        W += cw[i]
    return total / W + 0.5 * lam * float(np.dot(w, w))


def central_diff_grad(X, y, cw, lam, w, b, eps=1e-6):
    gw = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = eps
        gw[j] = (
            naive_logistic_objective(X, y, cw, lam, w + e, b)
            - naive_logistic_objective(X, y, cw, lam, w - e, b)
        ) / (2 * eps)
    gb = (
        naive_logistic_objective(X, y, cw, lam, w, b + eps)
        - naive_logistic_objective(X, y, cw, lam, w, b - eps)
    ) / (2 * eps)
    return gw, gb


def naive_newton_direction(X, s, lam, gw, gb):
    """Dense solve of the full (d+1)x(d+1) Hessian system, built entry by entry."""
    n, d = X.shape
    H = np.zeros((d + 1, d + 1))
    for i in range(n):
        row = list(X[i]) + [1.0]
        for j in range(d + 1):
            for k in range(d + 1):
                H[j, k] += s[i] * row[j] * row[k]
    for j in range(d):
        H[j, j] += lam
    sol = np.linalg.solve(H, -np.append(gw, gb))
    return sol[:d], sol[d]


def blobs(n_per_class, loc, scale, seed):
    rng = np.random.default_rng(seed)
    X = np.concatenate([
        rng.normal(loc=(loc, loc), scale=scale, size=(n_per_class, 2)),
        rng.normal(loc=(-loc, -loc), scale=scale, size=(n_per_class, 2)),
    ])
    y = np.concatenate([np.ones(n_per_class), np.zeros(n_per_class)])
    return X, y


# ---------------------------------------------------------------------------
# standardizer

def test_standardizer_known_values():
    X = np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]])
    p = cl.fit_standardizer(X)
    assert np.array_equal(p.mean, [3.0, 10.0])
    assert abs(p.std[0] - math.sqrt(8.0 / 3.0)) < 1e-12
    assert p.std[1] == 0.0
    z = cl.apply_standardizer(np.array([5.0, 123.0]), p)
    assert abs(z[0] - 2.0 / math.sqrt(8.0 / 3.0)) < 1e-12
    assert z[1] == 0.0  # zero-variance column maps to 0, whatever the input
    Z = cl.apply_standardizer(X, p)
    assert np.allclose(Z.mean(axis=0), [0.0, 0.0], atol=1e-15)


def test_standardizer_affine_invariance():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 6))
    base = cl.apply_standardizer(X, cl.fit_standardizer(X))
    # scaling by a power of two is exact in binary float
    half = cl.apply_standardizer(0.5 * X, cl.fit_standardizer(0.5 * X))
    assert np.array_equal(half, base)
    shifted = cl.apply_standardizer(X + 7.25, cl.fit_standardizer(X + 7.25))
    assert np.allclose(shifted, base, atol=1e-12)


def test_standardizer_errors():
    with pytest.raises(TrainingError):
        cl.fit_standardizer(np.empty((0, 3)))
    with pytest.raises(TrainingError):
        cl.fit_standardizer(np.zeros(5))
    p = cl.fit_standardizer(np.ones((4, 3)))
    with pytest.raises(TrainingError):
        cl.apply_standardizer(np.zeros(2), p)


def test_balanced_class_weights():
    assert cl.balanced_class_weights(10, 10) == (1.0, 1.0)
    w_case, w_control = cl.balanced_class_weights(10, 30)
    assert w_case == 2.0 and abs(w_control - 2.0 / 3.0) < 1e-15
    # weighted counts balance out
    assert abs(10 * w_case - 30 * w_control) < 1e-12


# ---------------------------------------------------------------------------
# logistic regression

def test_logistic_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    for _ in range(3):
        X = rng.normal(size=(20, 5))
        y = (rng.random(20) < 0.5).astype(float)
        cw = np.where(y == 1.0, 1.3, 0.8)
        w = rng.normal(scale=0.5, size=5)
        b = float(rng.normal())
        J, gw, gb = cl.logistic_objective_grad(X, y, cw, 0.3, w, b)
        assert abs(J - naive_logistic_objective(X, y, cw, 0.3, w, b)) < 1e-12
        gw_ref, gb_ref = central_diff_grad(X, y, cw, 0.3, w, b)
        denom = max(np.max(np.abs(gw_ref)), abs(gb_ref), 1e-8)
        assert np.max(np.abs(gw - gw_ref)) / denom < 1e-5
        assert abs(gb - gb_ref) / denom < 1e-5


def test_logistic_separable_blobs():
    X, y = blobs(15, 1.5, 0.3, seed=2)
    m = cl.train_logistic(X, y, l2_lambda=0.01)
    p = cl.decision_score(X, m) + 0.5
    assert np.all((p > 0.5) == (y == 1.0))
    J0 = cl.logistic_objective_grad(
        X, y, np.ones(30), 0.01, np.zeros(2), 0.0
    )[0]
    assert m.training_meta["final_objective"] <= J0
    assert m.training_meta["iterations"] >= 1


def test_logistic_class_weight_equals_duplication():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    y = (rng.random(30) < 0.4).astype(float)
    m1 = cl.train_logistic(X, y, l2_lambda=0.1, class_weights=(2.0, 1.0))
    Xd = np.concatenate([X, X[y == 1.0]])
    yd = np.concatenate([y, np.ones(int(y.sum()))])
    m2 = cl.train_logistic(Xd, yd, l2_lambda=0.1, class_weights=(1.0, 1.0))
    assert np.allclose(m1.weights, m2.weights, atol=1e-12)
    assert abs(m1.bias - m2.bias) < 1e-12


def test_logistic_label_flip_negates_model():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    y = (rng.random(30) < 0.4).astype(float)
    m1 = cl.train_logistic(X, y, l2_lambda=0.1, class_weights=(2.0, 1.0))
    m2 = cl.train_logistic(X, 1.0 - y, l2_lambda=0.1, class_weights=(1.0, 2.0))
    assert np.allclose(m2.weights, -m1.weights, atol=1e-12)
    assert abs(m2.bias + m1.bias) < 1e-12


def test_logistic_rejects_bad_inputs():
    X = np.ones((4, 2))
    with pytest.raises(TrainingError):
        cl.train_logistic(X, np.ones(4))  # single class
    with pytest.raises(TrainingError):
        cl.train_logistic(X, np.array([0.0, 1.0, 2.0, 1.0]))  # label outside {0,1}
    with pytest.raises(TrainingError):
        cl.train_logistic(X, np.ones(3))  # shape mismatch
    Xn = X.copy()
    Xn[0, 0] = np.nan
    with pytest.raises(TrainingError):
        cl.train_logistic(Xn, np.array([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(TrainingError):
        cl.train_logistic(X, np.array([0.0, 1.0, 0.0, 1.0]), l2_lambda=0.0)


@pytest.mark.parametrize("n, d, n_dup, lam", [
    (30, 5, 0, 0.1),     # d < n
    (10, 60, 0, 0.1),    # d > n
    (12, 450, 0, 1e-3),  # d >> n
    (20, 4, 6, 0.1),     # duplicated rows: G is singular
    (8, 30, 4, 1e-2),
])
def test_newton_direction_matches_dense_hessian_solve(n, d, n_dup, lam):
    rng = np.random.default_rng(n * 1000 + d)
    X = rng.normal(size=(n, d))
    X = np.concatenate([X, X[:n_dup]])
    y = (rng.random(len(X)) < 0.5).astype(float)
    y[:2] = (1.0, 0.0)
    cw = np.where(y == 1.0, 1.4, 0.7)
    w = rng.normal(scale=0.3, size=d)
    b = 0.25
    _, gw, gb = cl.logistic_objective_grad(X, y, cw, lam, w, b)
    p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
    s = cw * p * (1.0 - p) / cw.sum()
    G = np.array([[float(np.dot(xi, xj)) for xj in X] for xi in X])
    dw, db = cl._newton_direction(X, G, s, lam, gw, gb)
    dw_ref, db_ref = naive_newton_direction(X, s, lam, gw, gb)
    got, want = np.append(dw, db), np.append(dw_ref, db_ref)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_newton_direction_falls_back_to_gradient_when_saturated():
    # margins of +-1000: every p is exactly 0 or 1, so every p(1-p) is 0,
    # the Hessian has no curvature along the bias and the Schur complement is 0
    X, y = blobs(6, 2.0, 0.1, seed=3)
    w = np.array([1000.0, 1000.0])
    cw = np.ones(12)
    _, gw, gb = cl.logistic_objective_grad(X, y, cw, 0.5, w, 0.0)
    p = cl._sigmoid(X @ w)
    s = cw * p * (1.0 - p) / cw.sum()
    assert not s.any()
    dw, db = cl._newton_direction(X, X @ X.T, s, 0.5, gw, gb)
    assert np.array_equal(dw, -gw) and db == -gb


def test_newton_direction_falls_back_to_gradient_when_k_is_singular():
    # a repeated row, and lam below the rounding of G's entries: K = lam I
    # + R G R has two equal rows in floats, and np.linalg.solve raises
    X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, -1.0], [-2.0, 1.0]])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    cw = np.ones(4)
    _, gw, gb = cl.logistic_objective_grad(X, y, cw, 1e-18, np.zeros(2), 0.0)
    s = np.full(4, 0.25 / cw.sum())  # p = 1/2 at w = 0
    G = X @ X.T
    K = np.sqrt(s)[:, None] * G * np.sqrt(s) + 1e-18 * np.eye(4)
    assert np.array_equal(K[0], K[1])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(K, np.ones(4))
    dw, db = cl._newton_direction(X, G, s, 1e-18, gw, gb)
    assert np.array_equal(dw, -gw) and db == -gb


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(40, 2), (200, 3), (30, 30), (12, 300), (8, 450)]),
    case_share=st.sampled_from([0.5, 0.25, 0.1]),
    separation=st.sampled_from([0.0, 0.5, 3.0, 10.0]),
    lam=st.sampled_from([1.0, 1e-2, 1e-4, 1e-6, 1e-8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_logistic_converges_to_the_optimum(shape, case_share, separation, lam, seed):
    """Separable or not, d << n or d >> n, balanced or not: every fit
    reaches the gradient tolerance within the default step budget."""
    n, d = shape
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    y[: max(1, round(case_share * n))] = 1.0
    X = rng.normal(size=(n, d)) + separation * np.outer(2.0 * y - 1.0, rng.normal(size=d))
    m = cl.train_logistic(X, y, l2_lambda=lam)
    cw = np.where(y == 1.0, *m.class_weights)
    J, gw, gb = cl.logistic_objective_grad(X, y, cw, lam, m.weights, m.bias)
    J0 = cl.logistic_objective_grad(X, y, cw, lam, np.zeros(d), 0.0)[0]
    assert m.training_meta["converged"] is True
    assert max(np.max(np.abs(gw)), abs(gb)) < 1e-6
    assert m.training_meta["final_objective"] == J <= J0


# ---------------------------------------------------------------------------
# linear SVM

def _pm(y01):
    return np.where(y01 == 1.0, 1.0, -1.0)


def test_svm_separates_easy_blobs_with_zero_hinge():
    X, y01 = blobs(15, 3.0, 0.1, seed=7)
    y = _pm(y01)
    m = cl.train_linear_svm(X, y, l2_lambda=0.01, epochs=50, seed=7)
    margins = y * (X @ m.weights + m.bias)
    assert np.all(margins >= 1.0)  # hinge loss exactly zero
    # objective then reduces to the regularization term alone
    want = 0.5 * 0.01 * float(m.weights @ m.weights)
    assert m.training_meta["final_objective"] == want


def test_svm_duplicated_rows_with_halved_epochs_identical():
    # floor(u*2N) // 2 == floor(u*N) exactly, so the sampled row sequence is
    # the same and the averaged iterates match bit for bit
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    y = _pm((rng.random(30) < 0.4).astype(float))
    m1 = cl.train_linear_svm(X, y, l2_lambda=0.1, epochs=20, seed=5,
                             class_weights=(2.0, 1.0))
    m2 = cl.train_linear_svm(np.repeat(X, 2, axis=0), np.repeat(y, 2),
                             l2_lambda=0.1, epochs=10, seed=5,
                             class_weights=(2.0, 1.0))
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_svm_label_flip_negates_model_exactly():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    y = _pm((rng.random(30) < 0.4).astype(float))
    m1 = cl.train_linear_svm(X, y, l2_lambda=0.1, epochs=20, seed=5,
                             class_weights=(2.0, 1.0))
    m2 = cl.train_linear_svm(X, -y, l2_lambda=0.1, epochs=20, seed=5,
                             class_weights=(1.0, 2.0))
    assert np.array_equal(m2.weights, -m1.weights)
    assert m2.bias == -m1.bias


def test_svm_objective_improves_with_epochs():
    X, y01 = blobs(20, 1.5, 0.4, seed=11)
    y = _pm(y01)
    objs = [
        cl.train_linear_svm(X, y, l2_lambda=0.5, epochs=e, seed=3).training_meta[
            "final_objective"
        ]
        for e in (1, 10, 100)
    ]
    assert objs[0] > objs[1] > objs[2]


def test_svm_objective_matches_naive_recount():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = _pm((rng.random(12) < 0.5).astype(float))
    cw = np.where(y > 0, 1.7, 0.6)
    w = rng.normal(size=3)
    b = 0.3
    total = sum(
        cw[i] * max(0.0, 1.0 - y[i] * (float(np.dot(X[i], w)) + b))
        for i in range(12)
    )
    want = total / cw.sum() + 0.5 * 0.2 * float(np.dot(w, w))
    assert abs(cl.svm_objective(X, y, cw, 0.2, w, b) - want) < 1e-12


def test_svm_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(24, 5))
    y = _pm((rng.random(24) < 0.5).astype(float))
    a = cl.train_linear_svm(X, y, epochs=10, seed=1)
    b = cl.train_linear_svm(X, y, epochs=10, seed=1)
    c = cl.train_linear_svm(X, y, epochs=10, seed=2)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    assert not np.array_equal(a.weights, c.weights)


def test_svm_rejects_bad_inputs():
    X = np.ones((4, 2))
    with pytest.raises(TrainingError):
        cl.train_linear_svm(X, np.ones(4))  # single class
    with pytest.raises(TrainingError):
        cl.train_linear_svm(X, np.array([0.0, 1.0, 0.0, 1.0]))  # wants {-1,+1}
    with pytest.raises(TrainingError):
        cl.train_linear_svm(X, np.array([-1.0, 1.0, -1.0, 1.0]), l2_lambda=0.0)


# ---------------------------------------------------------------------------
# prediction plumbing

def _tiny_models():
    X, y01 = blobs(10, 1.5, 0.3, seed=9)
    lr = cl.train_logistic(X, y01, l2_lambda=0.1)
    svm = cl.train_linear_svm(X, _pm(y01), l2_lambda=0.1, epochs=10, seed=9)
    return X, lr, svm


def test_predict_scalar_and_batch_shapes():
    X, lr, svm = _tiny_models()
    p_one = cl.decision_score(X[0], lr) + 0.5
    assert isinstance(p_one, float) and 0.0 < p_one < 1.0
    p_all = cl.decision_score(X, lr) + 0.5
    assert p_all.shape == (20,) and p_all[0] == p_one
    s_one = cl.decision_score(X[0], svm)
    assert isinstance(s_one, float)
    s_all = cl.decision_score(X, svm)
    assert s_all.shape == (20,) and s_all[0] == pytest.approx(s_one, rel=1e-12)


def test_decision_score_sign_convention():
    X, lr, svm = _tiny_models()
    # LR: Case probability - 0.5 from the sigmoid; SVM: the signed margin
    z_lr = X @ lr.weights + lr.bias
    assert np.allclose(cl.decision_score(X, lr), 1.0 / (1.0 + np.exp(-z_lr)) - 0.5,
                       rtol=0, atol=1e-15)
    assert cl.decision_score(X[0], svm) == X[0] @ svm.weights + svm.bias
    # positive score iff the probability favors Case, i.e. iff the margin is positive
    for x in X[:5]:
        assert (cl.decision_score(x, lr) > 0) == (x @ lr.weights + lr.bias > 0)
