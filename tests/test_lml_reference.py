"""`surrogate.log_marginal_likelihood` against the straightforward version
it was optimised from, kept here verbatim as the reference.

The optimised LML computes the pairwise differences, the per-dimension
squared differences and the identity once per fit, and sqrt(5) r, its
exponential and 1 + sqrt(5) r once per evaluation. It holds one (n, n)
difference array per dimension and adds the scaled squares in the order of
the reference's einsum. Every floating-point operation stays the same, so
the value, the gradient and the fitted model must equal the reference's to
the bit.
"""
import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky

from avstress import surrogate


# --- reference: the LML and its helpers before the per-fit reuse ---------

def ref_scaled_dist(a, b, ls):
    diff = (a[:, None, :] - b[None, :, :]) / ls
    return np.sqrt(np.maximum(np.einsum("ijk,ijk->ij", diff, diff), 0.0))


def ref_matern_of_r(r):
    c = math.sqrt(5.0)
    return (1.0 + c * r + 5.0 * r * r / 3.0) * np.exp(-c * r)


def ref_factor(K, noise_variance):
    n = K.shape[0]
    jitter = surrogate.JITTER_FLOOR
    while True:
        try:
            L = cholesky(K + (noise_variance + jitter) * np.eye(n), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            pass
        jitter *= 3.0
        if jitter > surrogate.JITTER_CEIL:
            raise np.linalg.LinAlgError(
                "covariance factorization failed even at maximum jitter"
            )


def ref_log_marginal_likelihood(inputs, targets, log_theta):
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    n, d = X.shape
    ls = np.exp(log_theta[:d])
    sf2 = math.exp(2.0 * log_theta[d])
    sn2 = math.exp(2.0 * log_theta[d + 1])

    r = ref_scaled_dist(X, X, ls)
    K = sf2 * ref_matern_of_r(r)
    L, jitter = ref_factor(K, sn2)
    alpha = cho_solve((L, True), y)
    ll = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    Kinv = cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv

    grad = np.empty(d + 2)
    g = (5.0 / 3.0) * (1.0 + math.sqrt(5.0) * r) * np.exp(-math.sqrt(5.0) * r)
    for k in range(d):
        d2 = (X[:, k, None] - X[None, :, k]) ** 2 / ls[k] ** 2
        dK = sf2 * g * d2
        grad[k] = 0.5 * float(np.sum(W * dK))
    grad[d] = 0.5 * float(np.sum(W * (2.0 * K)))
    grad[d + 1] = 0.5 * float(np.trace(W)) * 2.0 * sn2
    return ll, grad


# --- helpers -------------------------------------------------------------

def fit_box(d):
    """fit's log-parameter bounds for standardized targets (std 1)."""
    lo = np.array([math.log(0.05)] * d + [math.log(0.1), math.log(1e-4)])
    hi = np.array([math.log(2.0)] * d + [math.log(10.0), math.log(1.0)])
    return lo, hi


def standardized(y):
    return (y - y.mean()) / y.std()


def hexes(ll, grad):
    return [float(ll).hex()] + [float(v).hex() for v in grad]


def history(n=100, d=6, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(4.0 * X[:, 0]) + X[:, 1] * X[:, 2] - 0.5 * X[:, 3] + 0.1 * rng.normal(size=n)
    return X, y


def model_bits(model):
    p = model.params
    return (
        [float(p.signal_variance).hex(), float(p.noise_variance).hex()]
        + [float(v).hex() for v in p.length_scales],
        model.chol.tobytes(),
        model.alpha.tobytes(),
    )


# --- tests ---------------------------------------------------------------

# 6 is the crowd workload's prompt; 7, 8, 9 and 18 straddle the blocks of 8
# in which np.einsum adds, and 18 is the 9-agent prompt
@pytest.mark.parametrize("d", [2, 6, 7, 8, 9, 18])
@pytest.mark.parametrize("n", [2, 3, 10, 100])
def test_value_and_gradient_equal_reference_bits(n, d):
    rng = np.random.default_rng(100 * n + d)
    X = rng.random((n, d))
    z = standardized(rng.normal(size=n))
    lo, hi = fit_box(d)
    pairs = surrogate.fit_pairs(X)
    for _ in range(40):
        theta = lo + rng.random(d + 2) * (hi - lo)
        expected = hexes(*ref_log_marginal_likelihood(X, z, theta))
        assert hexes(*surrogate.log_marginal_likelihood(pairs, z, theta)) == expected


def test_duplicated_inputs_escalate_jitter_with_reference_bits():
    rng = np.random.default_rng(21)
    X = rng.random((12, 2))
    X[6:] = X[:6]  # every input twice: K is singular without noise
    z = standardized(rng.normal(size=12))
    # the smallest noise and longest scales fit allows, and a signal scale
    # far above its bound, so that rounding in the factorization needs more
    # than the floor jitter
    theta = np.array([math.log(2.0), math.log(2.0), math.log(1e5), math.log(1e-4)])
    sf2, sn2 = math.exp(2.0 * theta[2]), math.exp(2.0 * theta[3])
    K = sf2 * ref_matern_of_r(ref_scaled_dist(X, X, np.exp(theta[:2])))
    _, jitter = ref_factor(K, sn2)
    assert jitter > surrogate.JITTER_FLOOR
    assert hexes(*surrogate.log_marginal_likelihood(surrogate.fit_pairs(X), z, theta)) == hexes(
        *ref_log_marginal_likelihood(X, z, theta)
    )


@pytest.fixture(scope="module")
def fitted():
    X, y = history()
    return X, y, surrogate.fit(X, y)


def test_fit_equals_fit_on_reference_bits(fitted, monkeypatch):
    X, y, model = fitted

    def reference(pairs, z, log_theta):
        # fit's inputs, which the reference takes instead of their pairs
        return ref_log_marginal_likelihood(X, z, log_theta)

    monkeypatch.setattr(surrogate, "log_marginal_likelihood", reference)
    assert model_bits(surrogate.fit(X, y)) == model_bits(model)


def test_fit_bits_do_not_depend_on_blas_threads(fitted):
    X, y, model = fitted
    # fit runs on one BLAS thread; its undecorated body runs the likelihood
    # on the caller's count
    assert model_bits(surrogate.fit.__wrapped__(X, y)) == model_bits(model)


def test_scratch_reuse_leaks_nothing_between_evaluations():
    # one fit's pairs, whose scratch every evaluation overwrites: each θ
    # gives the reference's bits whatever was evaluated before it, also
    # straight after an evaluation that raised and one that escalated the
    # jitter (every input twice, as in the test above)
    rng = np.random.default_rng(21)
    X = rng.random((12, 2))
    X[6:] = X[:6]
    z = standardized(rng.normal(size=12))
    pairs = surrogate.fit_pairs(X)
    lo, hi = fit_box(2)
    escalating = np.array([math.log(2.0), math.log(2.0), math.log(1e5), math.log(1e-4)])
    K = math.exp(2.0 * escalating[2]) * ref_matern_of_r(ref_scaled_dist(X, X, np.full(2, 2.0)))
    assert ref_factor(K, math.exp(2.0 * escalating[3]))[1] > surrogate.JITTER_FLOOR
    nan_theta = np.array([np.nan, 0.0, 0.0, math.log(0.1)])
    t = [lo + rng.random(4) * (hi - lo) for _ in range(4)]
    sequence = [t[0], nan_theta, t[1], escalating, t[2], t[3]]
    for theta in sequence + sequence[::-1]:
        if theta is nan_theta:
            with pytest.raises(ValueError):
                surrogate.log_marginal_likelihood(pairs, z, theta)
        else:
            expected = hexes(*ref_log_marginal_likelihood(X, z, theta))
            assert hexes(*surrogate.log_marginal_likelihood(pairs, z, theta)) == expected


def ref_length_scale_gradient(X, z, log_theta, k, l_squared):
    """The reference's gradient in log l_k, with l_k^2 given."""
    n, d = X.shape
    sf2 = math.exp(2.0 * log_theta[d])
    r = ref_scaled_dist(X, X, np.exp(log_theta[:d]))
    L, _ = ref_factor(sf2 * ref_matern_of_r(r), math.exp(2.0 * log_theta[d + 1]))
    alpha = cho_solve((L, True), z)
    W = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(n))
    g = (5.0 / 3.0) * (1.0 + math.sqrt(5.0) * r) * np.exp(-math.sqrt(5.0) * r)
    dK = sf2 * g * ((X[:, k, None] - X[None, :, k]) ** 2 / l_squared)
    return 0.5 * float(np.sum(W * dK))


def test_length_scale_square_is_a_scalar_pow():
    # the gradient divides by l ** 2, a libm pow of one float, which for a
    # few l differs in the last bit from l * l, what an array's ** 2
    # computes; the first seeded θ with such an l pins the pow
    rng = np.random.default_rng(7)
    n, d = 20, 6
    X = rng.random((n, d))
    z = standardized(rng.normal(size=n))
    lo, hi = fit_box(d)
    while True:
        theta = lo + rng.random(d + 2) * (hi - lo)
        ls = np.exp(theta[:d]).tolist()
        differing = [k for k in range(d) if ls[k] ** 2 != ls[k] * ls[k]]
        if differing:
            break
    k = differing[0]
    expected = hexes(*ref_log_marginal_likelihood(X, z, theta))
    assert expected[1 + k] == float(ref_length_scale_gradient(X, z, theta, k, ls[k] ** 2)).hex()
    assert expected[1 + k] != float(ref_length_scale_gradient(X, z, theta, k, ls[k] * ls[k])).hex()
    assert hexes(*surrogate.log_marginal_likelihood(surrogate.fit_pairs(X), z, theta)) == expected
