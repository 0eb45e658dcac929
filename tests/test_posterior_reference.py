"""`surrogate.posterior_batch` against the single-shot version it was
optimised from, kept here verbatim as the reference, with the einsum
kernel it called then.

The optimised posterior runs one block of candidates at a time, the two
BLAS calls included, so no (n, m) array exists. Each entry of the
cross-covariance is computed alone, so the kernel's blocks of at most
`surrogate.POSTERIOR_BLOCK` candidates do not change a bit. The BLAS calls
keep their bits only because the blocks start at multiples of
`surrogate.POSTERIOR_BLOCK` and the remainder joins the last full block: a
lone narrower tail takes another gemv and trsm path and rounds apart. The
candidate counts 513 and 1025 below catch such a tail, and the mean and the
variance must equal the reference's to the bit. Each kernel call holds one
(n, m) difference array per dimension and adds the squares in einsum's
order, so it too must match the reference's bits.
"""
import contextlib
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from avstress import surrogate
from avstress.surrogate import KernelParams, build_model, kernel_matrix


# --- reference: posterior_batch before the blocked cross-covariance -------

def _scaled_dist(delta: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Scaled distances from the (m, n, d) pairwise differences `delta`."""
    diff = delta / ls
    return np.sqrt(np.maximum(np.einsum("ijk,ijk->ij", diff, diff), 0.0))


def _matern_of_r(r: np.ndarray, exp_r: np.ndarray) -> np.ndarray:
    """Matern-5/2 correlation at r, given exp_r = exp(-sqrt(5) r)."""
    c = math.sqrt(5.0)
    return (1.0 + c * r + 5.0 * r * r / 3.0) * exp_r


def ref_kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    r = _scaled_dist(a[:, None, :] - b[None, :, :], np.asarray(params.length_scales))
    return params.signal_variance * _matern_of_r(r, np.exp(-math.sqrt(5.0) * r))


def ref_posterior_batch(model, xs):
    """Posterior mean and variance (raw score units) at each query row."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if model.n == 0:
        mean = np.full(len(xs), model.y_mean)
        var = np.full(len(xs), model.params.signal_variance * model.y_std**2)
        return mean, var
    k_star = ref_kernel_matrix(model.inputs, xs, model.params)  # (n, m)
    mean_z = k_star.T @ model.alpha
    v = solve_triangular(model.chol, k_star, lower=True)
    var_z = model.params.signal_variance - np.sum(v * v, axis=0)
    var_z = np.maximum(var_z, 0.0)
    return model.y_mean + model.y_std * mean_z, model.y_std**2 * var_z


# --- helpers -------------------------------------------------------------

# candidate counts on both sides of the block edges, and the 4,171
# candidates a 6-D GP-UCB prompt scores at budget 100
M_CASES = [1, 511, 512, 513, 1025, 4171]


def hexes(values):
    return [float(v).hex() for v in values]


def model_and_candidates(n, d, m):
    rng = np.random.default_rng([n, d, m])
    X = rng.random((n, d))
    y = np.sin(4.0 * X[:, 0]) + X[:, 1] - 0.3 * rng.normal(size=n)
    params = KernelParams(
        signal_variance=float(rng.uniform(0.1, 10.0)),
        length_scales=tuple(rng.uniform(0.05, 2.0, d)),
        noise_variance=float(rng.uniform(1e-8, 1e-2)),
    )
    model = build_model(X, y, params)
    xs = rng.random((m, d))
    xs[: min(n, m)] = X[: min(n, m)]  # the training inputs, where var is ~0
    return model, xs


# --- tests ---------------------------------------------------------------

def test_cases_straddle_the_block_edges():
    assert surrogate.POSTERIOR_BLOCK == 512


# 6 is the crowd workload's prompt; 7, 8, 9 and 18 straddle the blocks of 8
# in which np.einsum adds, and 18 is the 9-agent prompt
DIMS = [2, 6, 7, 8, 9, 18]


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", [2, 33, 100])
def test_training_kernel_equals_reference_bits(n, d):
    # the K that build_model factorizes; the posterior tests below build
    # both sides' model with it
    rng = np.random.default_rng([n, d])
    X = rng.random((n, d))
    params = KernelParams(1.7, tuple(rng.uniform(0.05, 2.0, d)), 1e-3)
    assert kernel_matrix(X, X, params).tobytes() == ref_kernel_matrix(X, X, params).tobytes()


@pytest.mark.parametrize("m", M_CASES)
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", [2, 33, 100])
def test_posterior_equals_reference_bits(n, d, m, monkeypatch):
    model, xs = model_and_candidates(n, d, m)
    widths = []

    def recording_kernel_matrix(a, b, params):
        widths.append(len(b))
        return kernel_matrix(a, b, params)

    # posterior_batch runs on one BLAS thread; its undecorated body on the
    # caller's count
    for threads, posterior in ((contextlib.nullcontext, surrogate.posterior_batch.__wrapped__),
                               (surrogate.single_blas_thread, surrogate.posterior_batch)):
        widths.clear()
        with threads():
            expected = ref_posterior_batch(model, xs)
            with monkeypatch.context() as patch:
                patch.setattr(surrogate, "kernel_matrix", recording_kernel_matrix)
                mean, var = posterior(model, xs)
        assert hexes(mean) == hexes(expected[0])
        assert hexes(var) == hexes(expected[1])
        # one block of candidates at most per call: the peak memory saving
        assert sum(widths) == m
        assert max(widths) <= surrogate.POSTERIOR_BLOCK
        assert len(widths) == math.ceil(m / surrogate.POSTERIOR_BLOCK)
