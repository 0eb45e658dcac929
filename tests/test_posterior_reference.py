"""`surrogate.posterior_batch` against the single-shot version it was
optimised from, kept here verbatim as the reference.

The optimised posterior builds the (n, m) cross-covariance in blocks of
`surrogate.POSTERIOR_BLOCK` candidates, so the (n, m, d) differences never
exist at once, then runs the same two BLAS calls over the whole matrix.
Each entry of the cross-covariance is computed alone, so the blocks do not
change a bit; a BLAS call split into blocks would, which is why the mean
and the variance must equal the reference's to the bit.
"""
import contextlib
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from avstress import surrogate
from avstress.surrogate import KernelParams, build_model, kernel_matrix


# --- reference: posterior_batch before the blocked cross-covariance -------

def ref_posterior_batch(model, xs):
    """Posterior mean and variance (raw score units) at each query row."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if model.n == 0:
        mean = np.full(len(xs), model.y_mean)
        var = np.full(len(xs), model.params.signal_variance * model.y_std**2)
        return mean, var
    k_star = kernel_matrix(model.inputs, xs, model.params)  # (n, m)
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


@pytest.mark.parametrize("m", M_CASES)
@pytest.mark.parametrize("d", [2, 6, 8])
@pytest.mark.parametrize("n", [2, 33, 100])
def test_posterior_equals_reference_bits(n, d, m, monkeypatch):
    model, xs = model_and_candidates(n, d, m)
    widths = []

    def recording_kernel_matrix(a, b, params):
        widths.append(len(b))
        return kernel_matrix(a, b, params)

    for threads in (contextlib.nullcontext, surrogate.single_blas_thread):
        widths.clear()
        with threads():
            expected = ref_posterior_batch(model, xs)
            with monkeypatch.context() as patch:
                patch.setattr(surrogate, "kernel_matrix", recording_kernel_matrix)
                mean, var = surrogate.posterior_batch(model, xs)
        assert hexes(mean) == hexes(expected[0])
        assert hexes(var) == hexes(expected[1])
        # one block of candidates at most per call: the peak memory saving
        assert sum(widths) == m
        assert max(widths) <= surrogate.POSTERIOR_BLOCK
        assert len(widths) == math.ceil(m / surrogate.POSTERIOR_BLOCK)
