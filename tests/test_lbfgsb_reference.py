"""`surrogate._lbfgsb`, the fit's L-BFGS-B driver, against
`scipy.optimize.minimize(method="L-BFGS-B")`, and `surrogate.fit` against
the `minimize`-based fit it was optimised from, kept here verbatim as the
reference.

The driver calls scipy's `setulb` in the loop that `minimize` runs, with
the same arguments, and evaluates the objective at the same points, so the
value, the point, the evaluation count and the iteration count must equal
`minimize`'s to the bit. `setulb` is private to scipy; a scipy whose
`minimize` changes its loop or arguments fails here.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from test_lml_reference import model_bits

from avstress import surrogate
from avstress.sobol import sobol_points


# --- reference: fit before the driver --------------------------------------

def ref_fit(inputs, targets):
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if len(y) < 2:
        raise surrogate.InsufficientDataError("GP fit needs at least 2 observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    d = X.shape[1]

    y_mean, y_std = surrogate._standardization(y)
    z = (y - y_mean) / y_std
    z_std = float(np.std(z))
    if z_std < 1e-9:
        z_std = 1.0

    lo = np.array([math.log(0.05)] * d + [math.log(0.1 * z_std), math.log(1e-4)])
    hi = np.array([math.log(2.0)] * d + [math.log(10.0 * z_std), math.log(z_std)])
    bounds = list(zip(lo, hi))
    starts = lo + sobol_points(8, dim=d + 2, start=1) * (hi - lo)
    pairs = surrogate.fit_pairs(X)

    def objective(log_theta):
        ll, grad = surrogate.log_marginal_likelihood(pairs, z, log_theta)
        return -ll, -grad

    best = None
    for x0 in starts:
        res = minimize(
            objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": 200},
        )
        if best is None or res.fun < best.fun:
            best = res
    assert best is not None
    theta = best.x
    params = surrogate.KernelParams(
        signal_variance=math.exp(2.0 * theta[d]),
        length_scales=tuple(np.exp(theta[:d])),
        noise_variance=math.exp(2.0 * theta[d + 1]),
    )
    return surrogate.build_model(X, y, params)


# --- helpers -------------------------------------------------------------

class Counted:
    """An objective that counts its calls."""

    def __init__(self, objective):
        self.objective = objective
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.objective(x)


def history(n, d, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(4.0 * X[:, 0]) + X[:, 1] * X[:, -1] + 0.1 * rng.normal(size=n)
    return X, y


def lml_problem(n, d):
    """The fit's negated LML objective on `history(n, d)`, its box and its
    8 starts, set up as fit sets them up."""
    X, y = history(n, d)
    z = (y - y.mean()) / y.std()
    z_std = float(np.std(z))
    lo = np.array([math.log(0.05)] * d + [math.log(0.1 * z_std), math.log(1e-4)])
    hi = np.array([math.log(2.0)] * d + [math.log(10.0 * z_std), math.log(z_std)])
    starts = lo + sobol_points(8, dim=d + 2, start=1) * (hi - lo)
    pairs = surrogate.fit_pairs(X)

    def objective(log_theta):
        ll, grad = surrogate.log_marginal_likelihood(pairs, z, log_theta)
        return -ll, -grad

    return objective, lo, hi, starts


def run_both(objective, x0, lo, hi, maxiter=200):
    """(minimize's result, the driver's result, the driver's objective
    calls)."""
    ref = minimize(
        objective, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
        options={"maxiter": maxiter},
    )
    counted = Counted(objective)
    return ref, surrogate._lbfgsb(counted, x0, lo, hi), counted.calls


def outcome(fun, x, nfev, nit):
    return float(fun).hex(), [float(v).hex() for v in x], nfev, nit


def assert_same_run(ref, run, calls):
    assert outcome(run.fun, run.x, run.nfev, run.nit) == outcome(
        ref.fun, ref.x, ref.nfev, ref.nit
    )
    assert calls == ref.nfev


# --- tests ---------------------------------------------------------------

# 2 and 6 are the preset and crowd prompts, 18 the 9-agent prompt; n = 99
# is the largest fit of a budget-100 campaign
@pytest.mark.parametrize("n, d", [(5, 2), (40, 6), (99, 6), (30, 18)])
def test_lml_starts_equal_minimize(n, d):
    objective, lo, hi, starts = lml_problem(n, d)
    for x0 in starts:
        assert_same_run(*run_both(objective, x0, lo, hi))


def test_start_outside_the_box_is_clipped_like_minimize():
    objective, lo, hi, starts = lml_problem(20, 6)
    x0 = starts[3].copy()
    x0[0] = hi[0] + 1.5
    x0[4] = lo[4] - 0.75
    x0[7] = lo[7] - 3.0
    ref, run, calls = run_both(objective, x0, lo, hi)
    assert_same_run(ref, run, calls)
    assert np.all((lo <= run.x) & (run.x <= hi))


def test_wrong_gradient_ends_abnormal_without_reevaluating_a_point():
    # the gradient points uphill, so the line search shrinks its step until
    # a trial point repeats the one before it; minimize answers that from
    # its memo, so the objective runs exactly nfev times
    centre = np.array([0.3, -0.4, 0.5])

    def uphill(x):
        return float(np.sum((x - centre) ** 2)), -2.0 * (x - centre)

    lo, hi = np.full(3, -2.0), np.full(3, 2.0)
    ref, run, calls = run_both(uphill, np.array([1.5, -1.0, 0.2]), lo, hi)
    assert ref.message.startswith("ABNORMAL")
    assert_same_run(ref, run, calls)


def test_iteration_cap_stops_like_minimize(monkeypatch):
    monkeypatch.setattr(surrogate, "LBFGS_MAXITER", 3)
    objective, lo, hi, starts = lml_problem(40, 6)
    ref, run, calls = run_both(objective, starts[0], lo, hi, maxiter=3)
    assert "ITERATIONS REACHED LIMIT" in ref.message
    assert run.nit == 3
    assert_same_run(ref, run, calls)


@pytest.mark.parametrize("d", [2, 6, 8, 18])
def test_fit_equals_minimize_based_fit_bits(d):
    X, y = history(n=30 + 2 * d, d=d, seed=d)
    assert model_bits(surrogate.fit(X, y)) == model_bits(ref_fit(X, y))
