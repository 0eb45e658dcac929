"""Gaussian-process regression over the unit-square prompt space.

Matern kernel with per-dimension (ARD) length scales, exact inference via
Cholesky factorization, and hyperparameter selection by maximizing the log
marginal likelihood from multiple deterministic starts. Targets are
standardized internally so acquisition weights are scale-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from .sobol import sobol_points

JITTER_FLOOR = 1e-8
JITTER_CEIL = 1e-4


class InsufficientDataError(ValueError):
    """Raised when a GP fit is requested with fewer than 2 observations."""


@dataclass(frozen=True)
class KernelParams:
    signal_variance: float
    length_scales: Tuple[float, ...]
    noise_variance: float
    nu: float = 2.5

    def __post_init__(self):
        if self.signal_variance <= 0 or any(l <= 0 for l in self.length_scales):
            raise ValueError("kernel amplitudes and length scales must be positive")
        if self.noise_variance < JITTER_FLOOR:
            object.__setattr__(self, "noise_variance", JITTER_FLOOR)
        if self.nu not in (1.5, 2.5):
            raise ValueError("supported Matern smoothness: 1.5 or 2.5")


def _scaled_dist(a: np.ndarray, b: np.ndarray, ls: np.ndarray) -> np.ndarray:
    diff = (a[:, None, :] - b[None, :, :]) / ls
    return np.sqrt(np.maximum(np.einsum("ijk,ijk->ij", diff, diff), 0.0))


def _matern_of_r(r: np.ndarray, nu: float) -> np.ndarray:
    if nu == 2.5:
        c = math.sqrt(5.0)
        return (1.0 + c * r + 5.0 * r * r / 3.0) * np.exp(-c * r)
    c = math.sqrt(3.0)
    return (1.0 + c * r) * np.exp(-c * r)


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    r = _scaled_dist(np.atleast_2d(a), np.atleast_2d(b), np.asarray(params.length_scales))
    return params.signal_variance * _matern_of_r(r, params.nu)


def matern52(a: Sequence[float], b: Sequence[float], params: KernelParams) -> float:
    """Matern covariance between two prompts (nu taken from params)."""
    return float(kernel_matrix(np.atleast_2d(a), np.atleast_2d(b), params)[0, 0])


def _factor(K: np.ndarray, noise_variance: float) -> Tuple[np.ndarray, float]:
    """Cholesky of K + (noise + jitter) I, escalating jitter while the matrix
    is not positive definite. Any other error, such as the ValueError for a
    non-finite matrix, propagates at once: more jitter cannot fix it."""
    n = K.shape[0]
    jitter = JITTER_FLOOR
    while True:
        try:
            L = cholesky(K + (noise_variance + jitter) * np.eye(n), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            pass
        jitter *= 3.0
        if jitter > JITTER_CEIL:
            raise np.linalg.LinAlgError(
                "covariance factorization failed even at maximum jitter"
            )


@dataclass(frozen=True)
class GpModel:
    inputs: np.ndarray  # (n, d) prompts in [0,1]^d
    targets: np.ndarray  # (n,) raw scores
    params: KernelParams
    y_mean: float
    y_std: float
    chol: np.ndarray  # lower factor of K + sigma_n^2 I (standardized space)
    alpha: np.ndarray

    @property
    def n(self) -> int:
        return len(self.targets)


def build_model(
    inputs: np.ndarray,
    targets: np.ndarray,
    params: KernelParams,
    standardize: bool = False,
) -> GpModel:
    """Condition a GP with fixed hyperparameters on the given data."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if standardize:
        y_mean = float(np.mean(y))
        std = float(np.std(y))
        y_std = std if std > 1e-9 else 1.0
    else:
        y_mean, y_std = 0.0, 1.0
    z = (y - y_mean) / y_std
    K = kernel_matrix(X, X, params)
    L, _ = _factor(K, params.noise_variance)
    alpha = cho_solve((L, True), z)
    return GpModel(
        inputs=X, targets=y, params=params, y_mean=y_mean, y_std=y_std,
        chol=L, alpha=alpha,
    )


def log_marginal_likelihood(
    inputs: np.ndarray, targets: np.ndarray, log_theta: np.ndarray, nu: float = 2.5
) -> Tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient in log-parameter space.

    log_theta = [log l_1 .. log l_d, log sigma_f, log sigma_n] with sigma_f
    and sigma_n the signal and noise standard deviations.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    n, d = X.shape
    ls = np.exp(log_theta[:d])
    sf2 = math.exp(2.0 * log_theta[d])
    sn2 = math.exp(2.0 * log_theta[d + 1])

    r = _scaled_dist(X, X, ls)
    f = _matern_of_r(r, nu)
    K = sf2 * f
    L, jitter = _factor(K, sn2)
    alpha = cho_solve((L, True), y)
    ll = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    # dL/dtheta_k = 0.5 tr((alpha alpha^T - K_inv) dK/dtheta_k)
    Kinv = cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv

    grad = np.empty(d + 2)
    # g(r) = -f'(r)/r, finite at r = 0
    if nu == 2.5:
        g = (5.0 / 3.0) * (1.0 + math.sqrt(5.0) * r) * np.exp(-math.sqrt(5.0) * r)
    else:
        g = 3.0 * np.exp(-math.sqrt(3.0) * r)
    for k in range(d):
        d2 = (X[:, k, None] - X[None, :, k]) ** 2 / ls[k] ** 2
        dK = sf2 * g * d2  # w.r.t. log l_k
        grad[k] = 0.5 * float(np.sum(W * dK))
    grad[d] = 0.5 * float(np.sum(W * (2.0 * K)))  # w.r.t. log sigma_f
    grad[d + 1] = 0.5 * float(np.trace(W)) * 2.0 * sn2  # w.r.t. log sigma_n
    return ll, grad


def fit(inputs: np.ndarray, targets: np.ndarray, nu: float = 2.5) -> GpModel:
    """Fit hyperparameters by multi-start MLE and condition on the data.

    Eight L-BFGS starts are taken from a Sobol grid over the log-parameter
    box; targets are standardized internally and de-standardized on
    prediction.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if len(y) < 2:
        raise InsufficientDataError("GP fit needs at least 2 observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    n, d = X.shape

    y_mean = float(np.mean(y))
    std = float(np.std(y))
    y_std = std if std > 1e-9 else 1.0
    z = (y - y_mean) / y_std
    z_std = float(np.std(z))
    if z_std < 1e-9:
        z_std = 1.0

    lo = np.array([math.log(0.05)] * d + [math.log(0.1 * z_std), math.log(1e-4)])
    hi = np.array([math.log(2.0)] * d + [math.log(10.0 * z_std), math.log(z_std)])
    bounds = list(zip(lo, hi))
    starts = lo + sobol_points(8, dim=d + 2, start=1) * (hi - lo)

    def objective(log_theta):
        ll, grad = log_marginal_likelihood(X, z, log_theta, nu=nu)
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
    params = KernelParams(
        signal_variance=math.exp(2.0 * theta[d]),
        length_scales=tuple(np.exp(theta[:d])),
        noise_variance=max(math.exp(2.0 * theta[d + 1]), JITTER_FLOOR),
        nu=nu,
    )
    K = kernel_matrix(X, X, params)
    L, _ = _factor(K, params.noise_variance)
    alpha = cho_solve((L, True), z)
    return GpModel(
        inputs=X, targets=y, params=params, y_mean=y_mean, y_std=y_std,
        chol=L, alpha=alpha,
    )


def posterior_batch(model: GpModel, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
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


def posterior(model: GpModel, x: Sequence[float]) -> Tuple[float, float]:
    mean, var = posterior_batch(model, np.atleast_2d(x))
    return float(mean[0]), float(var[0])


def posterior_grid(model: GpModel, resolution: int) -> np.ndarray:
    """Row-major (resolution^2, 4) array of (u1, u2, mean, variance)."""
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    lin = np.linspace(0.0, 1.0, resolution)
    pts = np.array([(u1, u2) for u1 in lin for u2 in lin])
    mean, var = posterior_batch(model, pts)
    return np.column_stack([pts, mean, var])
