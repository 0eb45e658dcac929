"""Gaussian-process regression over the unit-square prompt space.

Matern-5/2 kernel with per-dimension (ARD) length scales, exact inference via
Cholesky factorization, and hyperparameter selection by maximizing the log
marginal likelihood from multiple deterministic starts. Targets are
standardized internally so acquisition weights are scale-free.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from .sobol import sobol_points

JITTER_FLOOR = 1e-8
JITTER_CEIL = 1e-4


@functools.cache
def _openblas_thread_controls() -> Tuple[Tuple[object, object], ...]:
    """(get, set) thread-count functions of each OpenBLAS that the numpy and
    scipy wheels ship in their `<package>.libs` directories (numpy's has the
    `64_` symbol suffix); empty where neither is found, e.g. another BLAS."""
    controls = []
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
            suffix = "64_" if "openblas64_" in os.path.basename(path) else ""
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextlib.contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the block with OpenBLAS on one thread, then restore the previous
    counts. The GP's matrices are a few hundred rows at most: a second
    thread doubles their CPU time and, up to about 100 rows, does not cut
    their wall time either. Results are the same to the bit on either count
    (tests/test_lml_reference.py). A no-op where no OpenBLAS is found."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


class InsufficientDataError(ValueError):
    """Raised when a GP fit is requested with fewer than 2 observations."""


@dataclass(frozen=True)
class KernelParams:
    signal_variance: float
    length_scales: Tuple[float, ...]
    noise_variance: float

    def __post_init__(self):
        if self.signal_variance <= 0 or any(l <= 0 for l in self.length_scales):
            raise ValueError("kernel amplitudes and length scales must be positive")
        if self.noise_variance < JITTER_FLOOR:
            object.__setattr__(self, "noise_variance", JITTER_FLOOR)


def _scaled_dist(delta: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Scaled distances from the (m, n, d) pairwise differences `delta`."""
    diff = delta / ls
    return np.sqrt(np.maximum(np.einsum("ijk,ijk->ij", diff, diff), 0.0))


def _matern_of_r(r: np.ndarray, exp_r: np.ndarray) -> np.ndarray:
    """Matern-5/2 correlation at r, given exp_r = exp(-sqrt(5) r)."""
    c = math.sqrt(5.0)
    return (1.0 + c * r + 5.0 * r * r / 3.0) * exp_r


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    r = _scaled_dist(a[:, None, :] - b[None, :, :], np.asarray(params.length_scales))
    return params.signal_variance * _matern_of_r(r, np.exp(-math.sqrt(5.0) * r))


def _factor(
    K: np.ndarray, noise_variance: float, eye: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, float]:
    """Cholesky of K + (noise + jitter) I, escalating jitter while the matrix
    is not positive definite; `eye`, when given, is K's identity. Any other
    error, such as the ValueError for a non-finite matrix, propagates at
    once: more jitter cannot fix it."""
    if eye is None:
        eye = np.eye(K.shape[0])
    jitter = JITTER_FLOOR
    while True:
        try:
            L = cholesky(K + (noise_variance + jitter) * eye, lower=True)
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


def _standardization(y: np.ndarray) -> Tuple[float, float]:
    """(mean, std) that map raw targets to zero mean and unit spread; a
    constant target vector keeps std 1."""
    std = float(np.std(y))
    return float(np.mean(y)), std if std > 1e-9 else 1.0


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
    y_mean, y_std = _standardization(y) if standardize else (0.0, 1.0)
    z = (y - y_mean) / y_std
    K = kernel_matrix(X, X, params)
    L, _ = _factor(K, params.noise_variance)
    alpha = cho_solve((L, True), z, check_finite=False)
    return GpModel(
        inputs=X, targets=y, params=params, y_mean=y_mean, y_std=y_std,
        chol=L, alpha=alpha,
    )


class FitPairs(NamedTuple):
    """What the LML evaluations of one fit share, all fixed by its inputs."""

    delta: np.ndarray  # (n, n, d) pairwise differences of the inputs
    sq: List[np.ndarray]  # per dimension, the (n, n) squared differences
    eye: np.ndarray  # (n, n) identity


def fit_pairs(X: np.ndarray) -> FitPairs:
    delta = X[:, None, :] - X[None, :, :]
    sq = [delta[:, :, k] ** 2 for k in range(X.shape[1])]
    return FitPairs(delta=delta, sq=sq, eye=np.eye(len(X)))


def log_marginal_likelihood(
    inputs: np.ndarray,
    targets: np.ndarray,
    log_theta: np.ndarray,
    pairs: Optional[FitPairs] = None,
) -> Tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient in log-parameter space.

    log_theta = [log l_1 .. log l_d, log sigma_f, log sigma_n] with sigma_f
    and sigma_n the signal and noise standard deviations. `pairs`, when
    given, must be `fit_pairs(inputs)`; a fit passes it so that its many
    evaluations compute it once. The result is the same to the bit.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    n, d = X.shape
    if pairs is None:
        pairs = fit_pairs(X)
    ls = np.exp(log_theta[:d])
    sf2 = math.exp(2.0 * log_theta[d])
    sn2 = math.exp(2.0 * log_theta[d + 1])

    r = _scaled_dist(pairs.delta, ls)
    exp_r = np.exp(-math.sqrt(5.0) * r)
    K = sf2 * _matern_of_r(r, exp_r)
    L, jitter = _factor(K, sn2, pairs.eye)
    alpha = cho_solve((L, True), y)
    ll = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    # dL/dtheta_k = 0.5 tr((alpha alpha^T - K_inv) dK/dtheta_k)
    Kinv = cho_solve((L, True), pairs.eye, check_finite=False)
    W = np.outer(alpha, alpha) - Kinv

    grad = np.empty(d + 2)
    # g(r) = -f'(r)/r, finite at r = 0
    g = (5.0 / 3.0) * (1.0 + math.sqrt(5.0) * r) * exp_r
    sf2_g = sf2 * g
    for k in range(d):
        dK = sf2_g * (pairs.sq[k] / ls[k] ** 2)  # w.r.t. log l_k
        grad[k] = 0.5 * float(np.sum(W * dK))
    grad[d] = 0.5 * float(np.sum(W * (2.0 * K)))  # w.r.t. log sigma_f
    grad[d + 1] = 0.5 * float(np.trace(W)) * 2.0 * sn2  # w.r.t. log sigma_n
    return ll, grad


def fit(inputs: np.ndarray, targets: np.ndarray) -> GpModel:
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
    d = X.shape[1]

    y_mean, y_std = _standardization(y)
    z = (y - y_mean) / y_std
    z_std = float(np.std(z))
    if z_std < 1e-9:
        z_std = 1.0

    lo = np.array([math.log(0.05)] * d + [math.log(0.1 * z_std), math.log(1e-4)])
    hi = np.array([math.log(2.0)] * d + [math.log(10.0 * z_std), math.log(z_std)])
    bounds = list(zip(lo, hi))
    starts = lo + sobol_points(8, dim=d + 2, start=1) * (hi - lo)
    pairs = fit_pairs(X)

    def objective(log_theta):
        ll, grad = log_marginal_likelihood(X, z, log_theta, pairs)
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
        noise_variance=math.exp(2.0 * theta[d + 1]),
    )
    return build_model(X, y, params, standardize=True)


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


def posterior_grid(model: GpModel, resolution: int) -> np.ndarray:
    """Row-major (resolution^2, 4) array of (u1, u2, mean, variance)."""
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    lin = np.linspace(0.0, 1.0, resolution)
    pts = np.array([(u1, u2) for u1 in lin for u2 in lin])
    mean, var = posterior_batch(model, pts)
    return np.column_stack([pts, mean, var])
