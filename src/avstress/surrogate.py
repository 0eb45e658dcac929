"""Gaussian-process regression over the unit-square prompt space.

Matern-5/2 kernel with per-dimension (ARD) length scales, exact inference via
Cholesky factorization, and hyperparameter selection by maximizing the log
marginal likelihood from multiple deterministic starts. Targets are
standardized internally so acquisition weights are scale-free.

The kernel takes the pairwise differences of n and m points one dimension
at a time, as a contiguous (n, m) array: `kernel_matrix` writes each into
one reused array, and the likelihood reads them from the fit's `FitPairs`.
It divides each by its length scale, squares it, and adds the d squares in
the order in which `np.einsum("ijk,ijk->ij")` adds them over an (n, m, d)
array (`_einsum_lanes`). So the distances are those of the einsum kernel to
the bit, without einsum's inner loop of length d per entry or the broadcast
division over a last axis of length d.

A fit evaluates the likelihood about 300 times on the same n, so the
evaluations share its (n, n) scratch, `FitPairs.work`, allocated once by
`fit_pairs`: the scaled distances, the Matern factors, K and W live there,
and each evaluation overwrites what the last one left. Only the factor
(`_factor` factorizes a new copy of K in place) and K^-1 (from `dpotrs`)
are new arrays. K^-1 comes back in Fortran order and is not symmetric to
the bit, so summing a transposed view would add in another order; W is
formed from it in a C-ordered array once, and the gradient's products
then read it with unit stride.

The factorization and the solves call LAPACK's `dpotrf` and `dpotrs`, the
routines `scipy.linalg.cholesky` and `cho_solve` wrap, directly and with the
same checks: a fit evaluates the likelihood about 300 times with three such
calls each, and the wrappers' batching and routine lookup cost about 15 us a
call. For the same reason the fit drives L-BFGS-B's reverse-communication
routine `setulb` itself (`_lbfgsb`), in the loop and with the arguments of
scipy 1.17.1's `minimize(method="L-BFGS-B")`: `minimize` builds its
function wrappers at every start and passes every evaluation through two
of them: around the objective, an evaluation at n = 60, d = 6 cost about
53 us there against 16 us in the driver.
The posterior runs one block of candidates at a time, its BLAS calls
included, so no array spans all the candidates: at n = 300 and m = 20,224
a call peaks at about 14 MiB traced, against 139 MiB whole. Splitting a BLAS
call keeps its bits only on one condition: the blocks start at multiples of
POSTERIOR_BLOCK and no narrower block stands alone at the end, so the
remainder joins the last full block. A lone tail of under 512 columns takes
another gemv and trsm path and rounds apart (at m = 513 and 1025). All of
this gives the same results to the bit as the wrappers, `minimize` and the
single-shot posterior with the einsum kernel (tests/test_lml_reference.py,
tests/test_lbfgsb_reference.py, tests/test_posterior_reference.py).
`fit`, `build_model` and `posterior_batch` each run on one BLAS thread by
themselves (`single_blas_thread`): callers do not wrap them.

A fit's 8 L-BFGS-B starts are independent (Rasmussen & Williams 2006,
section 5.4). Given the campaign's fit helper (`fit_helper.Helper`), `fit`
runs the odd-numbered starts in the helper process and the even-numbered
ones here; without one, as in `export-gp`, it runs all 8 here.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize._lbfgsb import setulb

from .fit_helper import Helper
from .sobol import sobol_points

JITTER_FLOOR = 1e-8
JITTER_CEIL = 1e-4
# candidates per kernel call, and the alignment of the posterior's blocks:
# their BLAS calls keep the whole-array bits only while each block starts at
# a multiple of this and no narrower tail stands alone. At n = 100 and d = 6
# a kernel call's differences and scaled differences take 2.5 MB each
POSTERIOR_BLOCK = 512
# L-BFGS-B iterations per start of a fit
LBFGS_MAXITER = 200


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
    (tests/test_lml_reference.py, tests/test_surrogate.py). A no-op where no
    OpenBLAS is found. It decorates `fit`, `build_model` and
    `posterior_batch`, so their callers do not wrap them."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


@dataclass(frozen=True)
class KernelParams:
    signal_variance: float
    length_scales: Tuple[float, ...]
    noise_variance: float

    def __post_init__(self):
        if self.signal_variance <= 0 or any(l <= 0 for l in self.length_scales):
            raise ValueError("kernel amplitudes and length scales must be positive")
        if self.noise_variance < 0:
            raise ValueError("noise variance must be >= 0")


@functools.cache
def _einsum_lanes(d: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The order in which `np.einsum("ijk,ijk->ij", x, x)` adds the d
    products of each (i, j): two lanes, one for the even and one for the odd
    k. Each block of 8 k adds its lane's 4 products last one first; the k
    after the last full block follow in turn; the odd lane is added to the
    even one at the end. This is numpy's SIMD inner loop at 2 doubles a
    vector, with each product rounded before it is added (no fused
    multiply-add); tests/test_surrogate.py checks it against np.einsum."""
    full = d - d % 8
    even, odd = (
        tuple(b + j + lane for b in range(0, full, 8) for j in (6, 4, 2, 0))
        + tuple(range(full + lane, d, 2))
        for lane in (0, 1)
    )
    return even, odd


def _sum_in_einsum_order(d: int, term: Callable, out=(None, None, None)) -> np.ndarray:
    """Sum of the d (n, m) arrays term(0) .. term(d - 1), to the bit as
    np.einsum adds them. `term(k, buf)` writes the k-th array into `buf`, or
    into a new array where `buf` is None, and returns it. `out` gives the
    arrays for the even lane, the odd lane and the terms added to them, or
    None for each to make; the sum is written into the even lane's."""
    *accs, scratch = out
    lanes = []
    for lane, acc in zip(_einsum_lanes(d), accs):
        if lane:
            acc = term(lane[0], acc)
            for k in lane[1:]:
                scratch = term(k, scratch)
                np.add(acc, scratch, out=acc)
            lanes.append(acc)
    if len(lanes) == 2:
        np.add(lanes[0], lanes[1], out=lanes[0])
    return lanes[0]


def _scaled_dist(d: int, difference: Callable, ls, out) -> np.ndarray:
    """(n, m) scaled distances: per dimension, the difference over its
    length scale, squared, then summed in np.einsum's order, written into
    out[0]. `difference(k, buf)` returns dimension k's (n, m) pairwise
    differences, in `buf` or in an array of its own; `ls` holds the length
    scales and `out` three (n, m) arrays (`_sum_in_einsum_order`). One
    dimension at a time, so no (d, n, m) temporary is made: in the LML one
    per evaluation cost more in page faults than it saved in calls. A sum of
    squares is never negative, so the root needs no clamp."""

    def square(k, buf):
        x = np.divide(difference(k, buf), ls[k], out=buf)
        return np.multiply(x, x, out=x)

    r = _sum_in_einsum_order(d, square, out)
    return np.sqrt(r, out=r)


def _matern_factors(r: np.ndarray, one_plus: np.ndarray, exp_r: np.ndarray) -> None:
    """Write 1 + sqrt(5) r and exp(-sqrt(5) r), which the Matern-5/2
    correlation and its gradient share, into `one_plus` and `exp_r`."""
    sqrt5_r = np.multiply(math.sqrt(5.0), r, out=one_plus)
    # -(sqrt(5) r) is (-sqrt(5)) r to the bit: rounding is symmetric in sign
    np.negative(sqrt5_r, out=exp_r)
    np.exp(exp_r, out=exp_r)
    np.add(1.0, sqrt5_r, out=one_plus)


def _matern_of_r(
    r: np.ndarray, one_plus: np.ndarray, exp_r: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Matern-5/2 correlation at r, written into `out`, given
    `_matern_factors`."""
    k = np.multiply(5.0, r, out=out)
    np.multiply(k, r, out=k)
    np.divide(k, 3.0, out=k)
    np.add(one_plus, k, out=k)
    return np.multiply(k, exp_r, out=k)


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    r, one_plus, exp_r = np.empty((3, len(a), len(b)))
    # each dimension's differences a_i - b_j go straight into the array
    # that they are scaled and squared in
    _scaled_dist(
        a.shape[1],
        lambda k, buf: np.subtract.outer(a[:, k], b[:, k], out=buf),
        params.length_scales,
        (r, one_plus, exp_r),
    )
    _matern_factors(r, one_plus, exp_r)
    K = _matern_of_r(r, one_plus, exp_r, np.empty_like(r))
    return np.multiply(params.signal_variance, K, out=K)


def _factor(K: np.ndarray, noise_variance: float) -> Tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + (noise + jitter) I by LAPACK's dpotrf,
    escalating jitter while the matrix is not positive definite. The sum is
    a copy of K with its diagonal raised: K holds no -0.0, so adding the
    identity's zeros would change no bit. The copy is a new Fortran-ordered
    array, which dpotrf factorizes in place, so f2py makes no second,
    transposing copy; the factor is that array, and no later call
    overwrites it. These are the checks `scipy.linalg.cholesky` makes: a
    matrix with an inf or NaN raises ValueError before it is factorized,
    and so does an illegal argument reported by LAPACK. Neither enters the
    jitter loop: more jitter cannot fix them."""
    M = np.empty_like(K, order="F")
    # M.T is C-ordered, so this is a view of M's diagonal
    diag = M.T.reshape(-1)[:: len(M) + 1]
    jitter = JITTER_FLOOR
    while True:
        np.copyto(M, K)
        np.add(diag, noise_variance + jitter, out=diag)
        if not np.isfinite(M).all():
            raise ValueError("covariance matrix must not contain infs or NaNs")
        L, info = dpotrf(M, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        if info < 0:
            raise ValueError(f"dpotrf reported an illegal value in argument {-info}")
        jitter *= 3.0
        if jitter > JITTER_CEIL:
            raise np.linalg.LinAlgError(
                "covariance factorization failed even at maximum jitter"
            )


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b by LAPACK's dpotrs, as `scipy.linalg.cho_solve`
    computes it; the caller checks that b is finite."""
    x, info = dpotrs(L, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs reported an illegal value in argument {-info}")
    return x


@dataclass(frozen=True)
class GpModel:
    inputs: np.ndarray  # (n, d) prompts in [0,1]^d
    params: KernelParams
    y_mean: float
    y_std: float
    chol: np.ndarray  # lower factor of K + sigma_n^2 I (standardized space)
    alpha: np.ndarray

    @property
    def n(self) -> int:
        return len(self.alpha)


def _standardization(y: np.ndarray) -> Tuple[float, float]:
    """(mean, std) that map raw targets to zero mean and unit spread; a
    constant target vector keeps std 1."""
    std = float(np.std(y))
    return float(np.mean(y)), std if std > 1e-9 else 1.0


def _checked_data(
    inputs: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, float, float, np.ndarray]:
    """(X, y, y_mean, y_std, z): the inputs and targets as float arrays,
    checked to hold at least 2 targets, all finite, and the targets'
    standardization, z = (y - y_mean) / y_std."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if len(y) < 2:
        raise ValueError("GP fit needs at least 2 observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    y_mean, y_std = _standardization(y)
    return X, y, y_mean, y_std, (y - y_mean) / y_std


@single_blas_thread()
def build_model(inputs: np.ndarray, targets: np.ndarray, params: KernelParams) -> GpModel:
    """Condition a GP with fixed hyperparameters on the standardized data."""
    X, _, y_mean, y_std, z = _checked_data(inputs, targets)
    K = kernel_matrix(X, X, params)
    L, _ = _factor(K, params.noise_variance)
    alpha = _cho_solve(L, z)
    return GpModel(
        inputs=X, params=params, y_mean=y_mean, y_std=y_std, chol=L, alpha=alpha
    )


class FitPairs(NamedTuple):
    """What the LML evaluations of one fit share. `delta`, `sq` and `eye`
    are fixed by its inputs, and each dimension's (n, n) slice of `delta`
    and `sq` is contiguous. `work` is scratch that every evaluation
    overwrites (see `log_marginal_likelihood`)."""

    delta: np.ndarray  # (d, n, n) pairwise differences of the inputs
    sq: np.ndarray  # (d, n, n) their squares
    eye: np.ndarray  # (n, n) identity
    work: np.ndarray  # (4, n, n)


def fit_pairs(X: np.ndarray) -> FitPairs:
    # C-ordered, so that each dimension's (n, n) slice is contiguous
    delta = np.subtract(X.T[:, :, None], X.T[:, None, :], order="C")
    n = len(X)
    return FitPairs(delta, delta * delta, np.eye(n), np.empty((4, n, n)))


def log_marginal_likelihood(
    pairs: FitPairs,
    z: np.ndarray,
    log_theta: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Log marginal likelihood of the standardized targets `z` and its
    gradient in log-parameter space.

    `pairs` is `fit_pairs` of the inputs, computed once per fit; `z` is
    finite. log_theta = [log l_1 .. log l_d, log sigma_f, log sigma_n]
    with sigma_f and sigma_n the signal and noise standard deviations.

    The (n, n) intermediates are written into `pairs.work`, whose four
    arrays hold the scaled distances r (later W), 1 + sqrt(5) r (later
    sf2 g(r)), exp(-sqrt(5) r) (later each product of the gradient) and K.
    """
    d, n, _ = pairs.delta.shape
    # Python floats: ls[k] ** 2 below is then one libm pow, the square the
    # gradient has always taken; an array's ** 2 multiplies, which differs
    # in the last bit for some l
    ls = np.exp(log_theta[:d]).tolist()
    sf2 = math.exp(2.0 * log_theta[d])
    sn2 = math.exp(2.0 * log_theta[d + 1])

    r, one_plus, exp_r, K = pairs.work
    delta = pairs.delta
    _scaled_dist(d, lambda k, buf: delta[k], ls, (r, one_plus, exp_r))
    _matern_factors(r, one_plus, exp_r)
    _matern_of_r(r, one_plus, exp_r, K)
    np.multiply(sf2, K, out=K)
    L, _ = _factor(K, sn2)
    alpha = _cho_solve(L, z)
    ll = (
        -0.5 * float(z @ alpha)
        - float(np.log(L.diagonal()).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    # dL/dtheta_k = 0.5 tr((alpha alpha^T - K_inv) dK/dtheta_k), with W in
    # r's array and every product written to exp_r's
    W = np.multiply.outer(alpha, alpha, out=r)
    np.subtract(W, _cho_solve(L, pairs.eye), out=W)

    grad = np.empty(d + 2)
    # sf2 g(r), with g(r) = -f'(r)/r finite at r = 0
    sf2_g = np.multiply(5.0 / 3.0, one_plus, out=one_plus)
    np.multiply(sf2_g, exp_r, out=sf2_g)
    np.multiply(sf2, sf2_g, out=sf2_g)
    product = exp_r
    for k in range(d):
        dK = np.divide(pairs.sq[k], ls[k] ** 2, out=product)
        dK = np.multiply(sf2_g, dK, out=product)  # w.r.t. log l_k
        grad[k] = 0.5 * float(np.multiply(W, dK, out=product).sum())
    dK = np.multiply(2.0, K, out=product)  # w.r.t. log sigma_f
    grad[d] = 0.5 * float(np.multiply(W, dK, out=product).sum())
    grad[d + 1] = 0.5 * float(W.trace()) * 2.0 * sn2  # w.r.t. log sigma_n
    return ll, grad


class _LbfgsbRun(NamedTuple):
    fun: float  # the last objective value evaluated
    x: np.ndarray  # the point setulb returned
    nfev: int  # objective evaluations
    nit: int  # iterations


def _lbfgsb(
    objective: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> _LbfgsbRun:
    """Minimize `objective`, which returns (f, gradient), over the finite
    box [lo, hi] from x0 by L-BFGS-B, as scipy 1.17.1's
    `minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=...,
    options={"maxiter": LBFGS_MAXITER})` does to the bit: the same
    `setulb` calls with the same arguments (m = 10, ftol = 2.2e-9,
    gtol = 1e-5, 20 line-search steps), and the same evaluations.

    A line search whose step no longer moves x asks for f and g at the
    point it just had them for; like `minimize`'s memo, this hands back
    what the objective returned there without calling it again. The
    gradient goes to `setulb` as a copy, since `setulb` may write into it.
    `minimize` also stops after 15,000 evaluations; at most 21 an
    iteration, LBFGS_MAXITER iterations never reach that, so there is no
    such check. `fun` and `x` are what `minimize` returns as `res.fun` and
    `res.x`: after an abnormal stop, x is the last iterate and f the value
    of the last, failed, trial point."""
    n, m = len(x0), 10
    x = np.clip(x0, lo, hi)
    f = 0.0
    g = np.zeros(n)
    nbd = np.full(n, 2, dtype=np.int32)  # every bound finite
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    evaluated = None
    nfev = nit = 0
    while True:
        setulb(m, x, lo, hi, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave, dsave,
               20, ln_task)
        if task[0] == 3:  # FG: f and g at x
            if evaluated is None or not (x == evaluated).all():
                evaluated = x.copy()
                f, grad = objective(evaluated)
                nfev += 1
            np.copyto(g, grad)
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= LBFGS_MAXITER:
                task[:] = 5, 504  # STOP: iteration limit
        else:
            break
    return _LbfgsbRun(fun=f, x=x, nfev=nfev, nit=nit)


@single_blas_thread()
def _run_starts(
    X: np.ndarray, z: np.ndarray, lo: np.ndarray, hi: np.ndarray, starts: np.ndarray
) -> List[_LbfgsbRun]:
    """Minimize the negated LML on inputs X from each start in turn; raises
    what the first start to raise raised. The one start runner, in the
    campaign's process and in its fit helper alike."""
    pairs = fit_pairs(X)

    def objective(log_theta):
        ll, grad = log_marginal_likelihood(pairs, z, log_theta)
        return -ll, -grad

    return [_lbfgsb(objective, x0, lo, hi) for x0 in starts]


def _multistart(
    X: np.ndarray, z: np.ndarray, lo: np.ndarray, hi: np.ndarray, starts: np.ndarray,
    helper: Optional[Helper],
) -> List[_LbfgsbRun]:
    """Every start's run, in start order, each equal to the bit to the run
    of a serial loop. Given a helper that can run, the helper runs the
    odd-numbered starts and this process the even-numbered ones, and this
    process reads the helper's reply before it goes on (an interrupt leaves
    it unread, and leaving the helper's `with` block then kills it). If a
    start raised in either process, or the helper died, the serial loop
    runs every start here: it raises what the first start to raise in start
    order raised."""
    if helper is not None and helper.send(_run_starts, X, z, lo, hi, starts[1::2]):
        try:
            own = _run_starts(X, z, lo, hi, starts[0::2])
        except Exception:  # the serial loop below raises it in start order
            own = None
        ok, theirs = helper.receive()
        if own is not None and ok:
            runs = [None] * len(starts)
            runs[0::2], runs[1::2] = own, theirs
            return runs
    return _run_starts(X, z, lo, hi, starts)


@single_blas_thread()
def fit(inputs: np.ndarray, targets: np.ndarray, helper: Optional[Helper] = None) -> GpModel:
    """Fit hyperparameters by multi-start MLE and condition on the data.

    Eight L-BFGS starts are taken from a Sobol grid over the log-parameter
    box; targets are standardized internally and de-standardized on
    prediction. Of the runs, the first with the strictly lowest final
    objective wins.

    `helper` is the campaign's fit helper (`fit_helper.Helper`): on 2 CPUs
    or more the odd-numbered starts run in its process and the even-numbered
    ones here. Without a helper, or on one CPU, all run here. Every run, and so
    the model, is the same to the bit either way.
    """
    X, y, _, _, z = _checked_data(inputs, targets)
    d = X.shape[1]
    z_std = float(np.std(z))
    if z_std < 1e-9:
        z_std = 1.0

    lo = np.array([math.log(0.05)] * d + [math.log(0.1 * z_std), math.log(1e-4)])
    hi = np.array([math.log(2.0)] * d + [math.log(10.0 * z_std), math.log(z_std)])
    starts = lo + sobol_points(8, dim=d + 2) * (hi - lo)
    theta = min(_multistart(X, z, lo, hi, starts, helper), key=lambda run: run.fun).x
    params = KernelParams(
        signal_variance=math.exp(2.0 * theta[d]),
        length_scales=tuple(np.exp(theta[:d])),
        noise_variance=math.exp(2.0 * theta[d + 1]),
    )
    return build_model(X, y, params)


@single_blas_thread()
def posterior_batch(model: GpModel, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance (raw score units) at each query row."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m = len(xs)
    mean_z, sum_sq = np.empty(m), np.empty(m)
    # one block of candidates at a time, BLAS calls included. Blocks start
    # at multiples of POSTERIOR_BLOCK and the remainder joins the last full
    # block: gemv and trsm then give the whole-array call's bits, which a
    # lone narrower tail would not
    starts = range(0, max(m - POSTERIOR_BLOCK, 0) + 1, POSTERIOR_BLOCK)
    for lo, hi in zip(starts, [*starts[1:], m]):
        k_star = np.empty((model.n, hi - lo))
        for j in range(lo, hi, POSTERIOR_BLOCK):
            k_star[:, j - lo : j - lo + POSTERIOR_BLOCK] = kernel_matrix(
                model.inputs, xs[j : j + POSTERIOR_BLOCK], model.params
            )
        mean_z[lo:hi] = k_star.T @ model.alpha
        v = solve_triangular(model.chol, k_star, lower=True)
        sum_sq[lo:hi] = np.multiply(v, v, out=v).sum(axis=0)
    var_z = np.maximum(model.params.signal_variance - sum_sq, 0.0)
    return model.y_mean + model.y_std * mean_z, model.y_std**2 * var_z


def posterior_grid(model: GpModel, resolution: int) -> np.ndarray:
    """Row-major (resolution^2, 4) array of (u1, u2, mean, variance)."""
    lin = np.linspace(0.0, 1.0, resolution)
    pts = np.array([(u1, u2) for u1 in lin for u2 in lin])
    mean, var = posterior_batch(model, pts)
    return np.column_stack([pts, mean, var])
