import math
import tracemalloc

import numpy as np
import pytest

from avstress import surrogate
from avstress.surrogate import (
    InsufficientDataError,
    KernelParams,
    build_model,
    fit,
    fit_pairs,
    kernel_matrix,
    log_marginal_likelihood,
    posterior_batch,
    posterior_grid,
)
from conftest import record_blas_threads
from test_posterior_reference import hexes, model_and_candidates


def default_params(sf2=1.0, ls=(1.0, 1.0), sn2=1e-8):
    return KernelParams(signal_variance=sf2, length_scales=ls, noise_variance=sn2)


def cov(a, b, p):
    """Covariance between two prompts."""
    return float(kernel_matrix(np.atleast_2d(a), np.atleast_2d(b), p)[0, 0])


def posterior_at(model, x):
    """Posterior (mean, variance) at one prompt."""
    mean, var = posterior_batch(model, np.atleast_2d(x))
    return float(mean[0]), float(var[0])


class TestKernel:
    def test_zero_distance(self):
        p = default_params(sf2=2.0)
        assert cov((0.3, 0.4), (0.3, 0.4), p) == pytest.approx(2.0)

    def test_unit_distance_closed_form(self):
        # (1 + sqrt5 + 5/3) * exp(-sqrt5), evaluated independently
        p = default_params()
        expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
        assert expected == pytest.approx(0.52399, abs=1e-5)
        assert cov((0.0, 0.0), (1.0, 0.0), p) == pytest.approx(expected, rel=1e-12)

    def test_long_range_decay(self):
        p = default_params()
        assert cov((0.0, 0.0), (20.0, 0.0), p) < 1e-15

    def test_symmetry_and_ard(self):
        p = default_params(ls=(0.5, 2.0))
        a, b = (0.1, 0.9), (0.7, 0.2)
        assert cov(a, b, p) == pytest.approx(cov(b, a, p), rel=1e-14)

    def test_gram_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.random((rng.integers(3, 12), 2))
            p = default_params(
                sf2=float(rng.uniform(0.1, 3)),
                ls=tuple(rng.uniform(0.1, 2, 2)),
            )
            K = kernel_matrix(X, X, p)
            assert np.allclose(K, K.T)
            assert np.linalg.eigvalsh(K).min() >= -1e-8


def einsum_case(d):
    """Seeded (31, 17, d) values spread over many magnitudes, so that a
    change in the order of a sum changes its bits."""
    rng = np.random.default_rng(d)
    return rng.normal(size=(31, 17, d)) * np.exp(4.0 * rng.normal(size=(31, 17, d)))


def sum_in_einsum_order(x):
    per_dim = np.ascontiguousarray(np.moveaxis(x, 2, 0))
    return surrogate._sum_in_einsum_order(
        x.shape[2], lambda k, out: np.multiply(per_dim[k], per_dim[k], out=out)
    )


class TestEinsumOrder:
    """The kernel adds its per-dimension squares in the order of numpy's
    einsum, which its bits are pinned to. A numpy build that sums in another
    order (e.g. with fused multiply-adds) fails here, not silently."""

    @pytest.mark.parametrize("d", range(1, 22))
    def test_equals_einsum_bits(self, d):
        x = einsum_case(d)
        expected = np.einsum("ijk,ijk->ij", x, x)
        assert sum_in_einsum_order(x).tobytes() == expected.tobytes()

    def test_differs_from_a_sum_in_turn(self):
        # the data above can tell the orders apart
        x = einsum_case(18)
        in_turn = x[:, :, 0] * x[:, :, 0]
        for k in range(1, 18):
            in_turn = in_turn + x[:, :, k] * x[:, :, k]
        assert in_turn.tobytes() != sum_in_einsum_order(x).tobytes()


class TestLogMarginalLikelihood:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(10):
            X = rng.random((5, 2))
            y = rng.normal(size=5)
            theta = rng.uniform(-2.0, 0.5, size=4)
            pairs = fit_pairs(X)
            _, grad = log_marginal_likelihood(pairs, y, theta)
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                lp, _ = log_marginal_likelihood(pairs, y, theta + e)
                lm, _ = log_marginal_likelihood(pairs, y, theta - e)
                fd = (lp - lm) / (2 * h)
                assert abs(grad[k] - fd) < 1e-4 * max(1.0, abs(fd))


class TestPosterior:
    def test_two_point_hand_solved_system(self):
        # standardize y = (1, 3) by hand to z = (-1, 1) (mean 2, std 1), solve
        # (K + sn2 I) alpha = z and compare mean + std * kq . alpha
        X = np.array([[0.2, 0.2], [0.8, 0.8]])
        y = np.array([1.0, 3.0])
        p = default_params(sf2=2.0, ls=(0.5, 0.5), sn2=1e-8)
        k12 = cov(X[0], X[1], p)
        K = np.array([[2.0 + 1e-8 + 1e-8, k12], [k12, 2.0 + 1e-8 + 1e-8]])
        alpha = np.linalg.solve(K, np.array([-1.0, 1.0]))
        model = build_model(X, y, p)
        assert (model.y_mean, model.y_std) == (2.0, 1.0)
        kq = kernel_matrix(np.array([[0.4, 0.4]]), X, p)[0]
        mean, _ = posterior_at(model, (0.4, 0.4))
        assert mean == pytest.approx(2.0 + float(kq @ alpha), abs=1e-8)

    def test_interpolates_training_points(self):
        X = np.array([[0.2, 0.3], [0.8, 0.7], [0.5, 0.1]])
        y = np.array([1.0, -2.0, 0.5])
        model = build_model(X, y, default_params(sf2=1.5, ls=(0.4, 0.4), sn2=1e-8))
        mean, _ = posterior_batch(model, X)
        np.testing.assert_allclose(mean, y, atol=1e-4)

    def test_far_field_variance_reverts_to_prior(self):
        X = np.array([[0.0, 0.0], [0.01, 0.01]])
        model = build_model(X, np.array([1.0, 1.1]), default_params(ls=(0.01, 0.01)))
        _, var = posterior_at(model, (1.0, 1.0))
        assert var >= 0.99 * model.params.signal_variance * model.y_std**2

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(8)
        X = rng.random((12, 2))
        y = rng.normal(size=12)
        p = default_params(sf2=1.7, ls=(0.3, 0.6), sn2=1e-4)
        model = build_model(X, y, p)
        _, var = posterior_batch(model, rng.random((100, 2)))
        assert np.all(var <= (1.7 + 1e-9) * model.y_std**2)

    def test_duplicate_observation_never_increases_variance(self):
        rng = np.random.default_rng(9)
        X = rng.random((8, 2))
        y = rng.normal(size=8)
        p = default_params(sf2=1.0, ls=(0.4, 0.4), sn2=1e-4)
        base = build_model(X, y, p)
        dup = build_model(np.vstack([X, X[3]]), np.append(y, y[3]), p)
        probes = rng.random((100, 2))
        _, v0 = posterior_batch(base, probes)
        _, v1 = posterior_batch(dup, probes)
        assert np.all(v1 <= v0 + 1e-9)


class TestPosteriorBlocks:
    def test_peak_memory_is_bounded_by_a_block(self):
        # the last candidate set of a budget-300, 3-agent GP-UCB campaign;
        # the whole-array posterior peaked at 139 MiB here
        model, xs = model_and_candidates(300, 6, 20224)
        with surrogate.single_blas_thread():
            tracemalloc.start()
            try:
                posterior_batch(model, xs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_same_bits_on_any_blas_thread_count(self):
        # on a 2-core machine the whole-array call's mean differed between 2
        # OpenBLAS threads and 1 here
        model, xs = model_and_candidates(150, 2, 3753)
        # the undecorated body runs on the caller's count
        mean, var = posterior_batch.__wrapped__(model, xs)
        expected = posterior_batch(model, xs)
        assert hexes(mean) == hexes(expected[0])
        assert hexes(var) == hexes(expected[1])


class TestBlasThreads:
    @pytest.mark.parametrize("entry", ["build_model", "fit", "posterior_batch"])
    def test_entry_point_runs_on_one_thread_and_restores_the_count(self, entry, monkeypatch):
        X = np.random.default_rng(3).random((8, 2))
        y = np.sin(4.0 * X[:, 0])
        model = build_model(X, y, default_params())
        args = {"build_model": (X, y, default_params()), "fit": (X, y),
                "posterior_batch": (model, X)}[entry]
        controls, inside = record_blas_threads(monkeypatch)
        previous = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        try:
            two = [get() for get, _ in controls]
            getattr(surrogate, entry)(*args)
            after = [get() for get, _ in controls]
        finally:
            for (_, set_), count in zip(controls, previous):
                set_(count)
        assert inside
        assert all(counts == [1] * len(controls) for _, counts in inside)
        assert after == two


class TestFactor:
    def test_jitter_escalates_until_positive_definite(self):
        # eigenvalues 2 + 1e-6 and -1e-6: needs jitter above 1e-6
        K = np.array([[1.0, 1.0 + 1e-6], [1.0 + 1e-6, 1.0]])
        L, jitter = surrogate._factor(K, 0.0)
        assert 1e-6 < jitter <= surrogate.JITTER_CEIL
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(2))

    def test_non_finite_matrix_raises_at_once(self, monkeypatch):
        calls = []
        original = surrogate.dpotrf

        def counting_dpotrf(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(surrogate, "dpotrf", counting_dpotrf)
        with pytest.raises(ValueError) as raised:
            surrogate._factor(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1e-6)
        # LinAlgError is a ValueError too: it would mean the jitter loop ran
        assert not isinstance(raised.value, np.linalg.LinAlgError)
        # the finite check comes before LAPACK, so nothing is factorized
        assert calls == []

    def test_illegal_lapack_argument_raises_at_once(self, monkeypatch):
        calls = []

        def illegal_argument(a, **kwargs):
            calls.append(1)
            return a, -1

        monkeypatch.setattr(surrogate, "dpotrf", illegal_argument)
        with pytest.raises(ValueError) as raised:
            surrogate._factor(np.eye(2), 1e-6)
        assert not isinstance(raised.value, np.linalg.LinAlgError)
        assert len(calls) == 1

    def test_factor_is_the_lower_cholesky_factor(self):
        rng = np.random.default_rng(13)
        A = rng.random((6, 6))
        K = A @ A.T
        L, jitter = surrogate._factor(K, 1e-3)
        assert jitter == surrogate.JITTER_FLOOR
        assert np.array_equal(L, np.tril(L))
        np.testing.assert_allclose(L @ L.T, K + (1e-3 + jitter) * np.eye(6), rtol=1e-12)


class TestValidation:
    def test_kernel_params_keep_small_noise_and_reject_negative_noise(self):
        assert default_params(sn2=0.0).noise_variance == 0.0
        assert default_params(sn2=1e-12).noise_variance == 1e-12
        with pytest.raises(ValueError):
            default_params(sn2=-1e-12)

    def test_build_model_refuses_fewer_than_two_observations(self):
        for n in (0, 1):
            with pytest.raises(InsufficientDataError):
                build_model(np.full((n, 2), 0.5), np.ones(n), default_params())

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_build_model_rejects_nonfinite_noise_at_once(self, monkeypatch, noise):
        calls = []
        original = surrogate.dpotrf

        def counting_dpotrf(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(surrogate, "dpotrf", counting_dpotrf)
        p = default_params(sn2=noise)
        with pytest.raises(ValueError) as raised:
            build_model(np.array([[0.1, 0.1], [0.9, 0.9]]), np.array([1.0, 2.0]), p)
        assert not isinstance(raised.value, np.linalg.LinAlgError)
        assert calls == []


class TestFit:
    def test_refuses_single_point(self):
        with pytest.raises(InsufficientDataError):
            fit(np.array([[0.5, 0.5]]), np.array([1.0]))

    def test_rejects_nonfinite_targets(self):
        with pytest.raises(ValueError):
            fit(np.array([[0.1, 0.1], [0.9, 0.9]]), np.array([1.0, np.nan]))

    def test_constant_targets_give_constant_posterior(self):
        rng = np.random.default_rng(10)
        X = rng.random((6, 2))
        model = fit(X, np.full(6, 4.2))
        mean, _ = posterior_batch(model, rng.random((20, 2)))
        assert np.all(np.abs(mean - 4.2) < 1e-6)

    def test_fit_recovers_signal(self):
        rng = np.random.default_rng(11)
        X = rng.random((30, 2))
        y = np.sin(5 * X[:, 0]) + 0.5 * X[:, 1]
        model = fit(X, y)
        mean, _ = posterior_batch(model, X)
        assert float(np.sqrt(np.mean((mean - y) ** 2))) < 0.05


class TestPosteriorGrid:
    def test_resolution_two_hits_corners(self):
        model = build_model(
            np.array([[0.1, 0.1], [0.9, 0.9]]), np.array([0.0, 1.0]), default_params()
        )
        grid = posterior_grid(model, 2)
        assert grid.shape == (4, 4)
        corners = {(row[0], row[1]) for row in grid}
        assert corners == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}

    def test_grid_consistent_with_pointwise_posterior(self):
        model = build_model(
            np.array([[0.2, 0.8], [0.7, 0.3]]), np.array([1.0, -1.0]), default_params()
        )
        grid = posterior_grid(model, 5)
        for u1, u2, mean, var in grid:
            m, v = posterior_at(model, (u1, u2))
            assert mean == pytest.approx(m, abs=1e-12)
            assert var == pytest.approx(v, abs=1e-12)

    def test_constant_model_constant_grid(self):
        X = np.random.default_rng(12).random((5, 2))
        model = fit(X, np.full(5, -1.5))
        grid = posterior_grid(model, 8)
        assert np.all(np.abs(grid[:, 2] + 1.5) < 1e-6)
