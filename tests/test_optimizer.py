import math
from importlib import resources

import numpy as np
import pytest

from avstress import surrogate
from avstress.optimizer import (
    PERTURBATION,
    Observation,
    SamplerConfig,
    _candidate_set,
    prompt_dim,
    run_campaign,
    split_prompt,
    suggest_next,
    ucb,
)
from avstress.planner import HORIZON_STEPS, LatticePlanner
from avstress.scenario import load_preset, load_scenario
from avstress.sobol import sobol_point, sobol_points
from avstress.surrogate import KernelParams, build_model, posterior_batch
from conftest import ConstantVelocityEgoStub, scenario_with_agents


def short_scale_params():
    return KernelParams(
        signal_variance=1.0, length_scales=(0.2, 0.2), noise_variance=1e-6
    )


@pytest.fixture
def pinned_kernel(monkeypatch):
    """Condition the GP on short_scale_params() instead of refitting by MLE."""
    monkeypatch.setattr(
        surrogate, "fit",
        lambda X, y: build_model(X, y, short_scale_params(), standardize=True),
    )


def corner_history():
    return [
        Observation(prompt=(0.0, 0.0), score=0.0),
        Observation(prompt=(1.0, 1.0), score=10.0),
    ]


class TestUcb:
    def test_arithmetic(self):
        assert ucb(1.0, 4.0, 2.0) == pytest.approx(5.0)
        acq = ucb(np.array([1.0, -1.0, 0.5]), np.array([4.0, 0.0, 0.25]), 2.0)
        np.testing.assert_allclose(acq, [5.0, -1.0, 1.5])

    def test_beta_zero_is_pure_exploitation(self):
        assert ucb(-3.2, 7.0, 0.0) == pytest.approx(-3.2)

    def test_zero_variance_is_mean(self):
        for beta in (0.0, 1.0, 100.0):
            assert ucb(2.5, 0.0, beta) == pytest.approx(2.5)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ucb(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            ucb(np.zeros(3), np.array([1.0, -1e-12, 0.0]), 1.0)


def loop_candidate_set(history, cfg, dim):
    """The per-observation loop that _candidate_set's broadcast replaced."""
    cands = sobol_points(cfg.candidates, dim=dim, start=1)
    locals_ = []
    for obs in history:
        base = np.asarray(obs.prompt)
        for signs in np.ndindex(*(2,) * dim):
            delta = np.where(np.array(signs) == 0, -PERTURBATION, PERTURBATION)
            locals_.append(np.clip(base + delta, 0.0, 1.0))
    if locals_:
        cands = np.vstack([cands, np.array(locals_)])
    return cands


class TestCandidateSet:
    @pytest.mark.parametrize("dim", [2, 6])
    def test_equals_per_observation_loop(self, dim):
        # prompts on the cube's faces are clipped; failed prompts still count
        rng = np.random.default_rng(dim)
        prompts = [tuple(rng.random(dim)) for _ in range(5)]
        prompts += [(0.0,) * dim, (1.0,) * dim, tuple([0.0, 1.0] * (dim // 2))]
        history = [Observation(prompt=p, score=float(i)) for i, p in enumerate(prompts)]
        history[3] = Observation(prompt=history[3].prompt, score=-math.inf)
        cfg = SamplerConfig(kind="bo", budget=20, candidates=32)
        got = _candidate_set(history, cfg, dim)
        assert got.shape == (32 + len(history) * 2**dim, dim)
        assert np.array_equal(got, loop_candidate_set(history, cfg, dim))


class TestSuggestNext:
    def test_sobol_empty_history(self):
        cfg = SamplerConfig(kind="sobol", budget=10)
        assert suggest_next([], cfg) == (0.5, 0.5)

    def test_sobol_follows_sequence(self):
        cfg = SamplerConfig(kind="sobol", budget=10)
        history = []
        for i in range(1, 6):
            u = suggest_next(history, cfg)
            assert u == sobol_point(i, dim=2)
            history.append(Observation(prompt=u, score=0.0))

    def test_sobol_ignores_scores(self):
        cfg = SamplerConfig(kind="sobol", budget=10)
        lo = [Observation(prompt=sobol_point(i), score=-100.0) for i in (1, 2, 3)]
        hi = [Observation(prompt=sobol_point(i), score=+100.0) for i in (1, 2, 3)]
        assert suggest_next(lo, cfg) == suggest_next(hi, cfg)

    def test_bo_bootstraps_from_sobol(self):
        cfg = SamplerConfig(kind="bo", budget=10)
        assert suggest_next([], cfg) == sobol_point(1)
        one = [Observation(prompt=sobol_point(1), score=1.0)]
        assert suggest_next(one, cfg) == sobol_point(2)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_bo_exploits_high_score_corner(self):
        # beta=0 with a short length-scale: suggestion hugs the good corner;
        # oracle = dense-grid argmax of the posterior mean
        cfg = SamplerConfig(kind="bo", budget=10, beta=0.0)
        history = corner_history()
        u = suggest_next(history, cfg)
        assert math.hypot(u[0] - 1.0, u[1] - 1.0) < 0.05

        X = np.array([obs.prompt for obs in history])
        y = np.array([obs.score for obs in history])
        model = build_model(X, y, short_scale_params(), standardize=True)
        axis = np.linspace(0.0, 1.0, 101)
        grid = np.array([(a, b) for a in axis for b in axis])
        mean, _ = posterior_batch(model, grid)
        oracle = grid[int(np.argmax(mean))]
        assert math.hypot(u[0] - oracle[0], u[1] - oracle[1]) < 0.05

    @pytest.mark.usefixtures("pinned_kernel")
    def test_bo_huge_beta_explores(self):
        cfg = SamplerConfig(kind="bo", budget=10, beta=1e6)
        u = suggest_next(corner_history(), cfg)
        for obs in corner_history():
            d = math.hypot(u[0] - obs.prompt[0], u[1] - obs.prompt[1])
            assert d >= 0.3

    def test_budget_exhaustion_refused(self):
        cfg = SamplerConfig(kind="sobol", budget=3)
        history = [Observation(prompt=sobol_point(i), score=0.0) for i in (1, 2, 3)]
        with pytest.raises(RuntimeError):
            suggest_next(history, cfg)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_failed_episodes_excluded_from_gp(self):
        # -inf observations must not poison the surrogate
        cfg = SamplerConfig(kind="bo", budget=10, beta=0.0)
        history = corner_history() + [
            Observation(prompt=(0.5, 0.5), score=-math.inf)
        ]
        u = suggest_next(history, cfg)
        assert all(math.isfinite(v) for v in u)
        assert math.hypot(u[0] - 1.0, u[1] - 1.0) < 0.05

    @pytest.mark.usefixtures("pinned_kernel")
    def test_argmax_invariant_under_affine_rescale(self):
        cfg = SamplerConfig(kind="bo", budget=20, beta=0.0)
        rng = np.random.default_rng(21)
        history = [
            Observation(prompt=tuple(rng.random(2)), score=float(rng.normal()))
            for _ in range(8)
        ]
        scaled = [
            Observation(prompt=o.prompt, score=3.0 * o.score + 7.0) for o in history
        ]
        assert suggest_next(history, cfg) == suggest_next(scaled, cfg)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_suggestions_stay_in_unit_square(self):
        for kind in ("sobol", "bo"):
            cfg = SamplerConfig(kind=kind, budget=40)
            history = []
            rng = np.random.default_rng(22)
            for _ in range(12):
                u = suggest_next(history, cfg)
                assert all(0.0 <= v <= 1.0 for v in u)
                history.append(Observation(prompt=u, score=float(rng.normal())))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(kind="random")
        with pytest.raises(ValueError):
            SamplerConfig(budget=0)
        with pytest.raises(ValueError):
            SamplerConfig(beta=-1.0)
        with pytest.raises(ValueError):
            SamplerConfig(candidates=4)


class TestSyntheticSearch:
    def run_sampler(self, kind, budget):
        # distance-to-optimum objective; higher is better
        opt = (0.7, 0.3)
        cfg = SamplerConfig(kind=kind, budget=budget)
        history = []
        for _ in range(budget):
            u = suggest_next(history, cfg)
            g = -math.hypot(u[0] - opt[0], u[1] - opt[1])
            history.append(Observation(prompt=u, score=g))
        return max(obs.score for obs in history)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_bo_beats_sobol_on_distance_objective(self):
        budget = 30
        assert self.run_sampler("bo", budget) >= self.run_sampler("sobol", budget)


class TestRunCampaign:
    def test_sobol_budget_three_uses_first_three_points(self, two_lane_scenario):
        cfg = SamplerConfig(kind="sobol", budget=3)
        records = run_campaign(two_lane_scenario, cfg, ConstantVelocityEgoStub())
        assert len(records) == 3
        for i, rec in enumerate(records, start=1):
            assert rec.prompt == sobol_point(i)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_campaign_is_deterministic(self, two_lane_scenario):
        cfg = SamplerConfig(kind="bo", budget=5)

        def run():
            return run_campaign(two_lane_scenario, cfg, ConstantVelocityEgoStub())

        a, b = run(), run()
        assert [r.prompt for r in a] == [r.prompt for r in b]
        assert [r.score for r in a] == [r.score for r in b]
        for ra, rb in zip(a, b):
            assert len(ra.episode.trace) == len(rb.episode.trace)
            for ja, jb in zip(ra.episode.trace, rb.episode.trace):
                assert ja.states == jb.states

    def test_goals_inside_domain_image(self, two_lane_scenario):
        cfg = SamplerConfig(kind="sobol", budget=8)
        records = run_campaign(two_lane_scenario, cfg, ConstantVelocityEgoStub())
        dom = two_lane_scenario.goal_domains["npc"]
        for rec in records:
            goal = rec.goals_world["npc"]
            # straight left lane at y=3.5: s maps to x-60, l to y-3.5
            assert dom.s_min - 60.0 - 1e-9 <= goal.x <= dom.s_max - 60.0 + 1e-9
            assert 3.5 + dom.l_min - 1e-9 <= goal.y <= 3.5 + dom.l_max + 1e-9

    def test_planner_failure_recorded_not_fatal(self, two_lane_scenario):
        class AlwaysFails:
            def plan(self, world, scenario):
                raise RuntimeError("no solution")

        cfg = SamplerConfig(kind="sobol", budget=4)
        records = run_campaign(two_lane_scenario, cfg, AlwaysFails())
        assert len(records) == 4
        for rec in records:
            assert rec.failed
            assert rec.score == -math.inf


    @pytest.mark.parametrize("kind,n_simulated", [("bo", 5), ("sobol", 6)])
    def test_many_agents_complete(self, kind, n_simulated):
        # the GP's restarts need 2 * agents + 2 Sobol dimensions: 12 at 5 agents
        scenario = scenario_with_agents(n_simulated)
        records = run_campaign(scenario, SamplerConfig(kind=kind, budget=4), LatticePlanner())
        assert len(records) == 4
        assert [r.failure_reason for r in records if r.failed] == []
        assert all(len(r.prompt) == 2 * n_simulated for r in records)

    def test_replan_interval_longer_than_planner_horizon(self):
        # the planner rolls out max(HORIZON_STEPS, replan_every) steps, so a
        # 40-step replan interval gets 40 states from a 30-step horizon
        assert HORIZON_STEPS < 40
        text = resources.files("avstress").joinpath("presets/front.yaml").read_text()
        scenario = load_scenario(text.replace("replan_every: 5", "replan_every: 40"), "front")
        assert scenario.sim.replan_every == 40
        cfg = SamplerConfig(kind="sobol", budget=2)
        records = run_campaign(scenario, cfg, LatticePlanner())
        assert len(records) == 2
        assert [r.failure_reason for r in records if r.failed] == []


class TestBlasThreadScope:
    def test_one_thread_inside_suggest_next_and_previous_count_after(self, monkeypatch):
        controls = surrogate._openblas_thread_controls()
        if not controls:
            pytest.skip("numpy and scipy use no OpenBLAS of their wheels here")
        before = [get() for get, _ in controls]
        inside = []
        real_fit = surrogate.fit

        def recording_fit(X, y):
            inside.append([get() for get, _ in controls])
            return real_fit(X, y)

        monkeypatch.setattr(surrogate, "fit", recording_fit)
        cfg = SamplerConfig(kind="bo", budget=10)
        history = [Observation(prompt=sobol_point(i), score=float(i)) for i in (1, 2, 3)]
        suggest_next(history, cfg)
        assert inside == [[1] * len(controls)]
        assert [get() for get, _ in controls] == before

        def failing_fit(X, y):
            raise np.linalg.LinAlgError("no fit")

        monkeypatch.setattr(surrogate, "fit", failing_fit)
        with pytest.raises(np.linalg.LinAlgError):
            suggest_next(history, cfg)
        assert [get() for get, _ in controls] == before

    def test_no_openblas_found_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(surrogate, "_openblas_thread_controls", lambda: ())
        records = run_campaign(load_preset("front"), SamplerConfig(kind="bo", budget=4),
                               LatticePlanner())
        assert len(records) == 4
        assert [r.failure_reason for r in records if r.failed] == []


class TestSplitPrompt:
    def test_dim_matches_agent_count(self, two_lane_scenario):
        assert prompt_dim(two_lane_scenario) == 2

    def test_goal_per_agent(self, two_lane_scenario):
        goals = split_prompt(two_lane_scenario, (0.0, 0.0))
        assert set(goals) == {"npc"}
        assert (goals["npc"].x, goals["npc"].y) == pytest.approx((15.0, -1.75))
