import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from avstress import surrogate
from avstress.optimizer import (
    LOCAL_CORNERS,
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
from conftest import ConstantVelocityEgoStub, record_blas_threads, scenario_with_agents


def short_scale_params():
    return KernelParams(
        signal_variance=1.0, length_scales=(0.2, 0.2), noise_variance=1e-6
    )


@pytest.fixture
def pinned_kernel(monkeypatch):
    """Condition the GP on short_scale_params() instead of refitting by MLE."""
    monkeypatch.setattr(
        surrogate, "fit",
        lambda X, y: build_model(X, y, short_scale_params()),
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


def hex_rows(a):
    return [[float(v).hex() for v in row] for row in a]


def edge_history(dim):
    """Prompts inside the cube and on its faces, which are clipped; one is a
    failed episode's, which still counts."""
    rng = np.random.default_rng(dim)
    prompts = [tuple(rng.random(dim)) for _ in range(5)]
    prompts += [(0.0,) * dim, (1.0,) * dim, tuple([0.0, 1.0] * dim)[:dim]]
    history = [Observation(prompt=p, score=float(i)) for i, p in enumerate(prompts)]
    history[3] = Observation(prompt=history[3].prompt, score=-math.inf)
    return history


# peak RSS of a budget-12 GP-UCB campaign with 9 simulated agents (prompt
# dimension 18) in a fresh interpreter; about 90 MB with 64 corners per
# observation, over 900 MB with all 2^18
BO_9_AGENTS_PEAK_RSS_MB = 250
BO_9_AGENTS_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from conftest import scenario_with_agents
from avstress.optimizer import SamplerConfig, run_campaign
from avstress.planner import LatticePlanner
records = run_campaign(scenario_with_agents(9), SamplerConfig(kind="bo", budget=12),
                       LatticePlanner())
print(sum(r.failed for r in records), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestCandidateSet:
    # 6: the largest dimension whose 2^dim corners all enter, 2^6 = LOCAL_CORNERS
    @pytest.mark.parametrize("dim", [2, 6])
    def test_equals_per_observation_loop(self, dim):
        history = edge_history(dim)
        cfg = SamplerConfig(kind="bo", budget=20, candidates=32)
        got = _candidate_set(history, cfg, dim)
        assert got.shape == (32 + len(history) * 2**dim, dim)
        assert hex_rows(got) == hex_rows(loop_candidate_set(history, cfg, dim))

    @pytest.mark.parametrize("dim", [7, 8, 12, 18])
    def test_sobol_signed_corners_above_the_full_box_dimension(self, dim):
        history = edge_history(dim)
        cfg = SamplerConfig(kind="bo", budget=20, candidates=32)
        got = _candidate_set(history, cfg, dim)
        assert got.shape == (32 + len(history) * LOCAL_CORNERS, dim)
        assert np.array_equal(got[:32], sobol_points(32, dim=dim, start=1))
        signs = sobol_points(LOCAL_CORNERS, dim=dim, start=1) >= 0.5
        assert len({tuple(row) for row in signs}) == LOCAL_CORNERS
        for i, obs in enumerate(history):
            block = got[32 + i * LOCAL_CORNERS: 32 + (i + 1) * LOCAL_CORNERS]
            for row, plus in zip(block, signs):
                want = [min(1.0, max(0.0, u + (PERTURBATION if p else -PERTURBATION)))
                        for u, p in zip(obs.prompt, plus)]
                assert hex_rows([row]) == hex_rows([want])

    def test_nine_agent_campaign_in_bounded_memory(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        proc = subprocess.run(
            [sys.executable, "-c", BO_9_AGENTS_SCRIPT, os.path.join(root, "tests")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        failed, peak_kb = map(int, proc.stdout.split())
        assert failed == 0
        assert peak_kb / 1024 < BO_9_AGENTS_PEAK_RSS_MB


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
        model = build_model(X, y, short_scale_params())
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
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                SamplerConfig(beta=beta)
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

    def test_records_as_history_equal_observations(self, two_lane_scenario):
        class FailsWhenToldTo(ConstantVelocityEgoStub):
            fail = False

            def plan(self, world, scenario):
                if self.fail:
                    raise RuntimeError("no solution")
                return super().plan(world, scenario)

        planner = FailsWhenToldTo()

        def fail_the_third(record):
            planner.fail = record.iteration == 1

        cfg = SamplerConfig(kind="bo", budget=6)
        records = run_campaign(two_lane_scenario, cfg, planner, episode_sink=fail_the_third)
        assert [r.failed for r in records] == [False, False, True, False, False, False]
        observations = [Observation(prompt=r.prompt, score=r.score) for r in records]
        for k in range(3, len(records)):
            got = suggest_next(records[:k], cfg)
            want = suggest_next(observations[:k], cfg)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert got == records[k].prompt

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
        controls, inside = record_blas_threads(monkeypatch)
        before = [get() for get, _ in controls]
        cfg = SamplerConfig(kind="bo", budget=10)
        history = [Observation(prompt=sobol_point(i), score=float(i)) for i in (1, 2, 3)]
        suggest_next(history, cfg)
        # the fit's factorizations and the posterior's kernel calls
        assert {name for name, _ in inside} == {"_factor", "kernel_matrix"}
        assert all(counts == [1] * len(controls) for _, counts in inside)
        assert [get() for get, _ in controls] == before

        def failing_factor(K, noise_variance):
            raise np.linalg.LinAlgError("no factor")

        monkeypatch.setattr(surrogate, "_factor", failing_factor)
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
