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
    GpUcbSampler,
    SobolSampler,
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
from conftest import (
    SAMPLERS,
    ConstantVelocityEgoStub,
    ScoredPrompt,
    record_blas_threads,
    scenario_with_agents,
)


def short_scale_params():
    return KernelParams(
        signal_variance=1.0, length_scales=(0.2, 0.2), noise_variance=1e-6
    )


@pytest.fixture
def pinned_kernel(monkeypatch):
    """Condition the GP on short_scale_params() instead of refitting by MLE."""
    monkeypatch.setattr(
        surrogate, "fit",
        lambda X, y, helper=None: build_model(X, y, short_scale_params()),
    )


def corner_history():
    return [
        ScoredPrompt(prompt=(0.0, 0.0), score=0.0),
        ScoredPrompt(prompt=(1.0, 1.0), score=10.0),
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


def loop_candidate_set(history, count, dim):
    """The per-observation loop that _candidate_set's broadcast replaced."""
    cands = sobol_points(count, dim=dim, start=1)
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
    history = [ScoredPrompt(prompt=p, score=float(i)) for i, p in enumerate(prompts)]
    history[3] = ScoredPrompt(prompt=history[3].prompt, score=-math.inf)
    return history


# peak RSS of a budget-12 GP-UCB campaign with 9 simulated agents (prompt
# dimension 18) in a fresh interpreter; about 90 MB with 64 corners per
# observation, over 900 MB with all 2^18
BO_9_AGENTS_PEAK_RSS_MB = 250
BO_9_AGENTS_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from conftest import scenario_with_agents
from avstress.optimizer import GpUcbSampler, run_campaign
from avstress.planner import LatticePlanner
records = run_campaign(scenario_with_agents(9), GpUcbSampler(), LatticePlanner(), 12)
print(sum(r.failed for r in records), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestCandidateSet:
    # 6: the largest dimension whose 2^dim corners all enter, 2^6 = LOCAL_CORNERS
    @pytest.mark.parametrize("dim", [2, 6])
    def test_equals_per_observation_loop(self, dim):
        history = edge_history(dim)
        got = _candidate_set(history, 32, dim)
        assert got.shape == (32 + len(history) * 2**dim, dim)
        assert hex_rows(got) == hex_rows(loop_candidate_set(history, 32, dim))

    @pytest.mark.parametrize("dim", [7, 8, 12, 18])
    def test_sobol_signed_corners_above_the_full_box_dimension(self, dim):
        history = edge_history(dim)
        got = _candidate_set(history, 32, dim)
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
        assert suggest_next(SobolSampler(), [], 2) == (0.5, 0.5)

    def test_sobol_follows_sequence(self):
        history = []
        for i in range(1, 6):
            u = suggest_next(SobolSampler(), history, 2)
            assert u == sobol_point(i, dim=2)
            history.append(ScoredPrompt(prompt=u, score=0.0))

    def test_sobol_ignores_scores(self):
        lo = [ScoredPrompt(prompt=sobol_point(i), score=-100.0) for i in (1, 2, 3)]
        hi = [ScoredPrompt(prompt=sobol_point(i), score=+100.0) for i in (1, 2, 3)]
        assert suggest_next(SobolSampler(), lo, 2) == suggest_next(SobolSampler(), hi, 2)

    def test_bo_bootstraps_from_sobol(self):
        assert suggest_next(GpUcbSampler(), [], 2) == sobol_point(1)
        one = [ScoredPrompt(prompt=sobol_point(1), score=1.0)]
        assert suggest_next(GpUcbSampler(), one, 2) == sobol_point(2)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_bo_exploits_high_score_corner(self):
        # beta=0 with a short length-scale: suggestion hugs the good corner;
        # oracle = dense-grid argmax of the posterior mean
        history = corner_history()
        u = suggest_next(GpUcbSampler(beta=0.0), history, 2)
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
        u = suggest_next(GpUcbSampler(beta=1e6), corner_history(), 2)
        for obs in corner_history():
            d = math.hypot(u[0] - obs.prompt[0], u[1] - obs.prompt[1])
            assert d >= 0.3

    @pytest.mark.usefixtures("pinned_kernel")
    def test_failed_episodes_excluded_from_gp(self):
        # -inf observations must not poison the surrogate
        history = corner_history() + [
            ScoredPrompt(prompt=(0.5, 0.5), score=-math.inf)
        ]
        u = suggest_next(GpUcbSampler(beta=0.0), history, 2)
        assert all(math.isfinite(v) for v in u)
        assert math.hypot(u[0] - 1.0, u[1] - 1.0) < 0.05

    @pytest.mark.usefixtures("pinned_kernel")
    def test_argmax_invariant_under_affine_rescale(self):
        sampler = GpUcbSampler(beta=0.0)
        rng = np.random.default_rng(21)
        history = [
            ScoredPrompt(prompt=tuple(rng.random(2)), score=float(rng.normal()))
            for _ in range(8)
        ]
        scaled = [
            ScoredPrompt(prompt=o.prompt, score=3.0 * o.score + 7.0) for o in history
        ]
        assert suggest_next(sampler, history, 2) == suggest_next(sampler, scaled, 2)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_suggestions_stay_in_unit_square(self):
        for sampler in (SobolSampler(), GpUcbSampler()):
            history = []
            rng = np.random.default_rng(22)
            for _ in range(12):
                u = suggest_next(sampler, history, 2)
                assert all(0.0 <= v <= 1.0 for v in u)
                history.append(ScoredPrompt(prompt=u, score=float(rng.normal())))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GpUcbSampler(beta=-1.0)
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                GpUcbSampler(beta=beta)
        with pytest.raises(ValueError):
            GpUcbSampler(candidates=4)


class TestSyntheticSearch:
    def run_sampler(self, kind, budget):
        # distance-to-optimum objective; higher is better
        opt = (0.7, 0.3)
        history = []
        for _ in range(budget):
            u = suggest_next(SAMPLERS[kind], history, 2)
            g = -math.hypot(u[0] - opt[0], u[1] - opt[1])
            history.append(ScoredPrompt(prompt=u, score=g))
        return max(obs.score for obs in history)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_bo_beats_sobol_on_distance_objective(self):
        budget = 30
        assert self.run_sampler("bo", budget) >= self.run_sampler("sobol", budget)


class TestRunCampaign:
    def test_sobol_budget_three_uses_first_three_points(self, two_lane_scenario):
        records = run_campaign(two_lane_scenario, SobolSampler(), ConstantVelocityEgoStub(), 3)
        assert len(records) == 3
        for i, rec in enumerate(records, start=1):
            assert rec.prompt == sobol_point(i)

    @pytest.mark.usefixtures("pinned_kernel")
    def test_campaign_is_deterministic(self, two_lane_scenario):
        def run():
            return run_campaign(two_lane_scenario, GpUcbSampler(), ConstantVelocityEgoStub(), 5)

        a, b = run(), run()
        assert [r.prompt for r in a] == [r.prompt for r in b]
        assert [r.score for r in a] == [r.score for r in b]
        for ra, rb in zip(a, b):
            assert len(ra.episode.trace) == len(rb.episode.trace)
            for ja, jb in zip(ra.episode.trace, rb.episode.trace):
                assert ja.states == jb.states

    def test_goals_inside_domain_image(self, two_lane_scenario):
        records = run_campaign(two_lane_scenario, SobolSampler(), ConstantVelocityEgoStub(), 8)
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

        sampler = GpUcbSampler()
        records = run_campaign(two_lane_scenario, sampler, planner, 6,
                               episode_sink=fail_the_third)
        assert [r.failed for r in records] == [False, False, True, False, False, False]
        observations = [ScoredPrompt(prompt=r.prompt, score=r.score) for r in records]
        for k in range(3, len(records)):
            got = suggest_next(sampler, records[:k], 2)
            want = suggest_next(sampler, observations[:k], 2)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert got == records[k].prompt

    def test_planner_failure_recorded_not_fatal(self, two_lane_scenario):
        class AlwaysFails:
            def plan(self, world, scenario):
                raise RuntimeError("no solution")

        records = run_campaign(two_lane_scenario, SobolSampler(), AlwaysFails(), 4)
        assert len(records) == 4
        for rec in records:
            assert rec.failed
            assert rec.score == -math.inf


    @pytest.mark.parametrize("kind,n_simulated", [("bo", 5), ("sobol", 6)])
    def test_many_agents_complete(self, kind, n_simulated):
        # the GP's restarts need 2 * agents + 2 Sobol dimensions: 12 at 5 agents
        scenario = scenario_with_agents(n_simulated)
        records = run_campaign(scenario, SAMPLERS[kind], LatticePlanner(), 4)
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
        records = run_campaign(scenario, SobolSampler(), LatticePlanner(), 2)
        assert len(records) == 2
        assert [r.failure_reason for r in records if r.failed] == []


class TestBlasThreadScope:
    def test_one_thread_inside_suggest_next_and_previous_count_after(self, monkeypatch):
        controls, inside = record_blas_threads(monkeypatch)
        before = [get() for get, _ in controls]
        history = [ScoredPrompt(prompt=sobol_point(i), score=float(i)) for i in (1, 2, 3)]
        suggest_next(GpUcbSampler(), history, 2)
        # the fit's factorizations and the posterior's kernel calls
        assert {name for name, _ in inside} == {"_factor", "kernel_matrix"}
        assert all(counts == [1] * len(controls) for _, counts in inside)
        assert [get() for get, _ in controls] == before

        def failing_factor(K, noise_variance):
            raise np.linalg.LinAlgError("no factor")

        monkeypatch.setattr(surrogate, "_factor", failing_factor)
        with pytest.raises(np.linalg.LinAlgError):
            suggest_next(GpUcbSampler(), history, 2)
        assert [get() for get, _ in controls] == before

    def test_no_openblas_found_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(surrogate, "_openblas_thread_controls", lambda: ())
        records = run_campaign(load_preset("front"), GpUcbSampler(), LatticePlanner(), 4)
        assert len(records) == 4
        assert [r.failure_reason for r in records if r.failed] == []


class TestSplitPrompt:
    def test_dim_matches_agent_count(self, two_lane_scenario):
        assert prompt_dim(two_lane_scenario) == 2

    def test_goal_per_agent(self, two_lane_scenario):
        goals = split_prompt(two_lane_scenario, (0.0, 0.0))
        assert set(goals) == {"npc"}
        assert (goals["npc"].x, goals["npc"].y) == pytest.approx((15.0, -1.75))
