"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N (<name>): PASS|FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them inline. The search
pipeline is fully deterministic given its configuration (quasi-random
sampling plus deterministic GP fitting), so criteria phrased "over k seeds"
evaluate a single run per configuration: repeated seeds are bit-identical.
"""
import math
import os
import time

import numpy as np
import pytest

from avstress import persist
from avstress.cli import main as cli_main
from avstress.geom import Point2
from avstress.metrics import asd, score_episode
from avstress.optimizer import suggest_next
from avstress.planner import LatticePlanner, predict_constant_velocity
from avstress.scenario import PRESET_NAMES, load_preset
from avstress.sim import AgentState, initial_joint_state, simulate_episode
from avstress.sobol import sobol_point, sobol_points
from avstress.surrogate import (
    KernelParams,
    build_model,
    fit_pairs,
    kernel_matrix,
    log_marginal_likelihood,
    posterior_batch,
)
from conftest import (
    SAMPLERS,
    ScoredPrompt,
    ScriptedPolicy,
    make_episode,
    run_collecting,
    scenario_with_agents,
    stats_of,
    trajectory_distance,
)


def _criterion(num, name):
    class Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {num} ({name}): {verdict}")
            return False

    return Reporter()


def test_criterion_1_scoring_oracle():
    with _criterion(1, "scoring oracle equivalence"):
        rng = np.random.default_rng(100)
        start = time.monotonic()
        scenarios = {n: scenario_with_agents(n) for n in (1, 2, 3)}
        for _ in range(200):
            n_sim = int(rng.integers(1, 4))  # 2-4 agents total
            scenario = scenarios[n_sim]
            steps = int(rng.integers(10, 81))
            positions = {
                a.id: [tuple(p) for p in rng.uniform(-100, 100, (steps, 2))]
                for a in scenario.agents
            }
            episode = make_episode(positions)
            # independent exhaustive (t, n) double loop
            ego_id = scenario.ego.id
            best = math.inf
            for t in range(1, steps):
                ex, ey = positions[ego_id][t]
                for a in scenario.simulated_agents:
                    ax, ay = positions[a.id][t]
                    best = min(best, math.hypot(ex - ax, ey - ay))
            assert abs(score_episode(episode, scenario).g + best) <= 1e-12
        assert time.monotonic() - start < 5.0


def test_criterion_2_gp_correctness():
    with _criterion(2, "GP correctness"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        # (a) analytic gradient vs central finite differences
        h = 1e-5
        for _ in range(10):
            X = rng.random((int(rng.integers(4, 10)), 2))
            y = rng.normal(size=len(X))
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
        # (b) posterior interpolation at the noise floor
        params = KernelParams(
            signal_variance=1.5, length_scales=(0.4, 0.4), noise_variance=1e-8
        )
        X = rng.random((8, 2))
        y = rng.normal(size=8)
        model = build_model(X, y, params)
        mean, _ = posterior_batch(model, X)
        assert np.all(np.abs(mean - y) < 1e-4)
        # (c) Gram-matrix positive semidefiniteness
        for _ in range(50):
            X = rng.random((int(rng.integers(3, 15)), 2))
            p = KernelParams(
                signal_variance=float(rng.uniform(0.1, 3.0)),
                length_scales=tuple(rng.uniform(0.1, 2.0, 2)),
                noise_variance=1e-8,
            )
            K = kernel_matrix(X, X, p)
            assert float(np.linalg.eigvalsh(K).min()) >= -1e-8
        assert time.monotonic() - start < 30.0


def _search_best(kind, scorer, budget):
    history = []
    for _ in range(budget):
        u = suggest_next(SAMPLERS[kind], history, 2)
        history.append(ScoredPrompt(prompt=u, score=scorer(u)))
    return max(obs.score for obs in history)


def _neg_branin(u):
    x1 = -5.0 + 15.0 * u[0]
    x2 = 15.0 * u[1]
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return -(
        (x2 - b * x1**2 + c * x1 - 6.0) ** 2
        + 10.0 * (1.0 - t) * math.cos(x1)
        + 10.0
    )


def test_criterion_3_bo_effectiveness_synthetic():
    with _criterion(3, "BO effectiveness on synthetic objectives"):
        start = time.monotonic()
        budget = 40
        # both samplers are deterministic; the Branin comparison is one run,
        # repeated seeds would reproduce it bit-for-bit
        branin_bo = _search_best("bo", _neg_branin, budget)
        branin_sobol = _search_best("sobol", _neg_branin, budget)
        # distance objective: the optimum location varies per seed
        bo_bests, sobol_bests = [], []
        for seed in range(20):
            opt = np.random.default_rng(seed).random(2)

            def scorer(u):
                return -math.hypot(u[0] - opt[0], u[1] - opt[1])

            bo_bests.append(_search_best("bo", scorer, budget))
            sobol_bests.append(_search_best("sobol", scorer, budget))
        dist_bo = float(np.median(bo_bests))
        dist_sobol = float(np.median(sobol_bests))
        assert branin_bo >= branin_sobol
        assert dist_bo >= dist_sobol
        assert branin_bo > branin_sobol or dist_bo > dist_sobol
        assert time.monotonic() - start < 120.0


@pytest.fixture(scope="module")
def preset_campaigns():
    """Budget-75 campaigns for every (preset, sampler); deterministic, so a
    single run stands in for each of the 5 identical seeds."""
    out = {}
    start = time.monotonic()
    for name in PRESET_NAMES:
        scenario = load_preset(name)
        for kind in ("bo", "sobol"):
            pairs = run_collecting(scenario, SAMPLERS[kind], LatticePlanner(), 75)
            good = [(r, e) for r, e in pairs if not r.failed]
            stats = stats_of([e for _, e in good], scenario, [r.metrics for r, _ in good])
            out[(name, kind)] = stats
    out["elapsed"] = time.monotonic() - start
    return out


def test_criterion_4_directional_table(preset_campaigns):
    with _criterion(4, "directional safety-metric comparison"):
        wins = 0
        any_bo_collision = False
        for name in PRESET_NAMES:
            bo = preset_campaigns[(name, "bo")]
            sobol = preset_campaigns[(name, "sobol")]
            if bo.coll_pct > 0:
                any_bo_collision = True
            if bo.coll_pct >= sobol.coll_pct and bo.min_dist_mean <= sobol.min_dist_mean:
                wins += 1
        assert wins >= 2
        assert any_bo_collision
        assert preset_campaigns["elapsed"] < 15 * 60


def test_criterion_5_diversity_metrics(preset_campaigns):
    with _criterion(5, "diversity metrics"):
        rng = np.random.default_rng(102)
        for _ in range(20):
            trajs = [
                [(float(x), float(y)) for x, y in rng.uniform(-30, 30, (7, 2))]
                for _ in range(int(rng.integers(2, 7)))
            ]
            n = len(trajs)
            total = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    total += trajectory_distance(trajs[i], trajs[j])
            assert abs(asd(trajs) - total / (n * (n - 1))) <= 1e-12
        same = [(float(k), 0.0) for k in range(5)]
        assert asd([same, list(same)]) == 0.0
        for name in PRESET_NAMES:
            for kind in ("bo", "sobol"):
                assert preset_campaigns[(name, kind)].agent_asd > 0.0


def test_criterion_6_planner_premise():
    with _criterion(6, "planner premise safety"):
        # deterministic episode per preset; 20 identical seeds collapse to one
        for name in PRESET_NAMES:
            scenario = load_preset(name)
            agent = scenario.simulated_agents[0]
            state0 = initial_joint_state(scenario).states[agent.id]
            pred = predict_constant_velocity(
                state0, scenario.map, scenario.sim.horizon_steps, scenario.sim.dt
            )
            scripted = ScriptedPolicy(
                agent.id,
                [AgentState(Point2(*wp), state0.heading, state0.speed) for wp in pred],
            )
            episode = simulate_episode(scenario, LatticePlanner(), {agent.id: scripted})
            assert not episode.failed
            assert episode.collision is None


def test_criterion_7_run_determinism(tmp_path, capsys):
    with _criterion(7, "byte-identical reruns"):
        trees = []
        for tag in ("a", "b"):
            out_root = str(tmp_path / tag)
            code = cli_main(
                ["run", "front", "--sampler", "bo", "--budget", "6", "--out", out_root]
            )
            assert code == 0
            out_dir = capsys.readouterr().out.strip().splitlines()[-1]
            tree = {}
            for dirpath, _, files in os.walk(out_dir):
                for fname in files:
                    full = os.path.join(dirpath, fname)
                    with open(full, "rb") as fh:
                        tree[os.path.relpath(full, out_dir)] = fh.read()
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1]


def test_criterion_8_sobol_correctness():
    with _criterion(8, "Sobol sequence correctness"):
        qmc = pytest.importorskip("scipy.stats.qmc")
        # reference direction-number implementation (unscrambled Joe-Kuo)
        ref = qmc.Sobol(d=2, scramble=False).random(256)
        mine = sobol_points(8, dim=2, start=1)
        for i in range(8):
            assert tuple(ref[i + 1]) == tuple(mine[i])
        assert sobol_point(1) == (0.5, 0.5)
        assert sobol_point(2) == (0.75, 0.25)
        # 16x16 stratification of the first 256 sequence elements (the
        # underlying sequence starts at the origin point)
        block = np.vstack([[0.0, 0.0], np.array(sobol_points(255, dim=2, start=1))])
        assert np.allclose(block, ref)
        counts = np.zeros((16, 16), dtype=int)
        for u1, u2 in block:
            counts[min(int(u1 * 16), 15), min(int(u2 * 16), 15)] += 1
        assert np.all(counts == 1)
