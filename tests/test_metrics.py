import math

import numpy as np
import pytest

from avstress.geom import Point2, euclidean_distance
from avstress.metrics import (
    agent_trajectory,
    asd,
    campaign_stats,
    distance_table,
    score_episode,
)
from avstress.scenario import load_scenario
from conftest import (
    TWO_LANE_YAML,
    brute_force_min_distance,
    make_episode,
    stats_of,
    straight_positions,
    trajectory_distance,
)

CONTACT = 4.8  # both preset vehicles are 4.8 m long


def two_agent_scenario():
    text = TWO_LANE_YAML.replace(
        "ego_goal:",
        "  - {id: npc2, role: simulated, x: 30.0, y: 0.0, heading: 0.0, speed: 10.0, length: 4.8, width: 2.0}\nego_goal:",
    ).replace(
        "sim: {dt",
        "  - {agent_id: npc2, lane: right, s_min: 90.0, s_max: 175.0, l_min: -1.75, l_max: 1.75}\nsim: {dt",
    )
    return load_scenario(text, scenario_id="two_agent")


class TestCriticality:
    def test_single_step_single_agent(self, two_lane_scenario):
        ep = make_episode(
            {"ego": [(0.0, 0.0), (0.0, 0.0)], "npc": [(50.0, 0.0), (3.0, 4.0)]},
        )
        assert score_episode(ep, two_lane_scenario).g == pytest.approx(-5.0)

    def test_min_over_timesteps(self, two_lane_scenario):
        ep = make_episode(
            {"ego": [(0.0, 0.0)] * 3, "npc": [(50.0, 0.0), (5.0, 0.0), (2.0, 0.0)]},
        )
        assert score_episode(ep, two_lane_scenario).g == pytest.approx(-2.0)

    def test_min_over_agents_and_timesteps(self):
        sc = two_agent_scenario()
        ep = make_episode(
            {
                "ego": [(0.0, 0.0)] * 4,
                "npc": [(50.0, 0.0), (4.0, 0.0), (3.0, 0.0), (6.0, 0.0)],
                "npc2": [(50.0, 0.0), (7.0, 0.0), (2.5, 0.0), (8.0, 0.0)],
            },
        )
        assert score_episode(ep, sc).g == pytest.approx(-2.5)

    def test_initial_state_excluded(self, two_lane_scenario):
        # the t=0 distance (1 m) must not contribute
        ep = make_episode(
            {"ego": [(0.0, 0.0)] * 2, "npc": [(1.0, 0.0), (9.0, 0.0)]},
        )
        assert score_episode(ep, two_lane_scenario).g == pytest.approx(-9.0)

    def test_matches_brute_force_oracle(self, two_lane_scenario):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            ep = make_episode(
                {
                    "ego": [tuple(p) for p in rng.uniform(-50, 50, (n, 2))],
                    "npc": [tuple(p) for p in rng.uniform(-50, 50, (n, 2))],
                },
            )
            oracle = brute_force_min_distance(ep, two_lane_scenario)
            assert score_episode(ep, two_lane_scenario).g == pytest.approx(
                -oracle, abs=1e-12
            )

    def test_translation_invariance(self, two_lane_scenario):
        rng = np.random.default_rng(32)
        pts_e = rng.uniform(-20, 20, (6, 2))
        pts_n = rng.uniform(-20, 20, (6, 2))
        shift = np.array([123.4, -56.7])
        ep0 = make_episode(
            {"ego": [tuple(p) for p in pts_e], "npc": [tuple(p) for p in pts_n]},
        )
        ep1 = make_episode(
            {
                "ego": [tuple(p + shift) for p in pts_e],
                "npc": [tuple(p + shift) for p in pts_n],
            },
        )
        g0 = score_episode(ep0, two_lane_scenario).g
        g1 = score_episode(ep1, two_lane_scenario).g
        assert abs(g0 - g1) < 1e-9


class TestDistanceTable:
    def test_one_row_per_step_one_column_per_agent_in_config_order(self):
        sc = two_agent_scenario()
        # positions listed out of config order, which is ego, npc, npc2
        ep = make_episode(
            {
                "npc2": [(6.0, 8.0), (1.0, -1.0), (0.0, 7.0)],
                "ego": [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)],
                "npc": [(3.0, 4.0), (1.0, 2.0), (-4.0, 3.0)],
            },
        )
        assert distance_table(ep, sc) == [[5.0, 10.0], [2.0, 1.0], [5.0, 7.0]]


class TestTtc:
    def test_constant_closing_speed(self, two_lane_scenario):
        # gap 10 m closing at 5 m/s -> 2.0 s
        ep = make_episode(
            {
                "ego": [(0.0, 0.0), (0.0, 0.0)],
                "npc": [(CONTACT + 10.0, 0.0), (CONTACT + 9.5, 0.0)],
            },
        )
        assert score_episode(ep, two_lane_scenario).ttc_min == pytest.approx(2.0)

    def test_opening_gap_is_infinite(self, two_lane_scenario):
        ep = make_episode(
            {
                "ego": [(0.0, 0.0)] * 4,
                "npc": straight_positions((CONTACT + 5.0, 0.0), (3.0, 0.0), 4),
            },
        )
        assert score_episode(ep, two_lane_scenario).ttc_min == math.inf

    def test_contact_is_zero(self, two_lane_scenario):
        ep = make_episode(
            {"ego": [(0.0, 0.0)] * 2, "npc": [(20.0, 0.0), (2.0, 0.0)]},
        )
        assert score_episode(ep, two_lane_scenario).ttc_min == 0.0

    def test_shrinking_gaps_never_increase_ttc(self, two_lane_scenario):
        rng = np.random.default_rng(33)
        for _ in range(10):
            gaps = rng.uniform(1.0, 20.0, 8)

            def episode_for(scale):
                npc = [(CONTACT + scale * g, 0.0) for g in gaps]
                return make_episode(
                    {"ego": [(0.0, 0.0)] * len(npc), "npc": npc}
                )

            base = score_episode(episode_for(1.0), two_lane_scenario).ttc_min
            shrunk = score_episode(episode_for(0.4), two_lane_scenario).ttc_min
            assert shrunk <= base + 1e-9


class TestTrajectoryDistance:
    """ASD's pair term, the mean distance between corresponding points: the
    ASD of two trajectories is half of it."""

    def test_identical(self):
        tau = [(float(k), 0.0) for k in range(5)]
        assert asd([tau, tau]) == 0.0

    def test_constant_offset(self):
        a = [(float(k), 0.0) for k in range(6)]
        b = [(float(k), 3.0) for k in range(6)]
        assert 2 * asd([a, b]) == pytest.approx(3.0)

    def test_truncates_to_shorter(self):
        a = [(float(k), 0.0) for k in range(5)]
        b = [(float(k), 2.0) for k in range(8)]
        assert 2 * asd([a, b]) == pytest.approx(2.0)
        assert 2 * asd([b, a]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            asd([[], [(0.0, 0.0)]])


class TestAsd:
    def test_identical_pair_is_zero(self):
        tau = [(float(k), 0.0) for k in range(4)]
        assert asd([tau, list(tau)]) == 0.0

    def test_pair_offset_default_normalization(self):
        a = [(float(k), 0.0) for k in range(4)]
        b = [(float(k), 4.0) for k in range(4)]
        assert asd([a, b]) == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(34)
        trajs = [
            [(float(x), float(y)) for x, y in rng.uniform(-10, 10, (6, 2))]
            for _ in range(5)
        ]
        n = len(trajs)
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += trajectory_distance(trajs[i], trajs[j])
        assert asd(trajs) == pytest.approx(total / (n * (n - 1)), abs=1e-12)

    def test_permutation_invariance_and_nonnegativity(self):
        rng = np.random.default_rng(35)
        trajs = [
            [(float(x), float(y)) for x, y in rng.uniform(-5, 5, (4, 2))]
            for _ in range(4)
        ]
        base = asd(trajs)
        assert base >= 0.0
        perm = [trajs[2], trajs[0], trajs[3], trajs[1]]
        assert asd(perm) == pytest.approx(base, abs=1e-12)

    def test_single_trajectory_rejected(self):
        with pytest.raises(ValueError):
            asd([[(0.0, 0.0)]])

    @pytest.mark.parametrize("n_e", [2, 3, 75])
    def test_bits_match_per_point_formula(self, n_e):
        # the per-point formula over Point2 trajectories that asd replaced,
        # verbatim; stats.csv must not move by one bit
        def old_trajectory_distance(tau_a, tau_b):
            n = min(len(tau_a), len(tau_b))
            return sum(euclidean_distance(tau_a[k], tau_b[k]) for k in range(n)) / n

        def old_asd(trajectories):
            n_e = len(trajectories)
            total = 0.0
            for i in range(n_e):
                for j in range(i + 1, n_e):
                    total += old_trajectory_distance(trajectories[i], trajectories[j])
            return total / (n_e * (n_e - 1))

        rng = np.random.default_rng(n_e)
        # lengths as in a campaign: most episodes run the full horizon, the
        # collision-truncated ones end early, down to two entries
        lengths = [81 if k % 3 else int(rng.integers(2, 81)) for k in range(n_e)]
        lengths[-1] = 2
        trajs = [
            [Point2(float(x), float(y)) for x, y in rng.uniform(-50, 250, (n, 2))]
            for n in lengths
        ]
        xy = [[(p.x, p.y) for p in tau] for tau in trajs]
        for i in range(n_e - 1):
            for j in (i + 1, n_e - 1):
                assert asd([xy[i], xy[j]]).hex() == old_asd([trajs[i], trajs[j]]).hex()
        assert asd(xy).hex() == old_asd(trajs).hex()


class TestCampaignStats:
    def episodes_for_rates(self, scenario):
        eps = []
        for k in range(4):
            collided = k == 0
            eps.append(
                make_episode(
                    {
                        "ego": straight_positions((0.0, 0.0), (10.0, 0.0), 6),
                        "npc": straight_positions((20.0 + k, 3.5), (8.0, 0.0), 6),
                    },
                    collision=(5, ("ego", "npc")) if collided else None,
                )
            )
        return eps

    def test_collision_rate(self, two_lane_scenario):
        stats = stats_of(self.episodes_for_rates(two_lane_scenario), two_lane_scenario)
        assert stats.coll_pct == pytest.approx(25.0)
        assert stats.n == 4

    def test_identical_episodes_zero_spread(self, two_lane_scenario):
        ep = lambda: make_episode(
            {
                "ego": straight_positions((0.0, 0.0), (10.0, 0.0), 6),
                "npc": straight_positions((30.0, 3.5), (8.0, 0.0), 6),
            },
        )
        stats = stats_of([ep(), ep(), ep()], two_lane_scenario)
        assert stats.ego_asd == 0.0
        assert stats.agent_asd == 0.0
        assert stats.min_dist_std == pytest.approx(0.0)

    def test_manual_three_episode_oracle(self, two_lane_scenario):
        sc = two_lane_scenario
        eps = [
            make_episode(
                {
                    "ego": [(0.0, 0.0)] * 3,
                    "npc": [(CONTACT + 9.0, 0.0), (CONTACT + 10.0, 0.0), (CONTACT + 9.5, 0.0)],
                },
            ),
            make_episode(
                {
                    "ego": [(0.0, 0.0)] * 3,
                    "npc": [(19.0, 0.0), (20.0, 0.0), (21.0, 0.0)],
                },
            ),
            make_episode(
                {
                    "ego": [(0.0, 0.0)] * 3,
                    "npc": [(50.0, 0.0), (2.0, 0.0), (2.0, 0.0)],
                },
                collision=(1, ("ego", "npc")),
            ),
        ]
        stats = stats_of(eps, sc)
        # spreadsheet-style recomputation
        min_dists = [CONTACT + 9.5, 20.0, 2.0]
        m = sum(min_dists) / 3
        sd = math.sqrt(sum((d - m) ** 2 for d in min_dists) / 2)
        assert stats.coll_pct == pytest.approx(100.0 / 3)
        assert stats.min_dist_mean == pytest.approx(m)
        assert stats.min_dist_std == pytest.approx(sd)
        # episode 1 closes at 5 m/s from gap 10; episode 2 opens; episode 3 contacts
        assert stats.ttc_mean == pytest.approx((2.0 + 0.0) / 2)
        assert stats.ttc_inf_count == 1
        # ego trajectories identical -> EgoASD 0; npc diversity from the pair sums
        assert stats.ego_asd == 0.0
        npc_trajs = [agent_trajectory(e, "npc") for e in eps]
        assert npc_trajs[2] == [(50.0, 0.0), (2.0, 0.0), (2.0, 0.0)]
        total = sum(
            trajectory_distance(npc_trajs[i], npc_trajs[j])
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert stats.agent_asd == pytest.approx(total / 6)

    def test_one_score_per_episode_or_value_error(self, two_lane_scenario):
        eps = self.episodes_for_rates(two_lane_scenario)
        scores = [score_episode(e, two_lane_scenario) for e in eps]
        ego = [agent_trajectory(e, "ego") for e in eps]
        npc = [agent_trajectory(e, "npc") for e in eps]
        with pytest.raises(ValueError, match="3 paths of an agent for 4 scores"):
            campaign_stats(scores, [ego, npc[1:]])
        with pytest.raises(ValueError, match="4 paths of an agent for 3 scores"):
            campaign_stats(scores[1:], [ego[1:], npc])

    def test_too_few_episodes_rejected(self, two_lane_scenario):
        eps = self.episodes_for_rates(two_lane_scenario)[:1]
        with pytest.raises(ValueError):
            stats_of(eps, two_lane_scenario)

    def test_score_episode_consistency(self, two_lane_scenario):
        ep = self.episodes_for_rates(two_lane_scenario)[1]
        s = score_episode(ep, two_lane_scenario)
        assert s.g == pytest.approx(-s.min_dist)
        assert not s.collided
