import math

import pytest

from avstress.geom import Point2
from avstress.planner import ACCEL_GRID, D_SAFE, LatticePlanner, predict_constant_velocity
from avstress.scenario import load_scenario
from avstress.sim import AgentState, ScriptedPolicy, initial_joint_state, simulate_episode
from conftest import TWO_LANE_YAML


class TestPredictConstantVelocity:
    def test_on_centerline(self, two_lane_scenario):
        agent = AgentState(Point2(0.0, 0.0), 0.0, 10.0)
        pred = predict_constant_velocity(agent, two_lane_scenario.map, 10, 0.1)
        for k, wp in enumerate(pred.waypoints, start=1):
            assert wp.x == pytest.approx(k * 1.0)
            assert wp.y == pytest.approx(0.0)

    def test_lateral_offset_decays(self, two_lane_scenario):
        agent = AgentState(Point2(0.0, 1.0), 0.0, 10.0)  # 1 m left of right lane
        pred = predict_constant_velocity(agent, two_lane_scenario.map, 20, 0.1)
        offsets = [wp.y for wp in pred.waypoints]
        assert all(b < a for a, b in zip(offsets[:-1], offsets[1:]))
        assert offsets[-1] < offsets[0]
        assert offsets[-1] > 0.0

    def test_agent_at_rest(self, two_lane_scenario):
        agent = AgentState(Point2(5.0, 0.4), 0.0, 0.0)
        pred = predict_constant_velocity(agent, two_lane_scenario.map, 5, 0.1)
        # arc-length frozen; only the lateral decay moves the waypoints
        for wp in pred.waypoints:
            assert wp.x == pytest.approx(5.0)
            assert 0.0 <= wp.y < 0.4

    def test_far_from_lanes_straight_fallback(self, two_lane_scenario):
        agent = AgentState(Point2(0.0, 50.0), math.pi / 2, 4.0)
        pred = predict_constant_velocity(agent, two_lane_scenario.map, 5, 0.1)
        for k, wp in enumerate(pred.waypoints, start=1):
            assert wp.x == pytest.approx(0.0, abs=1e-9)
            assert wp.y == pytest.approx(50.0 + 0.4 * k)


class TestLatticePlan:
    def test_empty_road_targets_goal_lane_with_max_accel(self):
        # remove the npc's influence by parking it far away in the left lane;
        # goal 45 m ahead in the right lane so the lateral term matters
        text = TWO_LANE_YAML.replace("x: 15.0, y: 3.5", "x: 280.0, y: 3.5").replace(
            "s_min: 75.0", "s_min: 340.0"
        ).replace("s_max: 175.0", "s_max: 355.0").replace("x: 90.0, y: 0.0", "x: 45.0, y: 0.0")
        sc = load_scenario(text)
        planner = LatticePlanner()
        cands = planner.candidates(initial_joint_state(sc), sc)
        feasible = [c for c in cands if c.min_clearance >= D_SAFE]
        best = min(feasible, key=lambda c: c.cost)
        assert best.target_lane == "right"
        assert best.accel == max(ACCEL_GRID)

    def test_stationary_obstacle_forces_brake_or_lane_change(self):
        # npc stopped 5 m ahead of a slow-moving ego in the ego's lane
        text = TWO_LANE_YAML.replace(
            "{id: npc, role: simulated, x: 15.0, y: 3.5, heading: 0.0, speed: 10.0",
            "{id: npc, role: simulated, x: 5.0, y: 3.5, heading: 0.0, speed: 0.0",
        ).replace(
            "role: ego, x: 0.0, y: 3.5, heading: 0.0, speed: 10.0",
            "role: ego, x: 0.0, y: 3.5, heading: 0.0, speed: 3.0",
        ).replace("s_min: 75.0", "s_min: 65.0")
        sc = load_scenario(text)
        planner = LatticePlanner()
        cands = planner.candidates(initial_joint_state(sc), sc)
        # hand-enumeration: every current-lane candidate with accel >= 0 runs
        # into the stationary prediction within the horizon
        for c in cands:
            if c.target_lane == "left" and c.accel >= 0.0:
                assert c.min_clearance < D_SAFE
        feasible = [c for c in cands if c.min_clearance >= D_SAFE]
        assert feasible, "braking should keep the ego clear of the obstacle"
        chosen = min(feasible, key=lambda c: c.cost)
        assert chosen.target_lane == "right" or chosen.accel < 0.0

    def test_boxed_in_fallback_returns_max_clearance(self):
        # surround the ego: stopped traffic ahead in both lanes
        text = TWO_LANE_YAML.replace(
            "{id: npc, role: simulated, x: 15.0, y: 3.5, heading: 0.0, speed: 10.0",
            "{id: npc, role: simulated, x: 7.0, y: 3.5, heading: 0.0, speed: 0.0",
        ).replace(
            "ego_goal:",
            "  - {id: npc2, role: simulated, x: 7.0, y: 0.0, heading: 0.0, speed: 0.0, length: 4.8, width: 2.0}\nego_goal:",
        ).replace(
            "sim: {dt",
            "  - {agent_id: npc2, lane: right, s_min: 67.0, s_max: 175.0, l_min: -1.75, l_max: 1.75}\nsim: {dt",
        ).replace("s_min: 75.0", "s_min: 67.0")
        sc = load_scenario(text)
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        cands = planner.candidates(world, sc)
        assert all(c.min_clearance < D_SAFE for c in cands)
        plan = planner.plan(world, sc)
        assert len(plan) == sc.sim.replan_every

    def test_plan_is_deterministic(self, two_lane_scenario):
        sc = two_lane_scenario
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        a = planner.plan(world, sc)
        b = planner.plan(world, sc)
        assert a == b

    def test_premise_safe_when_prediction_holds(self, two_lane_scenario):
        # if the npc behaves exactly as predicted, the planner keeps clear
        sc = two_lane_scenario
        npc0 = initial_joint_state(sc).states["npc"]
        pred = predict_constant_velocity(npc0, sc.map, sc.sim.horizon_steps, sc.sim.dt)
        states = [AgentState(wp, npc0.heading, npc0.speed) for wp in pred.waypoints]
        episode = simulate_episode(
            sc, {"npc": sc.ego_goal}, LatticePlanner(), {"npc": ScriptedPolicy("npc", states)}
        )
        assert episode.collision is None
        assert not episode.failed
