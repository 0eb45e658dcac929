import dataclasses
import math

import pytest

from avstress.geom import Point2
from avstress.scenario import load_scenario
from avstress.sim import (
    ACCEL_MAX,
    AgentState,
    JointState,
    ReactivePolicy,
    initial_joint_state,
    simulate_episode,
)
from conftest import TWO_LANE_YAML, ConstantVelocityEgoStub, ScriptedPolicy


def constant_velocity_states(x0, y0, heading, speed, steps, dt):
    out = []
    for k in range(1, steps + 1):
        out.append(
            AgentState(
                Point2(x0 + k * speed * math.cos(heading) * dt, y0 + k * speed * math.sin(heading) * dt),
                heading,
                speed,
            )
        )
    return out


class HoldPositionPlanner:
    def plan(self, world, scenario):
        ego = world.states[scenario.ego.id]
        held = AgentState(ego.position, ego.heading, 0.0)
        return [held] * scenario.sim.replan_every


class FailingPlanner:
    def __init__(self, fail_at):
        self.fail_at = fail_at

    def plan(self, world, scenario):
        if world.timestep >= self.fail_at:
            raise RuntimeError("solver diverged")
        ego = world.states[scenario.ego.id]
        return [ego] * scenario.sim.replan_every


class TestReactivePolicy:
    def test_straight_line_pursuit(self, two_lane_scenario):
        sc = two_lane_scenario
        policy = ReactivePolicy(sc, "npc", Point2(115.0, 3.5))
        world = initial_joint_state(sc)
        # isolate the npc so the car-following term cannot bind
        lone = JointState(0, {"npc": world.states["npc"]})
        nxt = policy.step(lone)
        assert nxt.position.x == pytest.approx(16.0)  # 15 + 10 * 0.1
        assert nxt.position.y == pytest.approx(3.5)
        assert nxt.heading == pytest.approx(0.0)
        assert nxt.speed >= world.states["npc"].speed  # accelerating toward v_desired

    def test_stops_when_past_goal(self, two_lane_scenario):
        sc = two_lane_scenario
        goal = Point2(13.0, 3.5)  # 2 m behind the npc
        policy = ReactivePolicy(sc, "npc", goal)
        state = AgentState(Point2(15.0, 3.5), 0.0, 0.0)
        start = state.position
        for t in range(10):
            state = policy.step(JointState(t, {"npc": state}))
        assert math.hypot(state.position.x - start.x, state.position.y - start.y) < 0.5

    def test_brakes_approaching_goal(self, two_lane_scenario):
        sc = two_lane_scenario
        goal = Point2(25.0, 3.5)  # 10 m ahead; stopping speed ~ 6.3 m/s
        policy = ReactivePolicy(sc, "npc", goal)
        state = AgentState(Point2(15.0, 3.5), 0.0, 10.0)
        nxt = policy.step(JointState(0, {"npc": state}))
        assert nxt.speed < state.speed

    def test_idm_brakes_for_stopped_leader(self, two_lane_scenario):
        sc = two_lane_scenario
        policy = ReactivePolicy(sc, "npc", Point2(200.0, 3.5))
        me = AgentState(Point2(15.0, 3.5), 0.0, 10.0)
        leader = AgentState(Point2(23.0, 3.5), 0.0, 0.0)  # 8 m ahead, in corridor
        world = JointState(0, {"npc": me, "ego": leader})
        nxt = policy.step(world)
        assert nxt.speed < me.speed  # commanded deceleration

    def test_ignores_agents_outside_corridor(self, two_lane_scenario):
        sc = two_lane_scenario
        policy = ReactivePolicy(sc, "npc", Point2(200.0, 3.5))
        me = AgentState(Point2(15.0, 3.5), 0.0, 10.0)
        side = AgentState(Point2(23.0, 0.0), 0.0, 0.0)  # 3.5 m lateral offset
        nxt = policy.step(JointState(0, {"npc": me, "ego": side}))
        assert nxt.speed >= me.speed  # no braking for out-of-corridor traffic


class TestSimulateEpisode:
    def test_scripted_stub_advances_constant_velocity(self, two_lane_scenario):
        sc = two_lane_scenario
        states = constant_velocity_states(15.0, 3.5, 0.0, 10.0, sc.sim.horizon_steps, sc.sim.dt)
        policies = {"npc": ScriptedPolicy("npc", states)}
        episode = simulate_episode(sc, {"npc": Point2(100, 3.5)}, HoldPositionPlanner(), policies)
        assert episode.collision is None
        for joint in episode.trace:
            expected = 15.0 + joint.timestep * 1.0
            assert joint.states["npc"].position.x == pytest.approx(expected)

    def test_initial_overlap_collides_at_t0(self, two_lane_scenario):
        # load_scenario rejects this scene, so move the npc onto the ego here
        ego, npc = two_lane_scenario.agents
        npc = dataclasses.replace(npc, initial_state=AgentState(Point2(1.0, 3.5), 0.0, 10.0))
        sc = dataclasses.replace(two_lane_scenario, agents=(ego, npc))
        episode = simulate_episode(sc, {"npc": Point2(100, 3.5)}, HoldPositionPlanner(), {
            "npc": ScriptedPolicy("npc", [initial_joint_state(sc).states["npc"]]),
        })
        assert episode.collision is not None
        assert episode.collision[0] == 0
        assert len(episode.trace) == 1

    def test_trace_bounds_and_consecutive_timesteps(self, two_lane_scenario):
        sc = two_lane_scenario
        policies = {"npc": ReactivePolicy(sc, "npc", Point2(115.0, 3.5))}
        episode = simulate_episode(sc, {"npc": Point2(115.0, 3.5)}, ConstantVelocityEgoStub(), policies)
        assert len(episode.trace) <= sc.sim.horizon_steps + 1
        for k, joint in enumerate(episode.trace):
            assert joint.timestep == k

    def test_determinism(self, two_lane_scenario):
        sc = two_lane_scenario

        def run():
            policies = {"npc": ReactivePolicy(sc, "npc", Point2(100.0, 0.0))}
            return simulate_episode(sc, {"npc": Point2(100.0, 0.0)}, ConstantVelocityEgoStub(), policies)

        a, b = run(), run()
        assert len(a.trace) == len(b.trace)
        for ja, jb in zip(a.trace, b.trace):
            for aid in ja.states:
                assert ja.states[aid] == jb.states[aid]

    def test_kinematic_displacement_bound(self, two_lane_scenario):
        sc = two_lane_scenario
        policies = {"npc": ReactivePolicy(sc, "npc", Point2(100.0, 0.0))}
        episode = simulate_episode(sc, {"npc": Point2(100.0, 0.0)}, ConstantVelocityEgoStub(), policies)
        bound = sc.sim.v_max * sc.sim.dt + 0.5 * ACCEL_MAX * sc.sim.dt**2
        for prev, cur in zip(episode.trace[:-1], episode.trace[1:]):
            for aid in ("npc",):
                d = math.hypot(
                    cur.states[aid].position.x - prev.states[aid].position.x,
                    cur.states[aid].position.y - prev.states[aid].position.y,
                )
                assert d <= bound + 1e-9

    def test_planner_failure_truncates_episode(self, two_lane_scenario):
        sc = two_lane_scenario
        policies = {"npc": ReactivePolicy(sc, "npc", Point2(115.0, 3.5))}
        episode = simulate_episode(sc, {"npc": Point2(115.0, 3.5)}, FailingPlanner(fail_at=10), policies)
        assert episode.failed
        assert "step 10" in episode.failure_reason
        assert len(episode.trace) == 11  # initial + 10 steps

    def test_policy_iteration_order_irrelevant(self):
        # two simulated agents; synchronous updates must not depend on dict order
        text = TWO_LANE_YAML.replace(
            "ego_goal:",
            "  - {id: npc2, role: simulated, x: 30.0, y: 0.0, heading: 0.0, speed: 10.0, length: 4.8, width: 2.0}\nego_goal:",
        ).replace(
            "sim: {dt",
            "  - {agent_id: npc2, lane: right, s_min: 90.0, s_max: 175.0, l_min: -1.75, l_max: 1.75}\nsim: {dt",
        )
        sc = load_scenario(text)
        goals = {"npc": Point2(115.0, 3.5), "npc2": Point2(120.0, 0.0)}

        def run(order):
            policies = {aid: ReactivePolicy(sc, aid, goals[aid]) for aid in order}
            return simulate_episode(sc, goals, ConstantVelocityEgoStub(), policies)

        a = run(["npc", "npc2"])
        b = run(["npc2", "npc"])
        for ja, jb in zip(a.trace, b.trace):
            assert ja.states == jb.states
