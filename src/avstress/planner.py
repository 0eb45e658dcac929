"""Reference planner under test.

A receding-horizon lattice planner: it predicts every other agent as
tracking its current lane center at constant speed, enumerates target-lane x
constant-acceleration candidates, discards candidates that come closer than
a safety margin to any predicted waypoint, and picks the cheapest survivor
(terminal distance to the ego goal plus a small comfort penalty). The
constant-velocity assumption is exactly the weakness a goal-prompt search
is meant to exploit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .geom import Point2, Polyline, point_at_arclength
# bound here, though unused, because benchmarks/bench_trace.py counts the
# planner's geometry calls through this module's names
from .geom import project_to_polyline  # noqa: F401
from .scenario import Lane, MapModel, Scenario
from .sim import AgentState, JointState, bicycle_step

LANE_SNAP_RANGE = 10.0
LATERAL_DECAY_TAU = 1.0
# candidates that come closer than this to a predicted waypoint are infeasible
D_SAFE = 3.0
# rollout length, stretched to sim.replan_every when that is longer so that
# every plan covers a whole replan interval
HORIZON_STEPS = 30
ACCEL_GRID = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
COMFORT_WEIGHT = 0.1


@dataclass(frozen=True)
class Prediction:
    waypoints: List[Point2]  # one per future step, length = horizon


# (x, y, heading, speed) of the ego at one rollout step
StateTuple = Tuple[float, float, float, float]


@dataclass(frozen=True)
class PlanCandidate:
    target_lane: str
    accel: float
    states: List[StateTuple]
    cost: float
    min_clearance: float


def predict_constant_velocity(
    agent: AgentState, map_model: MapModel, horizon: int, dt: float
) -> Prediction:
    """Lane-center tracking at constant speed.

    The agent is snapped to the nearest centerline; its lateral offset decays
    exponentially toward the center while arc-length advances at the current
    speed. Agents far from every lane fall back to a straight line.
    """
    lane, s0, l0, dist = map_model.nearest_lane(agent.position)
    waypoints = []
    if dist > LANE_SNAP_RANGE:
        c, s = math.cos(agent.heading), math.sin(agent.heading)
        for k in range(1, horizon + 1):
            waypoints.append(
                Point2(
                    agent.position.x + k * agent.speed * dt * c,
                    agent.position.y + k * agent.speed * dt * s,
                )
            )
    else:
        total = lane.centerline.total_length
        for k in range(1, horizon + 1):
            sk = min(s0 + k * agent.speed * dt, total)
            lk = l0 * math.exp(-k * dt / LATERAL_DECAY_TAU)
            waypoints.append(point_at_arclength(lane.centerline, sk, lk).position)
    return Prediction(waypoints=waypoints)


def _rollout(
    state: StateTuple, centerline: Polyline, accel: float, horizon: int, dt: float,
    v_max: float,
) -> List[StateTuple]:
    """Constant-acceleration pure-pursuit rollout onto a lane centerline.

    Each step projects the ego onto the centerline, takes the point a
    lookahead of max(5 m, speed) further along it, and makes one
    `bicycle_step` toward it. The projection and the lookahead point are
    `project_to_polyline` and `point_at_arclength` inlined over the
    centerline's segment data with the same floating-point operations, so
    the states are bit-identical to composing those functions. Only the
    lateral offset and heading they also return, which the rollout does not
    use, are left out.
    """
    segments = centerline.segments
    total = centerline.total_length
    x, y, heading, speed = state
    states = []
    for _ in range(horizon):
        # project_to_polyline: closest segment, ties to the smallest index
        best = math.inf
        for ax, ay, dx, dy, _, _, seg_len, seg_sq, s0, _ in segments:
            t = ((x - ax) * dx + (y - ay) * dy) / seg_sq
            t = t if t > 0.0 else 0.0  # min(1.0, max(0.0, t))
            t = t if t < 1.0 else 1.0
            dist = math.hypot(x - (ax + t * dx), y - (ay + t * dy))
            if dist < best - 1e-12:
                best = dist
                s = s0 + t * seg_len
        s_target = s + (speed if speed > 5.0 else 5.0)  # s + max(5.0, speed)
        if s_target > total:
            s_target = total
        # point_at_arclength: the first segment that ends at or after s_target
        for ax, ay, dx, dy, ux, uy, seg_len, _, s0, s1 in segments:
            if s_target <= s1:
                break
        t = (s_target - s0) / seg_len
        # with point_at_arclength's zero lateral-offset terms, so the target
        # is its position bit for bit, signed zeros included
        tx = ax + t * dx - 0.0 * uy
        ty = ay + t * dy + 0.0 * ux
        state = bicycle_step(x, y, heading, speed, accel, tx, ty, dt, v_max)
        states.append(state)
        x, y, heading, speed = state
    return states


class LatticePlanner:
    """Deterministic candidate-enumeration planner (the system under test)."""

    def _candidate_lanes(self, ego: AgentState, scenario: Scenario) -> List[Lane]:
        current, _, _, _ = scenario.map.nearest_lane(ego.position)
        lanes = [current]
        for ref in (current.left_neighbor, current.right_neighbor):
            if ref is not None:
                lanes.append(scenario.map.lane(ref))
        return lanes

    def candidates(self, world: JointState, scenario: Scenario) -> List[PlanCandidate]:
        horizon = max(HORIZON_STEPS, scenario.sim.replan_every)
        dt = scenario.sim.dt
        ego_id = scenario.ego.id
        ego = world.states[ego_id]

        predictions = [
            predict_constant_velocity(world.states[aid], scenario.map, horizon, dt)
            for aid in sorted(world.states)
            if aid != ego_id
        ]

        waypoints = [[(wp.x, wp.y) for wp in pred.waypoints] for pred in predictions]
        start = (ego.position.x, ego.position.y, ego.heading, ego.speed)
        goal_x, goal_y = scenario.ego_goal.x, scenario.ego_goal.y
        out = []
        for lane in self._candidate_lanes(ego, scenario):
            for accel in ACCEL_GRID:
                states = _rollout(start, lane.centerline, accel, horizon, dt, scenario.sim.v_max)
                clearance = math.inf
                for wps in waypoints:
                    for (x, y, _, _), (px, py) in zip(states, wps):
                        d = math.hypot(x - px, y - py)
                        if d < clearance:
                            clearance = d
                x, y, _, _ = states[-1]
                cost = math.hypot(x - goal_x, y - goal_y) + COMFORT_WEIGHT * abs(accel)
                out.append(
                    PlanCandidate(
                        target_lane=lane.id,
                        accel=accel,
                        states=states,
                        cost=cost,
                        min_clearance=clearance,
                    )
                )
        return out

    def plan(self, world: JointState, scenario: Scenario) -> List[AgentState]:
        cands = self.candidates(world, scenario)
        feasible = [c for c in cands if c.min_clearance >= D_SAFE]
        if feasible:
            best = min(feasible, key=lambda c: c.cost)
        else:
            best = max(cands, key=lambda c: c.min_clearance)
        return [
            AgentState(Point2(x, y), heading, speed)
            for x, y, heading, speed in best.states[: scenario.sim.replan_every]
        ]


class ConstantVelocityEgoStub:
    """Planner stub that keeps the ego at its current heading and speed."""

    def plan(self, world: JointState, scenario: Scenario) -> List[AgentState]:
        ego = world.states[scenario.ego.id]
        dt = scenario.sim.dt
        out = []
        cur = ego
        for _ in range(scenario.sim.replan_every):
            cur = AgentState(
                Point2(
                    cur.position.x + cur.speed * math.cos(cur.heading) * dt,
                    cur.position.y + cur.speed * math.sin(cur.heading) * dt,
                ),
                cur.heading,
                cur.speed,
            )
            out.append(cur)
        return out
