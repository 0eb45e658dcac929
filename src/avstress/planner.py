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
import operator
import struct
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

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


# (x, y, heading, speed) of the ego at one rollout step
StateTuple = Tuple[float, float, float, float]
# one candidate of an ego start's table: lane id, accel, the rollout's states
# flattened to 4 doubles each, terminal cost
TableRow = Tuple[str, float, array, float]


@dataclass(frozen=True)
class PlanCandidate:
    target_lane: str
    accel: float
    states: List[StateTuple]
    cost: float
    min_clearance: float


def predict_constant_velocity(
    agent: AgentState, map_model: MapModel, horizon: int, dt: float
) -> List[Tuple[float, float]]:
    """Lane-center tracking at constant speed: one (x, y) waypoint per step.

    The agent is snapped to the nearest centerline; its lateral offset decays
    exponentially toward the center while arc-length advances at the current
    speed. Agents far from every lane fall back to a straight line.
    """
    lane, s0, l0, dist = map_model.nearest_lane(agent.position)
    if dist > LANE_SNAP_RANGE:
        x, y = agent.position
        c, s = math.cos(agent.heading), math.sin(agent.heading)
        return [
            (x + k * agent.speed * dt * c, y + k * agent.speed * dt * s)
            for k in range(1, horizon + 1)
        ]
    centerline = lane.centerline
    total = centerline.total_length
    return [
        point_at_arclength(
            centerline,
            min(s0 + k * agent.speed * dt, total),
            l0 * math.exp(-k * dt / LATERAL_DECAY_TAU),
        )
        for k in range(1, horizon + 1)
    ]


def _rollout(
    state: StateTuple, centerline: Polyline, accel: float, horizon: int, dt: float,
    v_max: float,
) -> List[StateTuple]:
    """Constant-acceleration pure-pursuit rollout onto a lane centerline.

    Each step projects the ego onto the centerline, takes the point a
    lookahead of max(5 m, speed) further along it, and makes one
    `bicycle_step` toward it. The two lookups are the bodies of
    `project_to_polyline` and `point_at_arclength` inlined, with the same
    floating-point operations: calling the functions on every step made a
    rollout step 22-25% slower.
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
    """Deterministic candidate-enumeration planner (the system under test).

    An instance keeps, for the scenario it last planned in, one scored table
    per ego start: the candidates in planning order (lane, then accel), each
    row holding the lane id, the accel, the rollout as one flat array of
    doubles and the terminal cost. Rollouts, candidate lanes and costs
    depend only on the start and the scenario, so across the episodes of
    one campaign most starts repeat; each replan then only scores the
    table's clearances against the other agents' predictions. The key holds
    the exact bits of the start, so 0.0 and -0.0 do not share an entry. At
    the default horizon a table takes about 1.2 KB per row, 17 KB for the
    14 rows of a start on a two-lane road; the tables are dropped when the
    planner is first asked to plan in a different scenario object.
    """

    def __init__(self):
        self._scenario: Optional[Scenario] = None
        # packed ego start -> its candidates in planning order
        self._tables: Dict[bytes, List[TableRow]] = {}

    def _candidate_lanes(self, ego: AgentState, scenario: Scenario) -> List[Lane]:
        current, _, _, _ = scenario.map.nearest_lane(ego.position)
        lanes = [current]
        for ref in (current.left_neighbor, current.right_neighbor):
            if ref is not None:
                lanes.append(scenario.map.lane(ref))
        return lanes

    def _scored(
        self, world: JointState, scenario: Scenario
    ) -> Tuple[List[TableRow], List[float]]:
        """The ego start's table and each row's min clearance this replan."""
        if scenario is not self._scenario:
            self._scenario = scenario
            self._tables = {}
        horizon = max(HORIZON_STEPS, scenario.sim.replan_every)
        dt = scenario.sim.dt
        ego_id = scenario.ego.id
        ego = world.states[ego_id]
        start = (ego.position.x, ego.position.y, ego.heading, ego.speed)
        key = struct.pack("<4d", *start)
        table = self._tables.get(key)
        if table is None:
            goal_x, goal_y = scenario.ego_goal.x, scenario.ego_goal.y
            table = []
            for lane in self._candidate_lanes(ego, scenario):
                for accel in ACCEL_GRID:
                    states = _rollout(
                        start, lane.centerline, accel, horizon, dt, scenario.sim.v_max
                    )
                    x, y, _, _ = states[-1]
                    cost = math.hypot(x - goal_x, y - goal_y) + COMFORT_WEIGHT * abs(accel)
                    table.append((lane.id, accel, array("d", chain.from_iterable(states)), cost))
            self._tables[key] = table

        predictions = []
        for aid in sorted(world.states):
            if aid != ego_id:
                wps = predict_constant_velocity(world.states[aid], scenario.map, horizon, dt)
                predictions.append(([x for x, _ in wps], [y for _, y in wps]))
        # math.hypot on plain floats: numpy's hypot rounds some inputs
        # differently, and a clearance near D_SAFE decides feasibility
        clearances = []
        for _, _, flat, _ in table:
            xs, ys = flat[0::4], flat[1::4]
            clearance = math.inf
            for wx, wy in predictions:
                d = min(map(math.hypot, map(operator.sub, xs, wx), map(operator.sub, ys, wy)))
                if d < clearance:
                    clearance = d
            clearances.append(clearance)
        return table, clearances

    def candidates(self, world: JointState, scenario: Scenario) -> List[PlanCandidate]:
        table, clearances = self._scored(world, scenario)
        out = []
        for (lane_id, accel, flat, cost), clearance in zip(table, clearances):
            it = iter(flat)
            out.append(PlanCandidate(lane_id, accel, list(zip(it, it, it, it)), cost, clearance))
        return out

    def plan(self, world: JointState, scenario: Scenario) -> List[AgentState]:
        table, clearances = self._scored(world, scenario)
        # the first cheapest feasible row, else the first of largest clearance
        feasible = [i for i, c in enumerate(clearances) if c >= D_SAFE]
        if feasible:
            best = min(feasible, key=lambda i: table[i][3])
        else:
            best = max(range(len(table)), key=clearances.__getitem__)
        it = iter(table[best][2][: 4 * scenario.sim.replan_every])
        return [
            AgentState(Point2(x, y), heading, speed)
            for x, y, heading, speed in zip(it, it, it, it)
        ]
