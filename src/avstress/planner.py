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

import functools
import math
import operator
import struct
from array import array
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .geom import Point2, Polyline, point_at_arclength, project_to_polyline
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
# a start's rows in planning order, their indices cheapest first, and each
# row's plan, None until the row is first chosen
Table = Tuple[List[TableRow], List[int], List[Optional[List[AgentState]]]]


@functools.lru_cache(maxsize=None)
def _lateral_decay(horizon: int, dt: float) -> Tuple[float, ...]:
    """exp(-k * dt / LATERAL_DECAY_TAU) for k = 1..horizon."""
    return tuple(math.exp(-k * dt / LATERAL_DECAY_TAU) for k in range(1, horizon + 1))


def predict_constant_velocity(
    agent: AgentState, map_model: MapModel, horizon: int, dt: float
) -> List[Tuple[float, float]]:
    """Lane-center tracking at constant speed: one (x, y) waypoint per step.

    The agent is snapped to the nearest centerline; its lateral offset decays
    exponentially toward the center while arc-length advances at the current
    speed. Agents far from every lane fall back to a straight line.

    On a one-segment lane, such as every preset lane, the lookup is the body
    of `point_at_arclength` inlined, with the same floating-point operations
    (calling it per waypoint made a prediction over twice as slow); a longer
    lane calls it. The decay factors are computed once per (horizon, dt).
    """
    lane, s0, l0, dist = map_model.nearest_lane(agent.position)
    speed = agent.speed
    if dist > LANE_SNAP_RANGE:
        x, y = agent.position
        c, s = math.cos(agent.heading), math.sin(agent.heading)
        return [
            (x + k * speed * dt * c, y + k * speed * dt * s)
            for k in range(1, horizon + 1)
        ]
    line = lane.centerline
    total = line.total_length
    if len(line.segments) > 1:
        return [
            point_at_arclength(line, min(s0 + k * speed * dt, total), l0 * decay)
            for k, decay in enumerate(_lateral_decay(horizon, dt), 1)
        ]
    ax, ay, dx, dy, ux, uy, seg_len, _, seg_s0, _ = line.segments[0]
    waypoints = []
    for k, decay in enumerate(_lateral_decay(horizon, dt), 1):
        # s0 >= 0 and speed >= 0, so s lies in [0, total] and needs neither
        # point_at_arclength's range check nor its clamp at 0
        s = s0 + k * speed * dt
        if total < s:  # min(s, total)
            s = total
        l = l0 * decay
        t = (s - seg_s0) / seg_len
        waypoints.append((ax + t * dx - l * uy, ay + t * dy + l * ux))
    return waypoints


def _rollout(
    state: StateTuple, centerline: Polyline, accel: float, horizon: int, dt: float,
    v_max: float,
) -> List[StateTuple]:
    """Constant-acceleration pure-pursuit rollout onto a lane centerline.

    Each step projects the ego onto the centerline, takes the point a
    lookahead of max(5 m, speed) further along it, and makes one
    `bicycle_step` toward it. On a one-segment line, such as every preset
    lane, the two lookups are the bodies of `project_to_polyline` and
    `point_at_arclength` inlined, with the same floating-point operations
    and no search or distance, since any finite distance picks the one
    segment: calling the functions made a rollout step 22-25% slower. A
    longer line calls them.
    """
    total = centerline.total_length
    single = len(centerline.segments) == 1
    ax, ay, dx, dy, ux, uy, seg_len, seg_sq, s0, _ = centerline.segments[0]
    x, y, heading, speed = state
    states = []
    for _ in range(horizon):
        if single:
            t = ((x - ax) * dx + (y - ay) * dy) / seg_sq
            t = t if t > 0.0 else 0.0  # min(1.0, max(0.0, t))
            t = t if t < 1.0 else 1.0
            s = s0 + t * seg_len
            s_target = s + (speed if speed > 5.0 else 5.0)  # s + max(5.0, speed)
            if s_target > total:
                s_target = total
            t = (s_target - s0) / seg_len
            # with point_at_arclength's zero lateral-offset terms, so the
            # target is its position bit for bit, signed zeros included
            tx = ax + t * dx - 0.0 * uy
            ty = ay + t * dy + 0.0 * ux
        else:
            s, _, _ = project_to_polyline(x, y, centerline)
            tx, ty = point_at_arclength(centerline, min(s + max(5.0, speed), total))
        state = bicycle_step(x, y, heading, speed, accel, tx, ty, dt, v_max)
        states.append(state)
        x, y, heading, speed = state
    return states


def _clearance(flat: array, predictions: List[Tuple[List[float], List[float]]]) -> float:
    """A row's min distance to the predicted waypoints, step for step."""
    # math.hypot on plain floats: numpy's hypot rounds some inputs
    # differently, and a clearance near D_SAFE decides feasibility
    xs, ys = flat[0::4], flat[1::4]
    clearance = math.inf
    for wx, wy in predictions:
        d = min(map(math.hypot, map(operator.sub, xs, wx), map(operator.sub, ys, wy)))
        if d < clearance:
            clearance = d
    return clearance


def _start_key(ego: AgentState) -> bytes:
    """The exact bits of an ego start, so 0.0 and -0.0 differ."""
    return struct.pack("<4d", ego.position.x, ego.position.y, ego.heading, ego.speed)


class LatticePlanner:
    """Deterministic candidate-enumeration planner (the system under test).

    An instance keeps, for the scenario it last planned in, one table per
    ego start: the candidates in planning order (lane, then accel), each
    row holding the lane id, the accel, the rollout as one flat array of
    doubles and the terminal cost, plus the row indices in cost order (ties
    in planning order). Rollouts, candidate lanes and costs depend only on
    the start and the scenario, so across the episodes of one campaign most
    starts repeat. Each replan then checks rows cheapest first against the
    other agents' predictions and stops at the first feasible one; only
    when none is feasible does it score them all. The key holds the exact
    bits of the start, so 0.0 and -0.0 do not share an entry.

    Rows of one lane whose speed saturates at the first step (accel >= 0
    reaching v_max, or accel <= 0 reaching 0) share one array, since every
    later step stays saturated. The plan a row gives, its first replan_every
    states as AgentStates, is built the first time the row is chosen and
    kept in the start's table; each call returns a new list of those states.
    No row is mutated and AgentState is frozen, so sharing is safe.

    At the default horizon a table takes at most about 1.2 KB per row, 17 KB
    for the 14 rows of a start on a two-lane road, and a row's plan about
    1.7 KB more at replan_every 5; the tables are dropped when the planner
    is first asked to plan in a different scenario object.
    """

    def __init__(self):
        self._scenario: Optional[Scenario] = None
        # packed ego start -> its table
        self._tables: Dict[bytes, Table] = {}

    def _candidate_lanes(self, ego: AgentState, scenario: Scenario) -> List[Lane]:
        current, _, _, _ = scenario.map.nearest_lane(ego.position)
        lanes = [current]
        for ref in (current.left_neighbor, current.right_neighbor):
            if ref is not None:
                lanes.append(scenario.map.lanes[ref])
        return lanes

    def _table(self, ego: AgentState, scenario: Scenario) -> Table:
        """The ego start's table, built on first use."""
        if scenario is not self._scenario:
            self._scenario = scenario
            self._tables = {}
        key = _start_key(ego)
        entry = self._tables.get(key)
        if entry is None:
            start = (ego.position.x, ego.position.y, ego.heading, ego.speed)
            horizon = max(HORIZON_STEPS, scenario.sim.replan_every)
            dt, v_max = scenario.sim.dt, scenario.sim.v_max
            goal_x, goal_y = scenario.ego_goal.x, scenario.ego_goal.y
            rows = []
            for lane in self._candidate_lanes(ego, scenario):
                # this lane's rollout at v_max and at rest, once computed
                saturated = {}
                for accel in ACCEL_GRID:
                    v = ego.speed + accel * dt
                    if accel >= 0.0 and v >= v_max:
                        cls = "v_max"
                    elif accel <= 0.0 and v <= 0.0:
                        cls = "rest"
                    else:
                        cls = None
                    flat = saturated.get(cls)
                    if flat is None:
                        flat = array("d", chain.from_iterable(_rollout(
                            start, lane.centerline, accel, horizon, dt, v_max,
                        )))
                        if cls is not None:
                            saturated[cls] = flat
                    x, y = flat[-4], flat[-3]
                    cost = math.hypot(x - goal_x, y - goal_y) + COMFORT_WEIGHT * abs(accel)
                    rows.append((lane.id, accel, flat, cost))
            # sorted is stable, so rows of equal cost stay in planning order
            order = sorted(range(len(rows)), key=lambda i: rows[i][3])
            entry = self._tables[key] = (rows, order, [None] * len(rows))
        return entry

    def _predictions(
        self, world: JointState, scenario: Scenario
    ) -> List[Tuple[List[float], List[float]]]:
        """Every other agent's predicted xs and ys, in sorted id order."""
        horizon = max(HORIZON_STEPS, scenario.sim.replan_every)
        ego_id = scenario.ego.id
        predictions = []
        for aid in sorted(world.states):
            if aid != ego_id:
                wps = predict_constant_velocity(
                    world.states[aid], scenario.map, horizon, scenario.sim.dt
                )
                predictions.append(([x for x, _ in wps], [y for _, y in wps]))
        return predictions

    def plan(self, world: JointState, scenario: Scenario) -> List[AgentState]:
        ego = world.states[scenario.ego.id]
        rows, order, plans = self._table(ego, scenario)
        predictions = self._predictions(world, scenario)
        # the first cheapest feasible row, else the first of largest clearance;
        # rows are checked cheapest first, so the first feasible one is it
        clearances = {}
        for i in order:
            clearance = _clearance(rows[i][2], predictions)
            if clearance >= D_SAFE:
                best = i
                break
            clearances[i] = clearance
        else:
            best = max(range(len(rows)), key=clearances.__getitem__)
        plan = plans[best]
        if plan is None:
            it = iter(rows[best][2][: 4 * scenario.sim.replan_every])
            plan = plans[best] = [
                AgentState(Point2(x, y), heading, speed)
                for x, y, heading, speed in zip(it, it, it, it)
            ]
        return plan.copy()
