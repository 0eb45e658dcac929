"""The float-level planner rollout and dynamics against a reference.

The reference below is the earlier AgentState-level implementation of the
lane geometry lookups, the pure-pursuit steering, the kinematic bicycle, the
planner's rollout and candidate scoring, and the reactive policy's step. The
fast path must reproduce it bit for bit: every comparison is on `float.hex`
strings, so even the sign of a zero counts. Campaigns run with a planner and
policies that check themselves against the reference at every replan and
every step.
"""
import math

import pytest

from avstress.geom import Point2, Polyline, point_at_arclength, project_to_polyline
from avstress.planner import (
    ACCEL_GRID, COMFORT_WEIGHT, D_SAFE, HORIZON_STEPS, LANE_SNAP_RANGE, LATERAL_DECAY_TAU,
    LatticePlanner, _rollout, predict_constant_velocity,
)
from avstress.scenario import PRESET_NAMES, Lane, MapModel, load_preset, load_scenario
from avstress.sim import (
    ACCEL_MAX, ACCEL_MIN, COMFORT_DECEL, STEER_LIMIT, WHEELBASE, AgentState, ReactivePolicy,
    bicycle_step,
)
from conftest import CURVED_YAML, SAMPLERS, run_collecting, scenario_with_agents, scored_rows

# ---------------------------------------------------------------- reference


def normalize_angle(theta):
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.atan2(math.sin(theta), math.cos(theta))
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


def ref_project_to_polyline(p, line):
    best = None  # (dist, s, l, idx)
    verts = line.vertices
    for i in range(len(verts) - 1):
        a, b = verts[i], verts[i + 1]
        dx, dy = b.x - a.x, b.y - a.y
        seg_len = line.cumulative[i + 1] - line.cumulative[i]
        t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / (seg_len * seg_len)
        t = min(1.0, max(0.0, t))
        px, py = a.x + t * dx, a.y + t * dy
        dist = math.hypot(p.x - px, p.y - py)
        l = (dx * (p.y - py) - dy * (p.x - px)) / seg_len
        if best is None or dist < best[0] - 1e-12:
            best = (dist, line.cumulative[i] + t * seg_len, l, i)
    return best[1], best[2], best[3]


def ref_point_at_arclength(line, s, l=0.0):
    """(x, y, heading) of the point at arc-length s, offset l to the left."""
    if not (-1e-9 <= s <= line.total_length + 1e-9):
        raise ValueError(f"arc-length {s} outside [0, {line.total_length}]")
    s = min(max(s, 0.0), line.total_length)
    cum = line.cumulative
    idx = len(cum) - 2
    for i in range(len(cum) - 1):
        if s <= cum[i + 1]:
            idx = i
            break
    a, b = line.vertices[idx], line.vertices[idx + 1]
    seg_len = cum[idx + 1] - cum[idx]
    t = (s - cum[idx]) / seg_len
    dx, dy = (b.x - a.x) / seg_len, (b.y - a.y) / seg_len
    x, y = a.x + t * (b.x - a.x) - l * dy, a.y + t * (b.y - a.y) + l * dx
    return x, y, normalize_angle(math.atan2(dy, dx))


def ref_nearest_lane(map_model, p):
    """(lane, s, l, distance) with two lookups per lane: the projection,
    then the distance to the centerline point at its arc-length."""
    best = None
    for lane in map_model.lanes.values():
        s, l, _ = ref_project_to_polyline(p, lane.centerline)
        x, y, _ = ref_point_at_arclength(lane.centerline, s)
        d = math.hypot(p.x - x, p.y - y)
        if best is None or d < best[3] - 1e-12:
            best = (lane, s, l, d)
    return best


def ref_predict_constant_velocity(agent, map_model, horizon, dt):
    """[(x, y)] waypoints of the lane-center constant-speed prediction."""
    lane, s0, l0, dist = ref_nearest_lane(map_model, agent.position)
    waypoints = []
    if dist > LANE_SNAP_RANGE:
        c, s = math.cos(agent.heading), math.sin(agent.heading)
        for k in range(1, horizon + 1):
            waypoints.append((
                agent.position.x + k * agent.speed * dt * c,
                agent.position.y + k * agent.speed * dt * s,
            ))
    else:
        total = lane.centerline.total_length
        for k in range(1, horizon + 1):
            sk = min(s0 + k * agent.speed * dt, total)
            lk = l0 * math.exp(-k * dt / LATERAL_DECAY_TAU)
            x, y, _ = ref_point_at_arclength(lane.centerline, sk, lk)
            waypoints.append((x, y))
    return waypoints


def ref_bicycle_step(state, accel, steer, dt, v_max):
    steer = min(STEER_LIMIT, max(-STEER_LIMIT, steer))
    accel = min(ACCEL_MAX, max(ACCEL_MIN, accel))
    v = state.speed
    x = state.position.x + v * math.cos(state.heading) * dt
    y = state.position.y + v * math.sin(state.heading) * dt
    heading = normalize_angle(state.heading + v / WHEELBASE * math.tan(steer) * dt)
    speed = min(max(v + accel * dt, 0.0), v_max)
    return AgentState(Point2(x, y), heading, speed)


def ref_pure_pursuit_steer(state, target):
    dx = target.x - state.position.x
    dy = target.y - state.position.y
    dist = math.hypot(dx, dy)
    if dist < 1.0:
        return 0.0
    alpha = normalize_angle(math.atan2(dy, dx) - state.heading)
    lookahead = max(5.0, 1.0 * state.speed)
    steer = math.atan2(2.0 * WHEELBASE * math.sin(alpha), lookahead)
    return min(STEER_LIMIT, max(-STEER_LIMIT, steer))


def ref_rollout(state, centerline, accel, horizon, dt, v_max):
    states = []
    cur = state
    for _ in range(horizon):
        s, _, _ = ref_project_to_polyline(cur.position, centerline)
        lookahead = max(5.0, 1.0 * cur.speed)
        s_target = min(s + lookahead, centerline.total_length)
        x, y, _ = ref_point_at_arclength(centerline, s_target)
        steer = ref_pure_pursuit_steer(cur, Point2(x, y))
        cur = ref_bicycle_step(cur, accel, steer, dt, v_max)
        states.append(cur)
    return states


def ref_candidates(planner, world, scenario):
    """[(lane id, accel, states, cost, min clearance)] in the planner's order."""
    horizon = max(HORIZON_STEPS, scenario.sim.replan_every)
    dt = scenario.sim.dt
    ego = world.states[scenario.ego.id]
    predictions = [
        predict_constant_velocity(world.states[aid], scenario.map, horizon, dt)
        for aid in sorted(world.states)
        if aid != scenario.ego.id
    ]
    out = []
    for lane in planner._candidate_lanes(ego, scenario):
        for accel in ACCEL_GRID:
            states = ref_rollout(ego, lane.centerline, accel, horizon, dt, scenario.sim.v_max)
            clearance = math.inf
            for pred in predictions:
                for k in range(horizon):
                    d = math.hypot(
                        states[k].position.x - pred[k][0],
                        states[k].position.y - pred[k][1],
                    )
                    clearance = min(clearance, d)
            terminal = states[-1].position
            cost = (
                math.hypot(terminal.x - scenario.ego_goal.x, terminal.y - scenario.ego_goal.y)
                + COMFORT_WEIGHT * abs(accel)
            )
            out.append((lane.id, accel, states, cost, clearance))
    return out


def ref_choice(cands, d_safe):
    """Index of the candidate the planner executes."""
    feasible = [i for i, c in enumerate(cands) if c[4] >= d_safe]
    if feasible:
        return min(feasible, key=lambda i: cands[i][3])
    return max(range(len(cands)), key=lambda i: cands[i][4])


def ref_policy_step(policy, world):
    me = world.states[policy.agent_id]
    dt = policy.scenario.sim.dt
    gx = policy.goal.x - me.position.x
    gy = policy.goal.y - me.position.y
    dist_goal = math.hypot(gx, gy)
    behind = gx * math.cos(me.heading) + gy * math.sin(me.heading) < 0.0
    if behind:
        v_target = 0.0
    else:
        v_target = min(policy.v_desired, math.sqrt(2.0 * COMFORT_DECEL * dist_goal))
    a_goal = (v_target - me.speed) / dt
    a_follow = policy._follow_accel(me, world)
    accel = min(a_goal, a_follow)
    accel = min(ACCEL_MAX, max(ACCEL_MIN, accel))
    steer = ref_pure_pursuit_steer(me, policy.goal)
    return ref_bicycle_step(me, accel, steer, dt, policy.scenario.sim.v_max)


# ------------------------------------------------------------------ helpers


def _bits(*values):
    return tuple(float(v).hex() for v in values)


def _state_bits(state):
    if isinstance(state, AgentState):
        return _bits(state.position.x, state.position.y, state.heading, state.speed)
    return _bits(*state)


class CheckedPlanner:
    """LatticePlanner that checks every replan against the reference."""

    def __init__(self):
        self.planner = LatticePlanner()
        self.replans = 0

    def plan(self, world, scenario):
        cands = scored_rows(self.planner, world, scenario)
        ref = ref_candidates(self.planner, world, scenario)
        assert len(cands) == len(ref)
        for c, (lane_id, accel, states, cost, clearance) in zip(cands, ref):
            assert (c.target_lane, c.accel) == (lane_id, accel)
            assert [_state_bits(s) for s in c.states] == [_state_bits(s) for s in states]
            assert _bits(c.cost, c.min_clearance) == _bits(cost, clearance)
        # plan() checks rows in this order: cheapest first, ties by index
        _, order, _ = self.planner._table(world.states[scenario.ego.id], scenario)
        assert order == sorted(range(len(ref)), key=lambda i: (ref[i][3], i))
        plan = self.planner.plan(world, scenario)
        chosen = ref[ref_choice(ref, D_SAFE)]
        expected = chosen[2][: scenario.sim.replan_every]
        assert [_state_bits(s) for s in plan] == [_state_bits(s) for s in expected]
        self.replans += 1
        return plan


class CheckedPolicies:
    """Stands in for the campaign's ReactivePolicy class: the policies it
    makes check every step against the reference."""

    def __init__(self):
        self.steps = 0

    def __call__(self, scenario, agent_id, goal):
        policy = ReactivePolicy(scenario, agent_id, goal)
        factory = self

        class Checked:
            def step(self, world):
                new = policy.step(world)
                assert _state_bits(new) == _state_bits(ref_policy_step(policy, world))
                factory.steps += 1
                return new

        return Checked()


def _scenario(name):
    if name in PRESET_NAMES:
        return load_preset(name)
    if name == "curved":
        return load_scenario(CURVED_YAML, scenario_id="curved")
    return scenario_with_agents(3)


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize("kind,budget", [("sobol", 4), ("bo", 4)])
@pytest.mark.parametrize("name", PRESET_NAMES + ("curved", "three_agents"))
def test_campaign_matches_reference_at_every_replan(name, kind, budget, monkeypatch):
    scenario = _scenario(name)
    planner, policies = CheckedPlanner(), CheckedPolicies()
    # the campaign makes its agents' policies through this name
    monkeypatch.setattr("avstress.optimizer.ReactivePolicy", policies)
    pairs = run_collecting(scenario, SAMPLERS[kind], planner, budget)
    # a failed check ends its episode as a planner or policy failure
    assert [e.failure_reason for r, e in pairs if r.failed] == []
    assert planner.replans >= budget
    assert policies.steps >= planner.replans


# a U-turn: (5, 5) is equally close to all three segments, at arc-lengths
# 5, 15 and 25; the projection must pick the first
U_TURN = Polyline((Point2(0.0, 0.0), Point2(10.0, 0.0), Point2(10.0, 10.0), Point2(0.0, 10.0)))


def _probe_points():
    pts = [(5.0, 5.0), (5.0, 5.0 + 1e-13), (5.0 + 1e-13, 5.0), (11.0, -1.0), (11.0, 11.0),
           (-3.0, 0.0), (-2.0, 10.0), (10.0, 5.0), (-0.0, 0.0), (0.0, -0.0)]
    pts += [(-2.0 + 0.7 * i, -2.0 + 0.45 * j) for i in range(21) for j in range(31)]
    return pts


def test_geometry_lookups_match_reference():
    curved = load_scenario(CURVED_YAML).map.lanes
    for line in (U_TURN, curved["right"].centerline, curved["left"].centerline):
        for x, y in _probe_points() + [(60.0 + 3.1 * i, -5.0 + 4.3 * i) for i in range(30)]:
            s, l, _ = project_to_polyline(x, y, line)
            assert _bits(s, l) == _bits(*ref_project_to_polyline(Point2(x, y), line)[:2])
        n = 200
        for k in range(n + 1):
            s = line.total_length * k / n
            for l in (0.0, -0.0, 1.75, -3.5):
                got = point_at_arclength(line, s, l)
                assert _bits(*got) == _bits(*ref_point_at_arclength(line, s, l)[:2])


def _map_probes(name):
    """Probe points over a map: the lanes, the midline between them, their
    ends and beyond LANE_SNAP_RANGE."""
    if name == "curved":
        pts = [(-70.0 + 4.7 * i, -14.0 + 1.75 * j) for i in range(45) for j in range(17)]
        pts += [(100.0 + 3.1 * i, -5.0 + 4.3 * i) for i in range(30)]
    else:
        pts = [(-75.0 + 9.1 * i, -14.0 + 0.875 * j) for i in range(45) for j in range(37)]
    return pts + _probe_points()


@pytest.mark.parametrize("name", ["curved", "front"])
def test_nearest_lane_matches_reference(name):
    map_model = _scenario(name).map
    for x, y in _map_probes(name):
        p = Point2(x, y)
        lane, s, l, d = map_model.nearest_lane(p)
        ref_lane, ref_s, ref_l, ref_d = ref_nearest_lane(map_model, p)
        assert lane.id == ref_lane.id
        assert _bits(s, l) == _bits(ref_s, ref_l)
        assert abs(d - ref_d) <= 1e-12


# a bend whose inner vertex b is not a + 1.0 * (b - a) in floating point,
# so a waypoint there depends on which segment supplies it
BEND = Polyline((Point2(-34.9, -34.1), Point2(57.9, 44.7), Point2(65.9, 47.7)))
# (horizon, dt) pairs run in one process: any two differ in the horizon, the
# dt or both, so a cache of the decay factors keyed by less than both fails
PREDICTION_STEPS = [(40, 0.1), (30, 0.1), (40, 0.05), (30, 0.05)]


def _speed_to_reach(s, s0, ks, dt):
    """(k, v) with s0 + k * v * dt == s exactly, for the first k of ks that
    has such a speed v within 3 ulps of (s - s0) / (k * dt), else None."""
    for k in ks:
        v = (s - s0) / (k * dt)
        for _ in range(3):
            v = math.nextafter(v, -math.inf)
        for _ in range(7):
            if s0 + k * v * dt == s:
                return k, v
            v = math.nextafter(v, math.inf)
    return None


def _bend_agents(map_model, horizon, dt):
    """Agents a few metres along BEND and 0.4 m left of it whose waypoint k
    lands exactly on the inner vertex or exactly on the end; with k and the
    arc-length it lands on."""
    ax, ay, _, _, ux, uy = BEND.segments[0][:6]
    agents = []
    # late steps, so the speeds stay moderate and later waypoints pass the
    # vertex, or stay clamped at the end
    ks = range(horizon - 5, 0, -1)
    for s in (BEND.cumulative[1], BEND.total_length):
        # not every arc-length s0 has a speed that reaches s exactly
        for along in [0.37 * i for i in range(2, 20)]:
            position = Point2(ax + along * ux - 0.4 * uy, ay + along * uy + 0.4 * ux)
            _, s0, _, _ = map_model.nearest_lane(position)
            found = _speed_to_reach(s, s0, ks, dt)
            if found:
                k, v = found
                agents.append((AgentState(position, 0.7, v), k, s))
                break
    assert len(agents) == 2
    return agents


# a one-segment line, slanted so that its projections and waypoints round,
# and two starts whose projections onto it clamp t at 0 and at 1
STRAIGHT = Polyline((Point2(-1.3, -0.7), Point2(38.9, 6.1)))
BEFORE_STRAIGHT, PAST_STRAIGHT = (-6.0, -3.0), (43.0, 4.0)


@pytest.mark.parametrize("name", ["curved", "front", "bend", "straight"])
def test_prediction_matches_reference(name):
    if name == "straight":
        # before the first vertex (s0 = 0), past the last (s0 = total) and
        # near the end, where every later waypoint clamps at total_length
        map_model = MapModel({"straight": Lane("straight", STRAIGHT, 3.5)})
        starts = [BEFORE_STRAIGHT, PAST_STRAIGHT, (36.0, 6.5), (10.0, 0.4), (20.0, 6.0)]
        clamped = 0
        for horizon, dt in PREDICTION_STEPS:
            for x, y in starts:
                for heading in (0.0, -0.0, math.pi, 0.17):
                    for speed in (0.0, 7.5, 30.0):
                        agent = AgentState(Point2(x, y), heading, speed)
                        _, s0, _, dist = map_model.nearest_lane(agent.position)
                        assert dist <= LANE_SNAP_RANGE
                        clamped += s0 + horizon * speed * dt > STRAIGHT.total_length
                        new = predict_constant_velocity(agent, map_model, horizon, dt)
                        ref = ref_predict_constant_velocity(agent, map_model, horizon, dt)
                        assert [_bits(*wp) for wp in new] == [_bits(*wp) for wp in ref]
        assert clamped
        assert map_model.nearest_lane(Point2(*BEFORE_STRAIGHT))[1] == 0.0
        assert map_model.nearest_lane(Point2(*PAST_STRAIGHT))[1] == STRAIGHT.total_length
        return
    if name == "bend":
        map_model = MapModel({"bend": Lane("bend", BEND, 3.5)})
        for horizon, dt in PREDICTION_STEPS:
            for agent, k, s in _bend_agents(map_model, horizon, dt):
                _, s0, l0, _ = map_model.nearest_lane(agent.position)
                assert l0 != 0.0 and s0 + k * agent.speed * dt == s
                new = predict_constant_velocity(agent, map_model, horizon, dt)
                ref = ref_predict_constant_velocity(agent, map_model, horizon, dt)
                assert len(new) == horizon
                assert [_bits(*wp) for wp in new] == [_bits(*wp) for wp in ref]
        return
    # agents on a lane, off its centre, near its end (the arc-length clamp)
    # and past LANE_SNAP_RANGE (the straight-line fallback)
    map_model = _scenario(name).map
    far = map_model.lanes["right"].centerline.vertices[-1]
    starts = [(0.0, 0.0), (12.0, 3.5), (20.0, 1.2), (35.0, -1.9), (5.0, 1.75),
              (far.x - 2.0, far.y + 0.5), (10.0, -LANE_SNAP_RANGE - 0.5), (-40.0, 25.0)]
    for horizon, dt in PREDICTION_STEPS:
        for x, y in starts:
            for heading in (0.0, -0.0, 0.4, -2.5):
                for speed in (0.0, 7.5, 30.0):
                    agent = AgentState(Point2(x, y), heading, speed)
                    new = predict_constant_velocity(agent, map_model, horizon, dt)
                    ref = ref_predict_constant_velocity(agent, map_model, horizon, dt)
                    assert [_bits(*wp) for wp in new] == [_bits(*wp) for wp in ref]
    # both branches ran
    assert ref_nearest_lane(map_model, Point2(-40.0, 25.0))[3] > LANE_SNAP_RANGE
    assert ref_nearest_lane(map_model, Point2(0.0, 0.0))[3] <= LANE_SNAP_RANGE


@pytest.mark.parametrize("accel", [-4.0, 0.0, 3.0])
@pytest.mark.parametrize("speed", [0.0, 3.0, 12.0])
def test_rollout_matches_reference_on_ties_and_bends(accel, speed):
    # on STRAIGHT: starts before its first vertex and past its last, and
    # starts whose lookahead clamps at total_length
    straight_starts = [BEFORE_STRAIGHT, PAST_STRAIGHT, (34.0, 6.2), (36.9, 4.8), (5.0, 3.0)]
    assert project_to_polyline(*BEFORE_STRAIGHT, STRAIGHT)[0] == 0.0
    assert project_to_polyline(*PAST_STRAIGHT, STRAIGHT)[0] == STRAIGHT.total_length
    assert project_to_polyline(34.0, 6.2, STRAIGHT)[0] + 5.0 > STRAIGHT.total_length
    curved = load_scenario(CURVED_YAML).map.lanes["left"].centerline
    for line, starts in ((U_TURN, _probe_points()[:10]), (curved, _probe_points()[:10]),
                         (STRAIGHT, straight_starts)):
        for x, y in starts:
            for heading in (0.0, -0.0, 1.0, -2.5, math.pi):
                start = AgentState(Point2(x, y), heading, speed)
                ref = ref_rollout(start, line, accel, 30, 0.1, 15.0)
                new = _rollout((x, y, heading, speed), line, accel, 30, 0.1, 15.0)
                assert [_state_bits(s) for s in new] == [_state_bits(s) for s in ref]


def test_rollout_lookahead_on_a_vertex():
    # from this start the lookahead point lands exactly on the inner vertex,
    # where a + 1.0 * (b - a) != b in floating point, and the heading after
    # one step depends on which of the two segments supplies the point
    line = Polyline((Point2(-34.9, -34.1), Point2(57.9, 44.7), Point2(65.9, 47.7)))
    x, y, heading = 54.08868253852315, 41.46366577624597, 0.9039933758374428
    s, _, _ = project_to_polyline(x, y, line)
    assert s + 5.0 == line.cumulative[1]
    ref = ref_rollout(AgentState(Point2(x, y), heading, 3.0), line, 0.0, 5, 0.1, 15.0)
    new = _rollout((x, y, heading, 3.0), line, 0.0, 5, 0.1, 15.0)
    assert [_state_bits(s) for s in new] == [_state_bits(s) for s in ref]


def test_bicycle_step_matches_reference():
    # signed zeros, targets within 1 m, behind and abeam, speeds past v_max
    # and accelerations and steering past the vehicle limits; and targets at
    # and next to 1 m, where steering switches on: on an axis, on the unit
    # circle, and with a component too small to move hypot
    below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
    targets = [(0.0, 0.0), (-0.0, -0.0), (0.5, -0.5), (10.0, 0.0), (-10.0, 0.0),
               (-10.0, -0.0), (0.0, 10.0), (3.0, -40.0), (1.0, 0.2),
               (1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (below, 0.0), (above, 0.0),
               (0.0, below), (0.0, above), (-below, 0.0), (0.0, -above),
               (0.6, 0.8), (0.8, -0.6), (1.0, 1e-300)]
    for x, y in ((0.0, 0.0), (-0.0, -0.0), (12.3, -4.5)):
        for heading in (0.0, -0.0, math.pi, -3.0, 1.2):
            for speed in (-0.0, 0.0, 3.0, 12.0, 20.0):
                for accel in (-10.0, -4.0, -0.0, 0.0, 2.5, 9.0):
                    state = AgentState(Point2(x, y), heading, speed)
                    for tx, ty in targets:
                        target = Point2(x + tx, y + ty)
                        steer = ref_pure_pursuit_steer(state, target)
                        ref = ref_bicycle_step(state, accel, steer, 0.1, 15.0)
                        new = bicycle_step(x, y, heading, speed, accel, target.x, target.y, 0.1, 15.0)
                        assert _state_bits(new) == _state_bits(ref)
