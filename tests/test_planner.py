import dataclasses
import math

import pytest

from avstress import planner as planner_module
from avstress.geom import Point2
from avstress.optimizer import SobolSampler
from avstress.planner import ACCEL_GRID, D_SAFE, LatticePlanner, predict_constant_velocity
from avstress.scenario import MapModel, load_preset, load_scenario
from avstress.sim import AgentState, JointState, initial_joint_state, simulate_episode
from conftest import TWO_LANE_YAML, ScriptedPolicy, run_collecting, scored_rows
from test_rollout_reference import ref_choice


class TestPredictConstantVelocity:
    def test_on_centerline(self, two_lane_scenario):
        agent = AgentState(Point2(0.0, 0.0), 0.0, 10.0)
        pred = predict_constant_velocity(agent, two_lane_scenario.map, 10, 0.1)
        for k, (x, y) in enumerate(pred, start=1):
            assert x == pytest.approx(k * 1.0)
            assert y == pytest.approx(0.0)

    def test_lateral_offset_decays(self, two_lane_scenario):
        agent = AgentState(Point2(0.0, 1.0), 0.0, 10.0)  # 1 m left of right lane
        pred = predict_constant_velocity(agent, two_lane_scenario.map, 20, 0.1)
        offsets = [y for _, y in pred]
        assert all(b < a for a, b in zip(offsets[:-1], offsets[1:]))
        assert offsets[-1] < offsets[0]
        assert offsets[-1] > 0.0

    def test_agent_at_rest(self, two_lane_scenario):
        agent = AgentState(Point2(5.0, 0.4), 0.0, 0.0)
        pred = predict_constant_velocity(agent, two_lane_scenario.map, 5, 0.1)
        # arc-length frozen; only the lateral decay moves the waypoints
        for x, y in pred:
            assert x == pytest.approx(5.0)
            assert 0.0 <= y < 0.4

    def test_far_from_lanes_straight_fallback(self, two_lane_scenario):
        agent = AgentState(Point2(0.0, 50.0), math.pi / 2, 4.0)
        pred = predict_constant_velocity(agent, two_lane_scenario.map, 5, 0.1)
        for k, (x, y) in enumerate(pred, start=1):
            assert x == pytest.approx(0.0, abs=1e-9)
            assert y == pytest.approx(50.0 + 0.4 * k)


class TestLatticePlan:
    def test_empty_road_targets_goal_lane_with_max_accel(self):
        # remove the npc's influence by parking it far away in the left lane;
        # goal 45 m ahead in the right lane so the lateral term matters
        text = TWO_LANE_YAML.replace("x: 15.0, y: 3.5", "x: 280.0, y: 3.5").replace(
            "s_min: 75.0", "s_min: 340.0"
        ).replace("s_max: 175.0", "s_max: 355.0").replace("x: 90.0, y: 0.0", "x: 45.0, y: 0.0")
        sc = load_scenario(text)
        planner = LatticePlanner()
        cands = scored_rows(planner, initial_joint_state(sc), sc)
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
        cands = scored_rows(planner, initial_joint_state(sc), sc)
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
        cands = scored_rows(planner, world, sc)
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
        states = [AgentState(Point2(*wp), npc0.heading, npc0.speed) for wp in pred]
        episode = simulate_episode(sc, LatticePlanner(), {"npc": ScriptedPolicy("npc", states)})
        assert episode.collision is None
        assert not episode.failed


# ------------------------------------------------------------ rollout memo


@pytest.fixture
def rollout_calls(monkeypatch):
    """A one-element list counting the calls of planner._rollout."""
    calls = [0]
    real = planner_module._rollout

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(planner_module, "_rollout", counting)
    return calls


def _hex(*values):
    return tuple(float(v).hex() for v in values)


def _candidate_bits(cands):
    return [
        (c.target_lane, _hex(c.accel, c.cost, c.min_clearance), [_hex(*s) for s in c.states])
        for c in cands
    ]


def _with_ego(world, ego_id, **changes):
    states = dict(world.states)
    states[ego_id] = dataclasses.replace(states[ego_id], **changes)
    return JointState(world.timestep, states)


class TestRolloutMemo:
    def test_second_call_rolls_out_nothing(self, two_lane_scenario, rollout_calls):
        sc = two_lane_scenario
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        first = scored_rows(planner, world, sc)
        assert rollout_calls[0] == len(first) == 2 * len(ACCEL_GRID)
        second = scored_rows(planner, world, sc)
        assert rollout_calls[0] == len(first)
        assert _candidate_bits(second) == _candidate_bits(first)
        # the hit returns the very table the miss built
        ego = world.states["ego"]
        assert planner._table(ego, sc) is planner._table(ego, sc)

    def test_signed_zero_start_is_its_own_entry(self, two_lane_scenario, rollout_calls):
        sc = two_lane_scenario
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        assert math.copysign(1.0, world.states["ego"].heading) == 1.0
        negative = _with_ego(world, "ego", heading=-0.0)
        scored_rows(planner, world, sc)
        cands = scored_rows(planner, negative, sc)
        assert rollout_calls[0] == 2 * len(cands)
        assert _candidate_bits(cands) == _candidate_bits(scored_rows(LatticePlanner(), negative, sc))

    def test_reuse_across_scenarios_matches_fresh_planner(self, two_lane_scenario):
        sc = two_lane_scenario
        slow = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, v_max=8.0))
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        in_sc = scored_rows(planner, world, sc)
        in_slow = scored_rows(planner, world, slow)
        assert _candidate_bits(in_slow) != _candidate_bits(in_sc)
        assert _candidate_bits(in_slow) == _candidate_bits(scored_rows(LatticePlanner(), world, slow))
        assert _candidate_bits(scored_rows(planner, world, sc)) == _candidate_bits(in_sc)


class TestPlanCache:
    def test_repeat_plan_is_a_new_list_of_the_same_states(self, two_lane_scenario):
        sc = two_lane_scenario
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        first = planner.plan(world, sc)
        second = planner.plan(world, sc)
        assert second == first and second is not first
        assert all(b is a for a, b in zip(first, second))
        # a caller that changes its list changes no later plan
        first.append(first[0])
        first[1] = None
        assert len(second) == sc.sim.replan_every
        third = planner.plan(world, sc)
        assert third == second and all(c is b for b, c in zip(second, third))

    def test_another_scenario_object_gets_new_states(self, two_lane_scenario):
        sc = two_lane_scenario
        same = dataclasses.replace(sc)
        assert same == sc and same is not sc
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        first = planner.plan(world, sc)
        in_same = planner.plan(world, same)
        again = planner.plan(world, sc)
        assert in_same == first == again
        assert not any(b is a for a, b in zip(first, in_same))
        assert not any(b is a for a, b in zip(first, again))


class FreshPlanner:
    """Plans every replan with a new LatticePlanner, so nothing is memoised."""

    def plan(self, world, scenario):
        return LatticePlanner().plan(world, scenario)


def test_memoised_campaign_matches_fresh_planners(rollout_calls):
    scenario = load_preset("front_right")
    memoised = run_collecting(scenario, SobolSampler(), LatticePlanner(), 8)
    memoised_calls = rollout_calls[0]
    fresh = run_collecting(scenario, SobolSampler(), FreshPlanner(), 8)
    # later episodes replay rollouts of earlier ones
    assert memoised_calls < rollout_calls[0] - memoised_calls
    assert len(memoised) == len(fresh) == 8
    for (ra, a), (rb, b) in zip(memoised, fresh):
        assert not ra.failed and not rb.failed
        assert a.collision == b.collision
        assert len(a.trace) == len(b.trace)
        for wa, wb in zip(a.trace, b.trace):
            assert sorted(wa.states) == sorted(wb.states)
            for aid in wa.states:
                sa, sb = wa.states[aid], wb.states[aid]
                assert _hex(sa.position.x, sa.position.y, sa.heading, sa.speed) == _hex(
                    sb.position.x, sb.position.y, sb.heading, sb.speed
                )


# ----------------------------------------------------------- scored table


class TestScoredTable:
    def test_second_plan_skips_rollouts_and_ego_lane_lookup(
        self, two_lane_scenario, rollout_calls, monkeypatch
    ):
        sc = two_lane_scenario
        looked_up = []
        real = MapModel.nearest_lane

        def recording(self, p):
            looked_up.append(p)
            return real(self, p)

        monkeypatch.setattr(MapModel, "nearest_lane", recording)
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        ego_at = world.states["ego"].position
        first = planner.plan(world, sc)
        assert rollout_calls[0] == 2 * len(ACCEL_GRID)
        assert ego_at in looked_up
        looked_up.clear()
        second = planner.plan(world, sc)
        assert rollout_calls[0] == 2 * len(ACCEL_GRID)
        # the other agent is still predicted, the ego's lanes are not looked up
        assert looked_up == [world.states["npc"].position]
        assert second == first

    def test_one_entry_per_distinct_start(self, two_lane_scenario, rollout_calls):
        sc = two_lane_scenario
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        moved_ego = _with_ego(world, "ego", speed=9.0)
        moved_npc = _with_ego(world, "npc", position=Point2(25.0, 3.5))
        for w in (world, moved_ego, world, moved_npc, moved_ego):
            planner.plan(w, sc)
        assert len(planner._tables) == 2
        assert rollout_calls[0] == 2 * 2 * len(ACCEL_GRID)
        # a hit with the other agent elsewhere scores its clearances anew
        assert _candidate_bits(scored_rows(planner, moved_npc, sc)) == _candidate_bits(
            scored_rows(LatticePlanner(), moved_npc, sc)
        )

    # Each case puts every step of a left-lane row on the ego goal and of a
    # right-lane row at its accel's offset along x from it, and predicts the
    # npc to stand on the goal: a row's clearance is |offset| and its cost
    # |offset| + COMFORT_WEIGHT * |accel|. Offsets are listed in ACCEL_GRID
    # order, -4 to 3.
    @pytest.mark.parametrize("case,offsets", [
        # every row within D_SAFE of the npc, the largest clearance unique
        ("fallback", (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)),
        # right-lane rows -2 and 2 are the cheapest feasible, at equal cost;
        # row 3 is feasible with the largest clearance
        ("equal_cost", (-2.0, -4.0, -0.5, 0.0, 0.5, 4.0, 5.0)),
        # right-lane rows -2 and 2 tie on the largest clearance, all infeasible
        ("clearance_tie", (0.0, -2.0, -1.0, 0.0, 1.0, 2.0, 0.0)),
    ])
    def test_plan_executes_reference_choice(
        self, two_lane_scenario, monkeypatch, case, offsets
    ):
        sc = two_lane_scenario
        gx, gy = sc.ego_goal.x, sc.ego_goal.y
        offset = dict(zip(ACCEL_GRID, offsets))

        def fake_rollout(start, centerline, accel, horizon, dt, v_max):
            on_right = centerline.vertices[0].y == 0.0
            x = gx + offset[accel] if on_right else gx
            return [(x, gy, 0.0, 1.0)] * horizon

        def fake_prediction(agent, map_model, horizon, dt):
            return [(gx, gy)] * horizon

        monkeypatch.setattr(planner_module, "_rollout", fake_rollout)
        monkeypatch.setattr(planner_module, "predict_constant_velocity", fake_prediction)
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        cands = scored_rows(planner, world, sc)
        feasible = [c for c in cands if c.min_clearance >= D_SAFE]
        if case == "equal_cost":
            cheapest = min(c.cost for c in feasible)
            assert [c.accel for c in feasible if c.cost == cheapest] == [-2.0, 2.0]
        else:
            assert not feasible
            widest = max(c.min_clearance for c in cands)
            ties = [c.accel for c in cands if c.min_clearance == widest]
            assert ties == ([-4.0] if case == "fallback" else [-2.0, 2.0])
        ref = [(c.target_lane, c.accel, c.states, c.cost, c.min_clearance) for c in cands]
        chosen = ref[ref_choice(ref, D_SAFE)]
        plan = planner.plan(world, sc)
        assert [(s.position.x, s.position.y, s.heading, s.speed) for s in plan] == (
            chosen[2][: sc.sim.replan_every]
        )
        assert chosen[:2] == ("right", -4.0 if case == "fallback" else -2.0)


# -------------------------------------------------------------- early exit


@pytest.fixture
def clearance_calls(monkeypatch):
    """A list of the rollouts planner._clearance is called on, in call order."""
    calls = []
    real = planner_module._clearance

    def counting(flat, predictions):
        calls.append(flat)
        return real(flat, predictions)

    monkeypatch.setattr(planner_module, "_clearance", counting)
    return calls


class TestEarlyExit:
    # Each case stages the two-lane scene's 14 rows (the ego's left lane,
    # then the right one, each in ACCEL_GRID order). Row i ends offsets[i]
    # along x from the ego goal, so its cost is offsets[i] + COMFORT_WEIGHT *
    # |accel|; its first step stands clearances[i] along x from the npc's
    # first predicted waypoint, and every later step is far from the npc.
    # Its heading is i throughout, so each row's plan is its own.
    @staticmethod
    def _staged(monkeypatch, sc, offsets, clearances):
        gx, gy = sc.ego_goal.x, sc.ego_goal.y
        rows = [(lane, a) for lane in ("left", "right") for a in ACCEL_GRID]
        index = {row: i for i, row in enumerate(rows)}

        def fake_rollout(start, centerline, accel, horizon, dt, v_max):
            i = index["right" if centerline.vertices[0].y == 0.0 else "left", accel]
            heading = float(i)
            return [(clearances[i], 500.0, heading, 1.0)] + [
                (gx + offsets[i], gy, heading, 1.0)
            ] * (horizon - 1)

        def fake_prediction(agent, map_model, horizon, dt):
            return [(0.0, 500.0)] + [(gx, gy + 1000.0)] * (horizon - 1)

        monkeypatch.setattr(planner_module, "_rollout", fake_rollout)
        monkeypatch.setattr(planner_module, "predict_constant_velocity", fake_prediction)
        planner = LatticePlanner()
        world = initial_joint_state(sc)
        cands = scored_rows(planner, world, sc)
        assert [_hex(c.min_clearance) for c in cands] == [_hex(c) for c in clearances]
        return planner, world, cands

    @staticmethod
    def _plan(planner, world, sc, cands, calls):
        """The index of the row plan() executes; checks it against ref_choice."""
        calls.clear()
        plan = planner.plan(world, sc)
        rows, _ = planner._table(world.states["ego"], sc)
        executed = [_hex(s.position.x, s.position.y, s.heading, s.speed) for s in plan]
        chosen = [i for i, c in enumerate(cands)
                  if [_hex(*s) for s in c.states[: sc.sim.replan_every]] == executed]
        assert len(chosen) == 1
        ref = [(c.target_lane, c.accel, c.states, c.cost, c.min_clearance) for c in cands]
        assert chosen[0] == ref_choice(ref, D_SAFE)
        # the rows whose clearance this replan computed
        return chosen[0], [next(i for i, r in enumerate(rows) if r[2] is flat) for flat in calls]

    # distinct offsets that make the cost order the reverse of planning order
    REVERSED = [13.0 - i for i in range(14)]

    def test_cheapest_feasible_row_scores_one(
        self, two_lane_scenario, monkeypatch, clearance_calls
    ):
        sc = two_lane_scenario
        planner, world, cands = self._staged(monkeypatch, sc, self.REVERSED, [5.0] * 14)
        chosen, scanned = self._plan(planner, world, sc, cands, clearance_calls)
        assert chosen == 13
        assert scanned == [13]

    def test_third_cheapest_feasible_row_scores_three(
        self, two_lane_scenario, monkeypatch, clearance_calls
    ):
        sc = two_lane_scenario
        clearances = [5.0] * 12 + [1.0, 1.0]
        planner, world, cands = self._staged(monkeypatch, sc, self.REVERSED, clearances)
        chosen, scanned = self._plan(planner, world, sc, cands, clearance_calls)
        assert chosen == 11
        assert scanned == [13, 12, 11]

    def test_no_feasible_row_scores_each_once(
        self, two_lane_scenario, monkeypatch, clearance_calls
    ):
        # the largest clearance ties between rows 4 and 9; the more
        # expensive row 4 comes first in planning order
        sc = two_lane_scenario
        clearances = [1.0] * 14
        clearances[4] = clearances[9] = 2.5
        planner, world, cands = self._staged(monkeypatch, sc, self.REVERSED, clearances)
        chosen, scanned = self._plan(planner, world, sc, cands, clearance_calls)
        assert chosen == 4
        assert scanned == list(range(13, -1, -1))

    @pytest.mark.parametrize("clearance_1,chosen_row,scanned_rows", [
        (1.0, 12, [1, 12]),  # the earlier of the tied rows is infeasible
        (5.0, 1, [1]),  # both are feasible
    ])
    def test_cost_ties_go_in_planning_order(
        self, two_lane_scenario, monkeypatch, clearance_calls,
        clearance_1, chosen_row, scanned_rows,
    ):
        # rows 1 (left, -2) and 12 (right, 2) share the lowest cost
        sc = two_lane_scenario
        offsets = [5.0 + i for i in range(14)]
        offsets[1] = offsets[12] = 0.0
        clearances = [5.0] * 14
        clearances[1] = clearance_1
        planner, world, cands = self._staged(monkeypatch, sc, offsets, clearances)
        assert _hex(cands[1].cost) == _hex(cands[12].cost) == _hex(2 * planner_module.COMFORT_WEIGHT)
        assert min(c.cost for c in cands) == cands[1].cost
        chosen, scanned = self._plan(planner, world, sc, cands, clearance_calls)
        assert chosen == chosen_row
        assert scanned == scanned_rows


# ----------------------------------------------------------- rollout reuse


@pytest.fixture
def rollout_log(monkeypatch):
    """The (start, centerline, accel, horizon) of each planner._rollout
    call, and the real _rollout."""
    log = []
    real = planner_module._rollout

    def logging(start, centerline, accel, horizon, dt, v_max):
        log.append((start, centerline, accel, horizon))
        return real(start, centerline, accel, horizon, dt, v_max)

    monkeypatch.setattr(planner_module, "_rollout", logging)
    return log, real


def _assert_rows_are_fresh_rollouts(rows, lanes, start, sc, real_rollout):
    """Each row equals a rollout of its lane and accel from the start, bit for bit."""
    horizon = max(planner_module.HORIZON_STEPS, sc.sim.replan_every)
    centerlines = {lane.id: lane.centerline for lane in lanes}
    for lane_id, accel, flat, _ in rows:
        fresh = real_rollout(start, centerlines[lane_id], accel, horizon, sc.sim.dt, sc.sim.v_max)
        assert [_hex(*s) for s in zip(*[iter(flat)] * 4)] == [_hex(*s) for s in fresh]


class TestRolloutReuse:
    # front: v_max 15, dt 0.1. The accels whose rows share one array, by
    # start speed: those >= 0 that reach v_max at the first step, and those
    # <= 0 that reach 0
    @pytest.mark.parametrize("speed,classes", [
        (15.0, [(0.0, 1.0, 2.0, 3.0)]),
        (14.85, [(2.0, 3.0)]),  # 14.85 + 0.1 < 15 <= 14.85 + 0.2
        # above v_max the brakes saturate only at the first step, so the
        # braking rows are not shared
        (16.0, [(0.0, 1.0, 2.0, 3.0)]),
        (0.0, [(-4.0, -2.0, -1.0, 0.0)]),
        (-0.0, [(-4.0, -2.0, -1.0, 0.0)]),
        (0.05, [(-4.0, -2.0, -1.0)]),
    ])
    def test_saturated_rows_share_one_array_per_class(self, rollout_log, speed, classes):
        log, real = rollout_log
        sc = load_preset("front")
        planner = LatticePlanner()
        world = _with_ego(initial_joint_state(sc), "ego", speed=speed)
        ego = world.states["ego"]
        rows, _ = planner._table(ego, sc)
        lanes = planner._candidate_lanes(ego, sc)
        start = (ego.position.x, ego.position.y, ego.heading, speed)
        _assert_rows_are_fresh_rollouts(rows, lanes, start, sc, real)
        # each lane groups its rows by array identity into exactly the classes
        for lane in lanes:
            groups = {}
            for lane_id, accel, flat, _ in rows:
                if lane_id == lane.id:
                    groups.setdefault(id(flat), []).append(accel)
            shared = [tuple(g) for g in groups.values() if len(g) > 1]
            assert shared == classes
        # no array is shared across lanes, and each distinct one is rolled out once
        distinct = {id(flat) for _, _, flat, _ in rows}
        assert len(distinct) == len(rows) - len(lanes) * sum(len(c) - 1 for c in classes)
        assert len(log) == len(distinct)

    def test_campaign_rolls_out_each_row_from_its_table_start(self, rollout_log, monkeypatch):
        log, _ = rollout_log
        sc = load_preset("front")
        horizon = max(planner_module.HORIZON_STEPS, sc.sim.replan_every)
        real_table = LatticePlanner._table
        # the (start, horizon) each rollout of a table build must have
        expected = []

        def table(self, ego, scenario):
            first = len(log)
            entry = real_table(self, ego, scenario)
            start = _hex(ego.position.x, ego.position.y, ego.heading, ego.speed)
            expected.extend((start, horizon) for _ in log[first:])
            return entry

        monkeypatch.setattr(LatticePlanner, "_table", table)
        pairs = run_collecting(sc, SobolSampler(), LatticePlanner(), 10)
        assert not any(record.failed for record, _ in pairs)
        assert [(_hex(*start), h) for start, _, _, h in log] == expected
        # tables were built from more starts than the scenario's initial one
        assert len(set(expected)) > 1
