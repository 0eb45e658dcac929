"""Closed-loop episode engine and the goal-conditioned reactive agent policy.

The engine couples a planner under test (which owns the ego agent) with one
policy per simulated agent. All agents update synchronously: every policy
and the planner read the joint state at step t and write states for t+1, so
iteration order never matters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import atan2, cos, hypot, pi, sin, tan
from typing import Dict, List, Optional, Protocol, Tuple

from .geom import Point2, first_overlap
from .scenario import AgentState, Scenario

WHEELBASE = 2.8
STEER_LIMIT = 0.5
ACCEL_MIN = -6.0
ACCEL_MAX = 3.0
COMFORT_DECEL = 2.0
# the reactive agent's car-following (IDM) model, and the corridor ahead of
# it in which another agent counts as its leader
IDM_ACCEL_MAX = 2.0
IDM_DECEL_COMFORT = 3.0
IDM_GAP_MIN = 2.0
IDM_HEADWAY = 1.5
LEADER_RANGE = 60.0
LEADER_HALF_WIDTH = 2.0


@dataclass(frozen=True)
class JointState:
    timestep: int
    states: Dict[str, AgentState]


@dataclass(frozen=True)
class Episode:
    trace: List[JointState]
    collision: Optional[Tuple[int, Tuple[str, str]]] = None
    failed: bool = False
    failure_reason: str = ""


class PlannerHandle(Protocol):
    def plan(self, world: JointState, scenario: Scenario) -> List[AgentState]:
        """Ego states for the next replan_every steps. Must be deterministic."""


class PolicyHandle(Protocol):
    def step(self, world: JointState) -> AgentState:
        """Next state of the owned agent. Must be deterministic given world."""


def bicycle_step(
    x: float,
    y: float,
    heading: float,
    speed: float,
    accel: float,
    target_x: float,
    target_y: float,
    dt: float,
    v_max: float,
) -> Tuple[float, float, float, float]:
    """One kinematic-bicycle step, steered by pure pursuit toward a target.

    The steering angle points the front wheels at (target_x, target_y) with
    a lookahead of max(5 m, speed), or is zero when the target is within
    1 m. Steering and acceleration are clamped to the vehicle limits and
    the new speed to [0, v_max]. Works on plain floats and returns the new
    (x, y, heading, speed), so the planner's rollouts allocate nothing per
    step; this is the only dynamics definition in the package. Both angles,
    the pursuit angle and the new heading, are wrapped into (-pi, pi] inline
    as atan2(sin, cos) with -pi sent to pi, which saves two calls a step.
    hypot runs only when |dx| and |dy| are below 1 m: it is faithfully
    rounded and at least the larger of them, so otherwise it is >= 1.0 too.
    """
    dx = target_x - x
    dy = target_y - y
    if -1.0 < dx < 1.0 and -1.0 < dy < 1.0 and hypot(dx, dy) < 1.0:
        steer = 0.0
    else:
        alpha = atan2(dy, dx) - heading
        alpha = atan2(sin(alpha), cos(alpha))
        if alpha <= -pi:
            alpha = pi
        lookahead = speed if speed > 5.0 else 5.0  # max(5.0, speed)
        steer = atan2(2.0 * WHEELBASE * sin(alpha), lookahead)
    # the clamps are min(hi, max(lo, v)) and min(max(v, 0.0), v_max) written
    # as the conditionals those calls evaluate, which are faster here
    steer = steer if steer > -STEER_LIMIT else -STEER_LIMIT
    steer = steer if steer < STEER_LIMIT else STEER_LIMIT
    accel = accel if accel > ACCEL_MIN else ACCEL_MIN
    accel = accel if accel < ACCEL_MAX else ACCEL_MAX
    x_next = x + speed * cos(heading) * dt
    y_next = y + speed * sin(heading) * dt
    heading_next = heading + speed / WHEELBASE * tan(steer) * dt
    heading_next = atan2(sin(heading_next), cos(heading_next))
    if heading_next <= -pi:
        heading_next = pi
    speed_next = speed + accel * dt
    speed_next = 0.0 if 0.0 > speed_next else speed_next
    speed_next = v_max if v_max < speed_next else speed_next
    return x_next, y_next, heading_next, speed_next


class ReactivePolicy:
    """Goal-seeking driver: pure pursuit laterally, stopping + car-following
    longitudinally. The goal point plays the role of a behavior prompt; it is
    fixed at construction for the whole episode.
    """

    def __init__(self, scenario: Scenario, agent_id: str, goal: Point2):
        self.scenario = scenario
        self.agent_id = agent_id
        self.goal = goal
        cfg = next(a for a in scenario.agents if a.id == agent_id)
        self.v_desired = min(cfg.v_desired, scenario.sim.v_max)
        self.length = cfg.length
        self._lengths = {a.id: a.length for a in scenario.agents}

    def _leader_gap(self, me: AgentState, world: JointState):
        """Nearest agent ahead inside the forward corridor; returns (gap, speed)."""
        c, s = math.cos(me.heading), math.sin(me.heading)
        best = None
        for aid, other in world.states.items():
            if aid == self.agent_id:
                continue
            rx = other.position.x - me.position.x
            ry = other.position.y - me.position.y
            lon = rx * c + ry * s
            lat = -rx * s + ry * c
            if lon <= 0.0 or lon > LEADER_RANGE:
                continue
            if abs(lat) > LEADER_HALF_WIDTH:
                continue
            if best is None or lon < best[0]:
                gap = lon - 0.5 * (self.length + self._lengths[aid])
                best = (lon, gap, other.speed)
        if best is None:
            return None
        return best[1], best[2]

    def _follow_accel(self, me: AgentState, world: JointState) -> float:
        found = self._leader_gap(me, world)
        if found is None:
            return ACCEL_MAX
        gap, v_lead = found
        gap = max(gap, 0.1)
        v = me.speed
        v0 = max(self.v_desired, 0.1)
        s_star = IDM_GAP_MIN + v * IDM_HEADWAY + v * (v - v_lead) / (
            2.0 * math.sqrt(IDM_ACCEL_MAX * IDM_DECEL_COMFORT)
        )
        return IDM_ACCEL_MAX * (1.0 - (v / v0) ** 4 - (max(s_star, 0.0) / gap) ** 2)

    def step(self, world: JointState) -> AgentState:
        me = world.states[self.agent_id]
        dt = self.scenario.sim.dt
        gx = self.goal.x - me.position.x
        gy = self.goal.y - me.position.y
        dist_goal = math.hypot(gx, gy)
        behind = gx * math.cos(me.heading) + gy * math.sin(me.heading) < 0.0
        if behind:
            v_target = 0.0
        else:
            v_target = min(self.v_desired, math.sqrt(2.0 * COMFORT_DECEL * dist_goal))
        a_goal = (v_target - me.speed) / dt
        a_follow = self._follow_accel(me, world)
        x, y, heading, speed = bicycle_step(
            me.position.x, me.position.y, me.heading, me.speed, min(a_goal, a_follow),
            self.goal.x, self.goal.y, dt, self.scenario.sim.v_max,
        )
        return AgentState(Point2(x, y), heading, speed)


def _find_collision(
    world: JointState, scenario: Scenario
) -> Optional[Tuple[str, str]]:
    agents, states = scenario.agents, world.states
    pair = first_overlap([
        (states[a.id].position, states[a.id].heading, a.length, a.width) for a in agents
    ])
    return None if pair is None else (agents[pair[0]].id, agents[pair[1]].id)


def initial_joint_state(scenario: Scenario) -> JointState:
    return JointState(0, {a.id: a.initial_state for a in scenario.agents})


def simulate_episode(
    scenario: Scenario, planner: PlannerHandle, policies: Dict[str, PolicyHandle]
) -> Episode:
    """Roll out one closed-loop episode.

    The planner is consulted every replan_every steps and its plan overwrites
    the ego states until the next replan; simulated agents step their
    policies on the same joint state. The episode ends at the horizon, at
    the first collision, or when the planner or a policy fails: raises, or
    returns a plan of the wrong length or a state that is not an AgentState.
    Overlaps are checked from t = 1 on: `load_scenario` refuses one at
    t = 0.
    """
    ego_id = scenario.ego.id
    replan = scenario.sim.replan_every
    trace = [initial_joint_state(scenario)]
    ordered = sorted(policies.items())
    collision, failure_reason = None, ""
    for t in range(scenario.sim.horizon_steps):
        world = trace[-1]
        aid = None  # the policy being stepped, or None for the planner
        try:
            if t % replan == 0:
                plan = planner.plan(world, scenario)
                wrong = [type(s).__name__ for s in plan if not isinstance(s, AgentState)]
                if wrong or len(plan) != replan:
                    raise TypeError(f"returned a {wrong[0]}, not an AgentState" if wrong
                                    else f"returned {len(plan)} states, expected {replan}")
            next_states = {ego_id: plan[t % replan]}
            for aid, policy in ordered:
                state = next_states[aid] = policy.step(world)
                if not isinstance(state, AgentState):
                    raise TypeError(f"returned a {type(state).__name__}, not an AgentState")
        except Exception as exc:
            who = "planner" if aid is None else f"policy '{aid}'"
            failure_reason = f"{who} failed at step {t}: {exc}"
            break
        trace.append(JointState(t + 1, next_states))
        pair = _find_collision(trace[-1], scenario)
        if pair is not None:
            collision = (t + 1, pair)
            break
    return Episode(trace, collision, bool(failure_reason), failure_reason)
