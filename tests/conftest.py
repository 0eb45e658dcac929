import math
from collections import namedtuple

import pytest

from avstress import metrics, optimizer
from avstress import planner as planner_module
from avstress.geom import Point2
from avstress.optimizer import GpUcbSampler, SobolSampler
from avstress.scenario import load_scenario
from avstress.sim import AgentState, Episode, JointState

TWO_LANE_YAML = """
map:
  lanes:
    - id: right
      centerline: [[-60.0, 0.0], [300.0, 0.0]]
      width: 3.5
      left_neighbor: left
    - id: left
      centerline: [[-60.0, 3.5], [300.0, 3.5]]
      width: 3.5
      right_neighbor: right
agents:
  - {id: ego, role: ego, x: 0.0, y: 3.5, heading: 0.0, speed: 10.0, length: 4.8, width: 2.0}
  - {id: npc, role: simulated, x: 15.0, y: 3.5, heading: 0.0, speed: 10.0, length: 4.8, width: 2.0}
ego_goal: {x: 90.0, y: 0.0}
goal_domains:
  - {agent_id: npc, lane: left, s_min: 75.0, s_max: 175.0, l_min: -5.25, l_max: 1.75}
sim: {dt: 0.1, horizon_steps: 80, replan_every: 5, v_max: 15.0}
"""


def agents_yaml(n_simulated):
    """TWO_LANE_YAML plus simulated agents npc2..npcN in the right lane."""
    extra_agents = "".join(
        f"  - {{id: npc{k}, role: simulated, x: {15.0 + 10 * k}, y: 0.0, heading: 0.0, "
        f"speed: 10.0, length: 4.8, width: 2.0}}\n"
        for k in range(2, n_simulated + 1)
    )
    extra_domains = "".join(
        f"  - {{agent_id: npc{k}, lane: right, s_min: {80.0 + 10 * k}, s_max: 175.0, "
        f"l_min: -1.75, l_max: 1.75}}\n"
        for k in range(2, n_simulated + 1)
    )
    return TWO_LANE_YAML.replace("ego_goal:", extra_agents + "ego_goal:").replace(
        "sim: {dt", extra_domains + "sim: {dt"
    )


def scenario_with_agents(n_simulated):
    return load_scenario(agents_yaml(n_simulated), scenario_id=f"synthetic_{n_simulated}")


# the default sampler of each `run --sampler` kind
SAMPLERS = {"bo": GpUcbSampler(), "sobol": SobolSampler()}

# all a sampler reads of a campaign's EpisodeRecord: the prompt and its
# score, -inf for a failed episode
ScoredPrompt = namedtuple("ScoredPrompt", "prompt score")


def run_collecting(scenario, sampler, planner, budget, **kwargs):
    """`optimizer.run_campaign` with a sink that keeps what it is handed:
    the campaign's (record, episode) pairs, whose records are the ones
    `run_campaign` returns."""
    pairs = []
    records = optimizer.run_campaign(scenario, sampler, planner, budget,
                                     episode_sink=lambda *pair: pairs.append(pair), **kwargs)
    assert [record for record, _ in pairs] == records
    return pairs


class ScriptedPolicy:
    """Replays a fixed list of states; used for stubs and premise checks."""

    def __init__(self, agent_id, states):
        self.agent_id = agent_id
        self.states = states

    def step(self, world):
        idx = min(world.timestep, len(self.states) - 1)
        return self.states[idx]


class ConstantVelocityEgoStub:
    """Planner stub that keeps the ego at its current heading and speed."""

    def plan(self, world, scenario):
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


def as_tuple(state):
    return (state.position.x, state.position.y, state.heading, state.speed)


class TuplePlanner:
    """Plans the ego's current state as (x, y, heading, speed) tuples, not
    as AgentStates: a plan of the wrong type."""

    def plan(self, world, scenario):
        return [as_tuple(world.states[scenario.ego.id])] * scenario.sim.replan_every


@pytest.fixture
def two_lane_scenario():
    return load_scenario(TWO_LANE_YAML, scenario_id="two_lane")


def make_episode(positions, collision=None):
    """Episode from {agent_id: [(x, y), ...]} position lists (equal length)."""
    n = len(next(iter(positions.values())))
    trace = []
    for t in range(n):
        states = {
            aid: AgentState(Point2(*pts[t]), 0.0, 0.0) for aid, pts in positions.items()
        }
        trace.append(JointState(t, states))
    return Episode(trace=trace, collision=collision)


def straight_positions(start, velocity, steps, dt=0.1):
    x0, y0 = start
    vx, vy = velocity
    return [(x0 + k * vx * dt, y0 + k * vy * dt) for k in range(steps)]


def brute_force_min_distance(episode, scenario):
    """Independent exhaustive (t, n) oracle for the criticality score."""
    ego_id = scenario.ego.id
    sim_ids = [a.id for a in scenario.simulated_agents]
    best = math.inf
    for joint in episode.trace[1:]:
        ex = joint.states[ego_id].position
        for aid in sim_ids:
            other = joint.states[aid].position
            d = math.sqrt((ex.x - other.x) ** 2 + (ex.y - other.y) ** 2)
            if d < best:
                best = d
    return best


def trajectory_distance(tau_a, tau_b):
    """Mean distance between corresponding (x, y) points over the common
    prefix of two trajectories: the pair term of `metrics.asd`, for oracles."""
    n = min(len(tau_a), len(tau_b))
    return sum(math.dist(tau_a[k], tau_b[k]) for k in range(n)) / n


def stats_of(episodes, scenario, scores=None):
    """`metrics.campaign_stats` of successful episodes: their scores, by
    default scored here, and each agent's path in each, the ego first."""
    if scores is None:
        scores = [metrics.score_episode(e, scenario) for e in episodes]
    paths = [[metrics.agent_trajectory(e, agent.id) for e in episodes]
             for agent in (scenario.ego, *scenario.simulated_agents)]
    return metrics.campaign_stats(scores, paths)


# one row of a LatticePlanner's table with its clearance this replan, its
# rollout unpacked into (x, y, heading, speed) tuples
ScoredRow = namedtuple("ScoredRow", "target_lane accel states cost min_clearance")


def scored_rows(planner, world, scenario):
    """Every row of the planner's table for this replan, in planning order,
    with its clearance: plan() scores only the rows it needs."""
    rows, _ = planner._table(world.states[scenario.ego.id], scenario)
    predictions = planner._predictions(world, scenario)
    return [
        ScoredRow(
            lane_id, accel, list(zip(*[iter(flat)] * 4)), cost,
            planner_module._clearance(flat, predictions),
        )
        for lane_id, accel, flat, cost in rows
    ]


def record_blas_threads(monkeypatch):
    """(controls, calls): the OpenBLAS thread controls, and a list that gets
    (name, thread counts) at every later call of the GP's `_factor` and
    `kernel_matrix`, which run inside its entry points' one-thread policy.
    Skips the test where numpy and scipy use no OpenBLAS of their wheels."""
    from avstress import surrogate

    controls = surrogate._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy use no OpenBLAS of their wheels here")
    calls = []
    for name in ("_factor", "kernel_matrix"):
        def recording(*args, fn=getattr(surrogate, name), name=name):
            calls.append((name, [get() for get, _ in controls]))
            return fn(*args)

        monkeypatch.setattr(surrogate, name, recording)
    return controls, calls
