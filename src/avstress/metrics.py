"""Episode scoring and campaign statistics.

Criticality of an episode is the negated minimum ego-to-agent center
distance over all post-initial timesteps; higher means more dangerous.
Campaign-level statistics cover collision rate, min-distance and
time-to-collision spreads, and pairwise trajectory diversity.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from statistics import mean, stdev
from typing import List, Sequence, Tuple

from .geom import euclidean_distance
from .scenario import Scenario
from .sim import Episode


@dataclass(frozen=True)
class EpisodeScore:
    min_dist: float
    ttc_min: float  # seconds, may be inf
    collided: bool

    @property
    def g(self) -> float:  # criticality, negative meters
        return -self.min_dist


@dataclass(frozen=True)
class CampaignStats:
    # the stats.csv columns after scenario and sampler, by name and in order
    n: int  # successful episodes
    coll_pct: float
    min_dist_mean: float
    min_dist_std: float
    ttc_mean: float
    ttc_std: float
    ttc_inf_count: int
    ego_asd: float
    agent_asd: float


def distance_table(episode: Episode, scenario: Scenario) -> List[List[float]]:
    """Ego-to-agent center distances: one row per trace step, t = 0
    included, and one column per simulated agent in config order."""
    if len(episode.trace) < 2:
        raise ValueError("criticality is undefined for a single-entry trace")
    ego_id = scenario.ego.id
    sim_ids = [a.id for a in scenario.simulated_agents]
    return [
        [euclidean_distance(joint.states[ego_id].position, joint.states[aid].position)
         for aid in sim_ids]
        for joint in episode.trace
    ]


def _ttc_min(table: List[List[float]], scenario: Scenario) -> float:
    """Minimum instantaneous time-to-collision over steps and agents.

    gap = center distance minus half the two body lengths; closing speed is
    the forward difference of the gap. TTC is gap/closing when the agents
    are approaching with positive gap, 0 at contact, +inf otherwise.

    The gap ignores width and heading, so it treats both bodies as if they
    were lined up end to end: two cars passing side by side in adjacent
    lanes (3.5 m apart, 4.8 m long) have a negative gap and score 0, though
    their footprints never touch.
    """
    ego = scenario.ego
    dt = scenario.sim.dt
    best = math.inf
    for j, agent in enumerate(scenario.simulated_agents):
        contact = 0.5 * (ego.length + agent.length)
        gaps = [row[j] - contact for row in table]
        for k in range(len(gaps) - 1):
            if gaps[k] <= 0.0:
                return 0.0
            closing = (gaps[k] - gaps[k + 1]) / dt
            if closing > 0.0:
                best = min(best, gaps[k] / closing)
        if gaps[-1] <= 0.0:
            return 0.0
    return best


def score_episode(episode: Episode, scenario: Scenario) -> EpisodeScore:
    table = distance_table(episode, scenario)
    # criticality leaves out t = 0, which the prompt cannot change
    md = min(min(row) for row in table[1:])
    return EpisodeScore(
        min_dist=md,
        ttc_min=_ttc_min(table, scenario),
        collided=episode.collision is not None,
    )


def asd(trajectories: Sequence[Sequence[Tuple[float, float]]]) -> float:
    """Average self-distance of a set of (x, y) trajectories: the sum over
    i < j of the mean distance between corresponding points, truncated to
    the shorter trajectory (collision-truncated episodes compare on their
    common prefix), divided by n_e * (n_e - 1)."""
    n_e = len(trajectories)
    if n_e < 2:
        raise ValueError("ASD needs at least 2 trajectories")
    if not all(trajectories):
        raise ValueError("trajectories must be nonempty")
    # Trajectories equal by value (an ego that repeats its path) give equal
    # pair terms bit for bit: math.dist takes the absolute value of each
    # difference, so neither the sign of a zero nor the order of the pair
    # changes it. So the term of a pair that involves a trajectory occurring
    # more than once is computed once per pair of groups and kept; any other
    # pair is computed where it is added and kept nowhere. The terms are
    # added in (i, j) order, so the sum rounds as the plain double loop does.
    groups = {}
    group = [groups.setdefault(tuple(map(tuple, tau)), len(groups)) for tau in trajectories]
    size = Counter(group)
    repeated = [size[g] > 1 for g in group]
    kept = {}  # (g, h) with g <= h: the term of groups g and h
    total = 0.0
    for i in range(n_e):
        g = group[i]
        for j in range(i + 1, n_e):
            if repeated[i] or repeated[j]:
                h = group[j]
                pair = (g, h) if g <= h else (h, g)
                term = kept.get(pair)
                if term is None:
                    term = kept[pair] = _pair_distance(trajectories[i], trajectories[j])
                total += term
            else:
                total += _pair_distance(trajectories[i], trajectories[j])
    return total / (n_e * (n_e - 1))


def _pair_distance(a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]) -> float:
    """Mean distance between corresponding points over the common prefix."""
    # math.dist rounds as math.hypot of the coordinate differences does:
    # CPython takes both through the same vector_norm
    return sum(map(math.dist, a, b)) / min(len(a), len(b))


def agent_trajectory(episode: Episode, agent_id: str) -> List[Tuple[float, float]]:
    positions = [joint.states[agent_id].position for joint in episode.trace]
    return [(p.x, p.y) for p in positions]


def campaign_stats(
    scores: Sequence[EpisodeScore],
    paths: Sequence[Sequence[Sequence[Tuple[float, float]]]],
) -> CampaignStats:
    """Aggregate statistics over the successful episodes of one campaign.

    `scores` holds one score per successful episode, and `paths` one list
    per agent, the ego first and then the simulated agents in config order,
    of that agent's (x, y) path in each of those episodes, as
    `agent_trajectory` gives it. Only these are read, so a caller can build
    them one episode at a time and drop each episode once it is read."""
    n_e = len(scores)
    for agent_paths in paths:
        if len(agent_paths) != n_e:
            raise ValueError(f"{len(agent_paths)} paths of an agent for {n_e} scores")
    if n_e < 2:
        raise ValueError("campaign statistics need at least 2 successful episodes")

    collided = sum(1 for s in scores if s.collided)
    min_dists = [s.min_dist for s in scores]
    finite_ttc = [s.ttc_min for s in scores if math.isfinite(s.ttc_min)]
    ttc_inf = n_e - len(finite_ttc)

    ego_asd, *agent_asds = map(asd, paths)

    return CampaignStats(
        n=n_e,
        coll_pct=100.0 * collided / n_e,
        min_dist_mean=mean(min_dists),
        min_dist_std=stdev(min_dists),
        ttc_mean=mean(finite_ttc) if finite_ttc else math.inf,
        ttc_std=stdev(finite_ttc) if len(finite_ttc) > 1 else 0.0,
        ttc_inf_count=ttc_inf,
        ego_asd=ego_asd,
        agent_asd=mean(agent_asds),
    )
