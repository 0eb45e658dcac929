"""Sequential prompt selection: UCB Bayesian optimization and the Sobol
random baseline, plus the campaign loop that ties sampling, simulation, and
scoring together.

Prompts live in the unit cube: 2 coordinates per prompted agent. A sampler
is an object whose `propose(records, dim, helper)` returns the next prompt;
it reads only each record's `prompt` and `score` (-inf for a failed
episode), and its state is a function of the records alone, so a fresh
sampler given a campaign's first k records proposes the campaign's prompt
k. `SobolSampler` never looks at scores. `GpUcbSampler` bootstraps its first
two prompts from the Sobol sequence (a GP needs two points to fit), then
maximizes UCB over a dense deterministic candidate set.

numpy and the GP (`surrogate`, which loads scipy) are imported where the BO
sampler first needs them, so a Sobol campaign starts without either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .fit_helper import FitHelper
from .geom import Point2
from .metrics import EpisodeScore, score_episode
from .scenario import Scenario, prompt_to_world
from .sim import Episode, PlannerHandle, ReactivePolicy, simulate_episode
from .sobol import sobol_point, sobol_points

if TYPE_CHECKING:
    import numpy as np

PERTURBATION = 0.02
# the most corners of an observation's perturbation box in the candidate set
LOCAL_CORNERS = 64


def ucb(mean: np.ndarray, variance: np.ndarray, beta: float) -> np.ndarray:
    """Upper confidence bound at each candidate (GP-UCB, Srinivas et al. 2010)."""
    import numpy as np

    return mean + beta * np.sqrt(variance)


def _candidate_set(records: Sequence[EpisodeRecord], count: int, dim: int) -> np.ndarray:
    """`count` Sobol points, then corners of a +-PERTURBATION box around
    each record's prompt (failed ones too), clipped to the unit cube.

    While 2^dim <= LOCAL_CORNERS (up to dim 6) these are all 2^dim corners
    in binary order, the last coordinate fastest, '-' before '+'. Above it,
    where 2^dim corners per observation outgrow memory (2^18 at 9 agents),
    they are the LOCAL_CORNERS corners whose signs follow the Sobol points
    1..LOCAL_CORNERS of that dimension: a coordinate >= 0.5 means '+'."""
    import numpy as np

    cands = sobol_points(count, dim=dim, start=1)
    if 2**dim <= LOCAL_CORNERS:
        plus = ((np.arange(2**dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1) == 1
    else:
        plus = sobol_points(LOCAL_CORNERS, dim=dim, start=1) >= 0.5
    deltas = np.where(plus, PERTURBATION, -PERTURBATION)
    base = np.array([rec.prompt for rec in records])
    locals_ = np.clip(base[:, None, :] + deltas, 0.0, 1.0).reshape(-1, dim)
    return np.vstack([cands, locals_])


class SobolSampler:
    """The random baseline: the Sobol point after the records' prompts."""

    def propose(self, records: Sequence[EpisodeRecord], dim: int,
                helper: Optional[FitHelper] = None) -> Tuple[float, ...]:
        return sobol_point(len(records) + 1, dim=dim)


@dataclass(frozen=True)
class GpUcbSampler:
    """GP-UCB over the records whose score is finite; Sobol points until
    two are. `helper` is the campaign's `FitHelper`, which the GP fit hands
    half of its starts; without one the fit runs them all in this process."""

    beta: float = 2.0
    candidates: int = 1024

    def __post_init__(self):
        # NaN compares False with everything, so test for the valid range
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.candidates < 16:
            raise ValueError("candidate count must be >= 16")

    def propose(self, records: Sequence[EpisodeRecord], dim: int,
                helper: Optional[FitHelper] = None) -> Tuple[float, ...]:
        valid = [rec for rec in records if math.isfinite(rec.score)]
        if len(valid) < 2:
            return sobol_point(len(records) + 1, dim=dim)

        import numpy as np
        from . import surrogate

        X = np.array([rec.prompt for rec in valid])
        y = np.array([rec.score for rec in valid])
        cands = _candidate_set(records, self.candidates, dim)
        model = surrogate.fit(X, y, helper=helper)
        acq = ucb(*surrogate.posterior_batch(model, cands), self.beta)
        best = int(np.argmax(acq))  # first index wins ties
        return tuple(float(v) for v in cands[best])


def suggest_next(sampler, records: Sequence[EpisodeRecord], dim: int,
                 helper: Optional[FitHelper] = None) -> Tuple[float, ...]:
    """The campaign's one sampler call per iteration, which the benchmark times."""
    return sampler.propose(records, dim, helper)


@dataclass(frozen=True)
class EpisodeRecord:
    iteration: int
    prompt: Tuple[float, ...]
    goals_world: Dict[str, Point2]
    metrics: Optional[EpisodeScore]  # None: the episode failed

    @property
    def failed(self) -> bool:
        return self.metrics is None

    @property
    def score(self) -> float:
        return -math.inf if self.metrics is None else self.metrics.g


def split_prompt(
    scenario: Scenario, prompt: Tuple[float, ...]
) -> Dict[str, Point2]:
    """Map a 2N-dimensional prompt to one world goal per simulated agent."""
    goals = {}
    for i, agent in enumerate(scenario.simulated_agents):
        u = (prompt[2 * i], prompt[2 * i + 1])
        domain = scenario.goal_domains[agent.id]
        goals[agent.id] = prompt_to_world(domain, u, scenario.map)
    return goals


def prompt_dim(scenario: Scenario) -> int:
    return 2 * len(scenario.simulated_agents)


PolicyFactory = Callable[[Scenario, str, Point2], object]

def run_campaign(
    scenario: Scenario,
    sampler,
    planner: PlannerHandle,
    budget: int,
    policy_factory: PolicyFactory = ReactivePolicy,
    episode_sink: Optional[Callable[[EpisodeRecord, Episode], None]] = None,
) -> List[EpisodeRecord]:
    """Run a full sampling campaign: exactly `budget` episodes, each from
    the prompt `sampler` proposes given the records before it, and each
    handed with its record to `episode_sink`. Returns the records.

    An episode fails only in `simulate_episode`; its record scores -inf, BO
    leaves it out of the GP fit, and it still consumes budget. Any other
    exception ends the campaign. The loop is deterministic given its
    arguments. Every proposal is passed the campaign's `FitHelper` as
    `helper`; its process, if a fit started one, is joined before this
    returns or raises.
    """
    dim = prompt_dim(scenario)
    records: List[EpisodeRecord] = []
    with FitHelper() as helper:
        for it in range(budget):
            prompt = suggest_next(sampler, records, dim, helper)
            goals = split_prompt(scenario, prompt)
            policies = {
                aid: policy_factory(scenario, aid, goal) for aid, goal in goals.items()
            }
            episode = simulate_episode(scenario, planner, policies)
            metrics = None if episode.failed else score_episode(episode, scenario)
            record = EpisodeRecord(it, prompt, goals, metrics)
            records.append(record)
            if episode_sink is not None:
                episode_sink(record, episode)
    return records
