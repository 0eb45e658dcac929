"""Sequential prompt selection: UCB Bayesian optimization and the Sobol
random baseline, plus the campaign loop that ties sampling, simulation, and
scoring together.

Prompts live in the unit cube: 2 coordinates per prompted agent. The BO
sampler bootstraps its first two prompts from the Sobol sequence (a GP needs
two points to fit), then maximizes UCB over a dense deterministic candidate
set. The Sobol baseline never looks at scores.

numpy and the GP (`surrogate`, which loads scipy) are imported where the BO
sampler first needs them, so a Sobol campaign starts without either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True)
class Observation:
    prompt: Tuple[float, ...]
    score: float  # -inf marks a failed episode


# suggest_next reads only prompt and score: a campaign passes its
# EpisodeRecords, whose score is also -inf on failure
History = Sequence[Union[Observation, "EpisodeRecord"]]


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "bo"  # "bo" | "sobol"
    budget: int = 75
    beta: float = 2.0
    candidates: int = 1024

    def __post_init__(self):
        if self.kind not in ("bo", "sobol"):
            raise ValueError(f"unknown sampler kind '{self.kind}'")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        # NaN compares False with everything, so test for the valid range
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.candidates < 16:
            raise ValueError("candidate count must be >= 16")


def ucb(mean: np.ndarray, variance: np.ndarray, beta: float) -> np.ndarray:
    """Upper confidence bound at each candidate (GP-UCB, Srinivas et al. 2010)."""
    import numpy as np

    return mean + beta * np.sqrt(variance)


def _candidate_set(history: History, cfg: SamplerConfig, dim: int) -> np.ndarray:
    """Sobol points, then corners of a +-PERTURBATION box around each
    observed prompt (failed ones too), clipped to the unit cube.

    While 2^dim <= LOCAL_CORNERS (up to dim 6) these are all 2^dim corners
    in binary order, the last coordinate fastest, '-' before '+'. Above it,
    where 2^dim corners per observation outgrow memory (2^18 at 9 agents),
    they are the LOCAL_CORNERS corners whose signs follow the Sobol points
    1..LOCAL_CORNERS of that dimension: a coordinate >= 0.5 means '+'."""
    import numpy as np

    cands = sobol_points(cfg.candidates, dim=dim, start=1)
    if 2**dim <= LOCAL_CORNERS:
        plus = ((np.arange(2**dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1) == 1
    else:
        plus = sobol_points(LOCAL_CORNERS, dim=dim, start=1) >= 0.5
    deltas = np.where(plus, PERTURBATION, -PERTURBATION)
    base = np.array([obs.prompt for obs in history])
    locals_ = np.clip(base[:, None, :] + deltas, 0.0, 1.0).reshape(-1, dim)
    return np.vstack([cands, locals_])


def suggest_next(
    history: History, cfg: SamplerConfig, dim: int = 2, helper: Optional[FitHelper] = None
) -> Tuple[float, ...]:
    """Next prompt to evaluate; raises once the budget is exhausted.
    `helper` is the campaign's `FitHelper`, which the GP fit hands half of
    its starts; without one the fit runs them all in this process."""
    if len(history) >= cfg.budget:
        raise RuntimeError("sampling budget exhausted")
    if cfg.kind == "sobol":
        return sobol_point(len(history) + 1, dim=dim)

    valid = [obs for obs in history if math.isfinite(obs.score)]
    if len(valid) < 2:
        return sobol_point(len(history) + 1, dim=dim)

    import numpy as np
    from . import surrogate

    X = np.array([obs.prompt for obs in valid])
    y = np.array([obs.score for obs in valid])
    cands = _candidate_set(history, cfg, dim)
    model = surrogate.fit(X, y, helper=helper)
    acq = ucb(*surrogate.posterior_batch(model, cands), cfg.beta)
    best = int(np.argmax(acq))  # first index wins ties
    return tuple(float(v) for v in cands[best])


@dataclass
class EpisodeRecord:
    iteration: int
    prompt: Tuple[float, ...]
    goals_world: Dict[str, Point2]
    episode: Optional[Episode] = None
    metrics: Optional[EpisodeScore] = None  # None: the episode failed
    failure_reason: str = ""

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
    cfg: SamplerConfig,
    planner: PlannerHandle,
    policy_factory: PolicyFactory = ReactivePolicy,
    episode_sink: Optional[Callable[[EpisodeRecord], None]] = None,
) -> List[EpisodeRecord]:
    """Run a full sampling campaign: exactly cfg.budget episodes.

    Failed episodes are recorded with score -inf; BO excludes them from GP
    fitting but they still consume budget. The loop is deterministic given
    (scenario, cfg). Every GP fit of the campaign is passed the campaign's
    `FitHelper` as `helper`; its process, if a fit started one, is joined
    before this returns or raises.
    """
    dim = prompt_dim(scenario)
    records: List[EpisodeRecord] = []
    with FitHelper() as helper:
        for it in range(cfg.budget):
            prompt = suggest_next(records, cfg, dim=dim, helper=helper)
            goals = split_prompt(scenario, prompt)
            policies = {
                aid: policy_factory(scenario, aid, goal) for aid, goal in goals.items()
            }
            record = EpisodeRecord(iteration=it, prompt=prompt, goals_world=goals)
            try:
                record.episode = episode = simulate_episode(scenario, planner, policies)
                if episode.failed:
                    record.failure_reason = episode.failure_reason
                else:
                    record.metrics = score_episode(episode, scenario)
            except Exception as exc:
                record.failure_reason = str(exc)
            records.append(record)
            if episode_sink is not None:
                episode_sink(record)
    return records
