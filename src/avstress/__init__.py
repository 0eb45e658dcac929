"""Automated stress testing of motion planners: Bayesian-optimization search
over goal prompts rolled out in a closed-loop simulator.
"""

__version__ = "0.1.0"

from .geom import Point2, Polyline  # noqa: F401
from .scenario import Scenario, load_scenario, load_preset, prompt_to_world  # noqa: F401
from .optimizer import GpUcbSampler, SobolSampler, run_campaign, suggest_next  # noqa: F401
from .sim import simulate_episode, ReactivePolicy  # noqa: F401
from .planner import LatticePlanner  # noqa: F401
from .metrics import campaign_stats  # noqa: F401


def __getattr__(name):
    # `avstress.surrogate` loads scipy, so it is imported on first use, not
    # with the package: Sobol runs, `report` and `replay` never need it
    if name == "surrogate":
        import importlib

        return importlib.import_module(".surrogate", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
