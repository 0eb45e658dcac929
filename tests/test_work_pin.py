"""How much the closed loop computes, against committed counts.

Campaign files pin what the loop computes; this pins how much of it: the
`planner._rollout`, `sim.bicycle_step` (the planner's rollouts and the
reactive policies together) and `LatticePlanner.plan` calls, and the
planner's own `project_to_polyline` and `point_at_arclength` calls, of
budget-10 Sobol campaigns on the three presets and the curved road, each
with a fresh planner. The presets' one-segment lanes make no geometry call
from the planner; the curved road's lanes make them all. A speed-up
that does the same work keeps these counts; one that skips or repeats work
fails here even where its output is byte-identical, and a change that moves
them on purpose re-pins them and says so.
"""
import pytest

from avstress import planner as planner_module
from avstress import sim
from avstress.optimizer import SobolSampler, run_campaign
from avstress.planner import LatticePlanner
from avstress.scenario import PRESET_NAMES, load_preset, load_scenario
from conftest import CURVED_YAML

GEOMETRY = ("project_to_polyline", "point_at_arclength")
WORK = {
    "front": {"rollout": 692, "bicycle_step": 21370, "plan": 123,
              "project_to_polyline": 0, "point_at_arclength": 0},
    "front_right": {"rollout": 612, "bicycle_step": 18982, "plan": 127,
                    "project_to_polyline": 0, "point_at_arclength": 0},
    "behind": {"rollout": 440, "bicycle_step": 14000, "plan": 160,
               "project_to_polyline": 0, "point_at_arclength": 0},
    "curved": {"rollout": 602, "bicycle_step": 18763, "plan": 142,
               "project_to_polyline": 18060, "point_at_arclength": 21780},
}


@pytest.fixture
def work(monkeypatch):
    """A dict counting the calls of each pinned function, by its key in WORK."""
    counts = dict.fromkeys(("rollout", "bicycle_step", "plan") + GEOMETRY, 0)

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(planner_module, "_rollout", counting("rollout", planner_module._rollout))
    # the planner and the reactive policies each call it through their own module
    step = counting("bicycle_step", sim.bicycle_step)
    monkeypatch.setattr(planner_module, "bicycle_step", step)
    monkeypatch.setattr(sim, "bicycle_step", step)
    monkeypatch.setattr(LatticePlanner, "plan", counting("plan", LatticePlanner.plan))
    # the planner's calls only: `scenario.nearest_lane` calls its own binding
    for name in GEOMETRY:
        monkeypatch.setattr(planner_module, name, counting(name, getattr(planner_module, name)))
    return counts


@pytest.mark.parametrize("name", sorted(WORK))
def test_sobol_campaign_does_the_pinned_work(name, work):
    scenario = (load_preset(name) if name in PRESET_NAMES
                else load_scenario(CURVED_YAML, scenario_id=name))
    records = run_campaign(scenario, SobolSampler(), LatticePlanner(), 10)
    assert not any(r.failed for r in records)
    assert work == WORK[name]
