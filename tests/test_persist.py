"""The episode writer's byte contract.

`persist.write_episode` writes each trace line from a template rather than
through json.dumps; the file must still be byte for byte the per-line
`json.dumps(sort_keys=True, allow_nan=False)` form. The template takes finite
floats at int steps, which is all the simulator produces, and raises on
anything else. And `persist.read_episode` must read back every episode that
the simulator gives a campaign, as it was: its rule of which episodes the
simulator can end so holds for each.
"""
import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from avstress import persist
from avstress.geom import Point2
from avstress.optimizer import SobolSampler
from avstress.planner import LatticePlanner
from avstress.scenario import load_preset, load_scenario
from avstress.sim import AgentState, Episode, JointState
from conftest import TWO_LANE_YAML, run_collecting

# a quote, a backslash and a non-ASCII letter, which json escapes
IDS = ("ego", 'say "hi"', "back\\slash", "Zoë")
# the two largest are finite, though their sum is not
VALUES = (-0.0, 0.0, 5e-324, 0.1 + 0.2, 1e16, 1e22, 3.0, -250.0, 1.5e-7, 123456.789,
          -math.pi, 2.0**53 + 2.0, 1.7e308, 1.7e308)
GOALS = {"npc": Point2(1.0, 2.0)}
OK = AgentState(Point2(0.5, 0.0), 0.0, 1.0)


def dumped_line(joint):
    """The line json.dumps writes for one joint state."""
    return json.dumps(
        {
            "t": joint.timestep,
            "agents": {
                aid: {"x": s.position.x, "y": s.position.y, "heading": s.heading,
                      "speed": s.speed}
                for aid, s in joint.states.items()
            },
        },
        sort_keys=True, allow_nan=False,
    )


def contract_trace():
    """Joint states whose values cycle through VALUES, ids in no sorted
    order, and one line of numpy.float64 values."""
    trace = []
    n = len(VALUES)
    for t in range(2 * n):
        states = {}
        for j, aid in enumerate(reversed(IDS)):
            v = [VALUES[(t + j + k) % n] for k in range(4)]
            states[aid] = AgentState(Point2(v[0], v[1]), v[2], abs(v[3]))
        trace.append(JointState(t, states))
    trace.append(JointState(len(trace), {
        aid: AgentState(Point2(np.float64(0.1), np.float64(1e22)), np.float64(-0.0),
                        np.float64(7.25)) for aid in IDS}))
    return trace


@pytest.fixture
def scenario():
    return load_scenario(TWO_LANE_YAML, "two_lane")


def test_file_equals_per_line_json_dumps(scenario, tmp_path):
    trace = contract_trace()
    path = tmp_path / "ep.jsonl"
    persist.write_episode(str(path), Episode(trace), GOALS, scenario)
    lines = path.read_bytes().decode("ascii").split("\n")
    assert lines[-1] == ""
    assert lines[1:-1] == [dumped_line(joint) for joint in trace]
    assert "Zo\\u00eb" in lines[1] and '"say \\"hi\\""' in lines[1]


def test_finite_float_lines_do_not_go_through_json(scenario, tmp_path, monkeypatch):
    # only the header goes through json.dumps
    dumped = []
    real = persist._dump
    monkeypatch.setattr(persist, "_dump", lambda obj: dumped.append(obj) or real(obj))
    persist.write_episode(str(tmp_path / "ep.jsonl"), Episode(contract_trace()), GOALS, scenario)
    assert [obj["type"] for obj in dumped] == ["header"]


def test_every_float_reads_back_bit_for_bit(scenario, tmp_path):
    trace = contract_trace()
    # the agents of the last step share one point, so the episode ends at
    # the collision of the first two, before the two-lane scenario's horizon
    path = str(tmp_path / "ep.jsonl")
    persist.write_episode(path, Episode(trace, (len(trace) - 1, IDS[:2])), GOALS, scenario)
    # the reader checks the file against its scenario's sim block and
    # agents, and its step 0 against their initial states
    ran = SimpleNamespace(sim=scenario.sim, agents=[
        SimpleNamespace(id=aid, length=4.8, width=2.0, initial_state=trace[0].states[aid])
        for aid in IDS])
    episode = persist.read_episode(path, ran)

    def bits(tr):
        return [
            (j.timestep, sorted(
                (aid, tuple(float(v).hex() for v in (s.position.x, s.position.y, s.heading,
                                                     s.speed)))
                for aid, s in j.states.items()))
            for j in tr
        ]

    assert bits(episode.trace) == bits(trace)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "y", "heading", "speed"])
def test_non_finite_value_raises_what_json_raises(bad, field, scenario, tmp_path):
    values = {"x": 1.0, "y": 2.0, "heading": 0.5, "speed": 3.0, field: bad}
    # AgentState refuses non-finite values, so the state is a plain namespace
    state = SimpleNamespace(position=SimpleNamespace(x=values["x"], y=values["y"]),
                            heading=values["heading"], speed=values["speed"])
    joint = JointState(1, {"ego": OK, "npc": state})
    with pytest.raises(ValueError):
        dumped_line(joint)
    path = tmp_path / "ep.jsonl"
    with pytest.raises(ValueError) as got:
        persist.write_episode(str(path), Episode([JointState(0, {"ego": OK}), joint]), GOALS,
                              scenario)
    assert str(got.value) == "non-finite value in the state of 'npc' at t=1"
    assert not path.exists()


def test_timestep_that_is_not_an_int_raises_type_error(scenario, tmp_path):
    path = tmp_path / "ep.jsonl"
    for step in (True, np.int64(3), 3.0):
        with pytest.raises(TypeError) as got:
            persist.write_episode(str(path), Episode([JointState(step, {"ego": OK})]), GOALS,
                                  scenario)
        assert str(got.value) == f"timestep is not an int: {step!r}"
        assert not path.exists()


@pytest.mark.parametrize("value", [3, True, "1.5"])
def test_value_that_is_not_a_float_raises_what_float_repr_raises(value, scenario, tmp_path):
    state = SimpleNamespace(position=SimpleNamespace(x=0.5, y=0.0), heading=value, speed=1.0)
    with pytest.raises(TypeError) as want:
        float.__repr__(value)
    path = tmp_path / "ep.jsonl"
    with pytest.raises(TypeError) as got:
        persist.write_episode(str(path), Episode([JointState(0, {"ego": state})]), GOALS,
                              scenario)
    assert str(got.value) == str(want.value)
    assert not path.exists()


class SometimesRaisingPlanner(LatticePlanner):
    """A LatticePlanner that raises on every 23rd call."""

    calls = 0

    def plan(self, world, scenario):
        self.calls += 1
        if self.calls % 23 == 0:
            raise RuntimeError("planner raised")
        return super().plan(world, scenario)


def test_every_episode_of_a_campaign_reads_back_as_it_was(tmp_path):
    scenario = load_preset("front")
    ends = Counter()
    for planner in (LatticePlanner(), SometimesRaisingPlanner()):
        for record, episode in run_collecting(scenario, SobolSampler(), planner, 75):
            path = str(tmp_path / f"ep_{record.iteration:04d}.jsonl")
            persist.write_episode(path, episode, record.goals_world, scenario)
            assert persist.read_episode(path, scenario) == episode, record.iteration
            ends["failed" if episode.failed else "collided" if episode.collision
                 else "horizon"] += 1
    # every way the simulator ends an episode, many times over
    assert min(ends[end] for end in ("failed", "collided", "horizon")) >= 10, ends
