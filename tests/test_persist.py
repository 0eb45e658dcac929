"""The episode writer's byte contract.

`persist.write_episode` writes each trace line from a template rather than
through json.dumps; the file must still be byte for byte the per-line
`json.dumps(sort_keys=True, allow_nan=False)` form, and raise what it raises.
"""
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from avstress import persist
from avstress.geom import Point2
from avstress.scenario import load_scenario
from avstress.sim import AgentState, Episode, JointState
from conftest import TWO_LANE_YAML

# a quote, a backslash and a non-ASCII letter, which json escapes
IDS = ("ego", 'say "hi"', "back\\slash", "Zoë")
VALUES = (-0.0, 0.0, 5e-324, 0.1 + 0.2, 1e16, 1e22, 3.0, -250.0, 1.5e-7, 123456.789,
          -math.pi, 2.0**53 + 2.0)


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


def episode_of(trace):
    return Episode(scenario_id="two_lane", prompts_world={"npc": Point2(1.0, 2.0)},
                   trace=trace)


def contract_trace():
    """Joint states whose values cycle through VALUES, ids in no sorted
    order, one line with an int value and one with a numpy.float64."""
    trace = []
    n = len(VALUES)
    for t in range(2 * n):
        states = {}
        for j, aid in enumerate(reversed(IDS)):
            v = [VALUES[(t + j + k) % n] for k in range(4)]
            states[aid] = AgentState(Point2(v[0], v[1]), v[2], abs(v[3]))
        trace.append(JointState(t, states))
    trace.append(JointState(len(trace), {"ego": AgentState(Point2(3, -4), 0, 2)}))
    trace.append(JointState(len(trace), {
        "ego": AgentState(Point2(np.float64(0.1), np.float64(1e22)), np.float64(-0.0),
                          np.float64(7.25))}))
    return trace


@pytest.fixture
def scenario():
    return load_scenario(TWO_LANE_YAML, "two_lane")


def test_file_equals_per_line_json_dumps(scenario, tmp_path):
    trace = contract_trace()
    path = tmp_path / "ep.jsonl"
    persist.write_episode(str(path), episode_of(trace), scenario)
    lines = path.read_bytes().decode("ascii").split("\n")
    assert lines[-1] == ""
    assert lines[1:-1] == [dumped_line(joint) for joint in trace]
    assert "Zo\\u00eb" in lines[1] and '"say \\"hi\\""' in lines[1]


def test_finite_float_lines_do_not_go_through_json(scenario, tmp_path, monkeypatch):
    # only the header, the int line and nothing else falls back
    dumped = []
    real = persist._dump
    monkeypatch.setattr(persist, "_dump", lambda obj: dumped.append(obj) or real(obj))
    trace = contract_trace()
    persist.write_episode(str(tmp_path / "ep.jsonl"), episode_of(trace), scenario)
    assert [obj.get("type", obj.get("t")) for obj in dumped] == ["header", len(trace) - 2]


def test_every_float_reads_back_bit_for_bit(scenario, tmp_path):
    trace = contract_trace()
    path = str(tmp_path / "ep.jsonl")
    persist.write_episode(path, episode_of(trace), scenario)
    episode = persist.read_episode(path)

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
    ok = AgentState(Point2(0.0, 0.0), 0.0, 0.0)
    joint = JointState(1, {"ego": ok, "npc": state})
    with pytest.raises(ValueError) as want:
        dumped_line(joint)
    path = tmp_path / "ep.jsonl"
    with pytest.raises(ValueError) as got:
        persist.write_episode(str(path), episode_of([JointState(0, {"ego": ok}), joint]),
                              scenario)
    assert str(got.value) == str(want.value)
    assert not path.exists()


def test_timestep_that_is_not_an_int_is_written_as_json_writes_it(scenario, tmp_path):
    ok = AgentState(Point2(0.5, 0.0), 0.0, 1.0)
    path = tmp_path / "ep.jsonl"
    persist.write_episode(str(path), episode_of([JointState(True, {"ego": ok})]), scenario)
    assert path.read_text().splitlines()[1] == dumped_line(JointState(True, {"ego": ok}))
    joint = JointState(np.int64(3), {"ego": ok})
    with pytest.raises(TypeError) as want:
        dumped_line(joint)
    with pytest.raises(TypeError) as got:
        persist.write_episode(str(path), episode_of([joint]), scenario)
    assert str(got.value) == str(want.value)
