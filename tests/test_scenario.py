import os
import re
import sys
from importlib import resources

import pytest
import yaml

from avstress import scenario as scenario_module
from avstress.geom import project_to_polyline
from avstress.scenario import (
    PRESET_NAMES,
    ScenarioError,
    load_preset,
    load_scenario,
    prompt_to_world,
)
from avstress.sobol import MAX_DIM
from conftest import TWO_LANE_YAML, agents_yaml, scenario_with_agents

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks"))
import crowd_scenario  # noqa: E402


def test_load_valid_scenario(two_lane_scenario):
    sc = two_lane_scenario
    assert len(sc.simulated_agents) == 1
    assert sc.ego.id == "ego"
    assert sc.sim.horizon_steps == 80
    assert "npc" in sc.goal_domains


def test_load_is_deterministic_and_idempotent():
    a = load_scenario(TWO_LANE_YAML, scenario_id="s")
    b = load_scenario(TWO_LANE_YAML, scenario_id="s")
    assert a == b


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_load(name):
    sc = load_preset(name)
    assert sc.scenario_id == name
    assert len(sc.simulated_agents) == 1


def test_unknown_preset():
    with pytest.raises(ScenarioError):
        load_preset("sideways")


def _broken(yaml_text, needle, replacement):
    return yaml_text.replace(needle, replacement)


def test_missing_goal_domain_rejected():
    text = _broken(
        TWO_LANE_YAML,
        "goal_domains:\n  - {agent_id: npc, lane: left, s_min: 75.0, s_max: 175.0, "
        "l_min: -5.25, l_max: 1.75}\n",
        "goal_domains: []\n",
    )
    assert "agent_id: npc" not in text
    with pytest.raises(ScenarioError, match="npc"):
        load_scenario(text)


def test_inverted_s_range_rejected():
    text = _broken(TWO_LANE_YAML, "s_min: 75.0, s_max: 175.0", "s_min: 175.0, s_max: 75.0")
    with pytest.raises(ScenarioError, match="s_min"):
        load_scenario(text)


def test_dangling_lane_reference_rejected():
    text = _broken(TWO_LANE_YAML, "lane: left, s_min", "lane: phantom, s_min")
    with pytest.raises(ScenarioError, match="phantom"):
        load_scenario(text)


def test_dangling_neighbor_rejected():
    text = _broken(TWO_LANE_YAML, "left_neighbor: left", "left_neighbor: phantom")
    with pytest.raises(ScenarioError, match="phantom"):
        load_scenario(text)


def test_dangling_neighbor_named_by_lane_index():
    # the second lane, whose id is 'left'
    text = _broken(TWO_LANE_YAML, "right_neighbor: right", "right_neighbor: phantom")
    with pytest.raises(ScenarioError, match=r"^map\.lanes\[1\]\.right_neighbor: dangling "
                                            r"neighbor reference 'phantom'$"):
        load_scenario(text)


def test_numeric_lane_ids_and_neighbor_references_match():
    text = (TWO_LANE_YAML.replace("id: right", "id: 1").replace("id: left", "id: 2")
            .replace("left_neighbor: left", "left_neighbor: 2")
            .replace("right_neighbor: right", "right_neighbor: 1")
            .replace("lane: left,", "lane: 2,"))
    lanes = load_scenario(text).map.lanes
    assert (lanes["1"].left_neighbor, lanes["2"].right_neighbor) == ("2", "1")


@pytest.mark.parametrize("ref,kind", [("[left]", "list"), ("{id: left}", "dict")])
def test_non_scalar_neighbor_rejected_with_its_path(ref, kind):
    text = _broken(TWO_LANE_YAML, "left_neighbor: left", f"left_neighbor: {ref}")
    with pytest.raises(ScenarioError, match=r"^map\.lanes\[0\]\.left_neighbor: expected "
                                            f"a lane id, got {kind}$"):
        load_scenario(text)


# a list, a mapping or null in an id field would otherwise become its repr,
# "['npc']", "{'a': 'npc'}" or 'None', which a matching reference then names
ID_VALUES = [("[npc]", "list"), ("{a: npc}", "dict"), ("null", "null")]


def _assert_id_rejected(needle, key_text, path, what):
    assert TWO_LANE_YAML.count(needle) == 1
    for value, kind in ID_VALUES:
        text = _broken(TWO_LANE_YAML, needle, f"{key_text}: {value}")
        with pytest.raises(ScenarioError, match=f"^{re.escape(path)}: expected {what}, "
                                                f"got {kind}$"):
            load_scenario(text)


def test_non_scalar_agent_id_rejected_with_its_path():
    # the flow mapping's brace keeps goal_domains' "agent_id: npc" as it is
    _assert_id_rejected("{id: npc", "{id", "agents[1].id", "an agent id")


def test_non_scalar_lane_id_rejected_with_its_path():
    _assert_id_rejected("id: left", "id", "map.lanes[1].id", "a lane id")


def test_non_scalar_goal_domain_agent_id_rejected_with_its_path():
    _assert_id_rejected("agent_id: npc", "agent_id", "goal_domains[0].agent_id", "an agent id")


def test_non_scalar_goal_domain_lane_rejected_with_its_path():
    _assert_id_rejected("lane: left", "lane", "goal_domains[0].lane", "a lane id")


@pytest.mark.parametrize("key", ["map", "agents", "ego_goal", "goal_domains"])
def test_missing_top_level_field_named_without_a_dot(key):
    doc = yaml.safe_load(TWO_LANE_YAML)
    del doc[key]
    with pytest.raises(ScenarioError, match=f"^{key}: missing required field$"):
        load_scenario(yaml.safe_dump(doc))


def test_zero_simulated_agents_rejected():
    text = _broken(TWO_LANE_YAML, "role: simulated", "role: ego")
    with pytest.raises(ScenarioError):
        load_scenario(text)


def test_agent_count_limited_by_sobol_dimensions():
    most = (MAX_DIM - 2) // 2
    assert len(scenario_with_agents(most).simulated_agents) == most
    with pytest.raises(ScenarioError, match=f"limit of {MAX_DIM}"):
        scenario_with_agents(most + 1)


@pytest.mark.parametrize("v_max", ["0.0", "-1.0"])
def test_non_positive_v_max_rejected(v_max):
    # every episode would fail at its first planner step, yet `run` exits 0
    text = _broken(TWO_LANE_YAML, "v_max: 15.0", f"v_max: {v_max}")
    with pytest.raises(ScenarioError, match=r"sim\.v_max"):
        load_scenario(text)


NPC = "role: simulated, x: 15.0, y: 3.5, heading: 0.0, speed: 10.0, length: 4.8, width: 2.0"

# (text to replace, replacement, path of the non-finite number)
NON_FINITE = [
    # loads, then every episode fails
    (NPC, NPC.replace("speed: 10.0", "speed: .inf"), "agents[1].speed"),
    (NPC, NPC.replace("heading: 0.0", "heading: .nan"), "agents[1].heading"),
    # no episode can run
    ("dt: 0.1", "dt: .inf", "sim.dt"),
    # loads and silently removes the speed cap
    ("v_max: 15.0", "v_max: .nan", "sim.v_max"),
    # a bare ValueError with no field path
    (NPC, NPC.replace("x: 15.0", "x: .nan"), "agents[1].x"),
    ("ego_goal: {x: 90.0", "ego_goal: {x: .nan", "ego_goal.x"),
    # an OverflowError with no field path
    ("l_max: 1.75", "l_max: 1" + "0" * 400, "goal_domains[0].l_max"),
    ("l_min: -5.25", "l_min: -.inf", "goal_domains[0].l_min"),
]


@pytest.mark.parametrize("needle,replacement,path", NON_FINITE,
                         ids=[case[2] for case in NON_FINITE])
def test_non_finite_number_rejected_with_its_path(needle, replacement, path):
    assert TWO_LANE_YAML.count(needle) == 1
    text = _broken(TWO_LANE_YAML, needle, replacement)
    with pytest.raises(ScenarioError, match=f"^{re.escape(path)}: must be finite"):
        load_scenario(text)


# each of these loaded, read by float() or by index, before the vertices
# were checked as every other number is
BAD_VERTICES = [
    ("[[-60.0, 0.0], [300.0, false]]", "[1]: expected a number"),
    ("[['-60', '0'], [300.0, 0.0]]", "[0]: expected a number"),
    ("[[-60.0, 0.0, 99], [300.0, 0.0]]", "[0]: expected an [x, y] pair"),
    ("[{0: -60.0, 1: 0.0}, [300.0, 0.0]]", "[0]: expected an [x, y] pair"),
    ("[[-60.0, 0.0], [300.0, .nan]]", "[1]: must be finite, got nan"),
]


@pytest.mark.parametrize("centerline,error", BAD_VERTICES,
                         ids=["bool", "strings", "three_numbers", "mapping", "nan"])
def test_bad_centerline_vertex_rejected_with_its_path(centerline, error):
    needle = "[[-60.0, 0.0], [300.0, 0.0]]"
    assert TWO_LANE_YAML.count(needle) == 1
    with pytest.raises(ScenarioError) as err:
        load_scenario(_broken(TWO_LANE_YAML, needle, centerline))
    assert str(err.value) == f"map.lanes[0].centerline{error}"


@pytest.mark.parametrize("key,whole,fraction", [("horizon_steps", 80, 80.7),
                                                ("replan_every", 5, 2.5)])
def test_step_counts_must_be_whole(key, whole, fraction):
    # a fraction was truncated: 80.7 ran 80 steps and 2.5 replanned every 2
    with pytest.raises(ScenarioError, match=f"^sim\\.{key}: must be a whole number"):
        load_scenario(_broken(TWO_LANE_YAML, f"{key}: {whole}", f"{key}: {fraction}"))
    for text in (f"{key}: {whole}", f"{key}: {float(whole)}"):
        value = getattr(load_scenario(_broken(TWO_LANE_YAML, f"{key}: {whole}", text)).sim, key)
        assert value == whole and type(value) is int


def test_agent_wider_than_long_rejected():
    # loaded, then every episode failed with "invalid box extents"
    assert TWO_LANE_YAML.count(NPC) == 1
    text = _broken(TWO_LANE_YAML, NPC, NPC.replace("length: 4.8", "length: 1.8"))
    with pytest.raises(ScenarioError, match=r"^agents\[1\]: width 2.0 exceeds length 1.8"):
        load_scenario(text)
    # a square footprint is a valid box
    text = _broken(TWO_LANE_YAML, NPC, NPC.replace("length: 4.8", "length: 2.0"))
    assert load_scenario(text).agents[1].length == 2.0


@pytest.mark.parametrize("needle,replacement", [("width: 2.0", "width: 0.0"),
                                                ("length: 4.8", "length: -4.8")])
def test_non_positive_footprint_rejected(needle, replacement):
    text = _broken(TWO_LANE_YAML, NPC, NPC.replace(needle, replacement))
    with pytest.raises(ScenarioError, match=r"^agents\[1\]: footprint must be positive"):
        load_scenario(text)


def test_negative_v_desired_rejected():
    # the agent braked to a stop whatever its goal, so every prompt gave
    # nearly the same episode
    text = _broken(TWO_LANE_YAML, NPC, NPC + ", v_desired: -5.0")
    with pytest.raises(ScenarioError, match=r"^agents\[1\]\.v_desired: must be >= 0"):
        load_scenario(text)
    text = _broken(TWO_LANE_YAML, NPC, NPC + ", v_desired: 0.0")
    assert load_scenario(text).agents[1].v_desired == 0.0


def test_initial_overlap_rejected():
    # loaded, then every episode ended at t = 0 and could not be scored
    text = _broken(TWO_LANE_YAML, NPC, NPC.replace("x: 15.0", "x: 2.0"))
    with pytest.raises(ScenarioError, match=r"^agents: 'ego' and 'npc' overlap at t = 0$"):
        load_scenario(text)
    # footprints that only touch overlap, as in the episode's collision check
    text = _broken(TWO_LANE_YAML, NPC, NPC.replace("x: 15.0", "x: 4.8"))
    with pytest.raises(ScenarioError, match="overlap at t = 0"):
        load_scenario(text)
    text = _broken(TWO_LANE_YAML, NPC, NPC.replace("x: 15.0", "x: 4.81"))
    assert load_scenario(text).agents[1].initial_state.position.x == 4.81


@pytest.mark.parametrize("key", ["simm", "planner"])
def test_unknown_top_level_key_rejected(key):
    # the scenario file is the whole run configuration: a misspelled or
    # retired section must not be ignored
    text = TWO_LANE_YAML + f"{key}: {{d_safe: 5.0, replan_every: 3}}\n"
    with pytest.raises(ScenarioError, match=f"^{key}: unknown top-level key"):
        load_scenario(text)


# (text to replace, replacement, path of the unknown key)
NESTED_UNKNOWN_KEYS = [
    # runs 80 steps if ignored: the key is horizon_steps
    ("sim: {dt: 0.1, horizon_steps: 80,", "sim: {dt: 0.1, horizon: 40,", "sim.horizon"),
    # v_desired falls back to the start speed if the misspelling is dropped
    ("role: simulated, x: 15.0,", "role: simulated, v_desird: 14.0, x: 15.0,",
     "agents[1].v_desird"),
    ("map:\n  lanes:", "map:\n  junctions: []\n  lanes:", "map.junctions"),
    ("      width: 3.5\n      left_neighbor",
     "      width: 3.5\n      speed_limit: 30\n      left_neighbor",
     "map.lanes[0].speed_limit"),
    ("ego_goal: {x: 90.0, y: 0.0}", "ego_goal: {x: 90.0, y: 0.0, z: 0.0}", "ego_goal.z"),
    ("lane: left, s_min", "lane: left, lane_id: left, s_min", "goal_domains[0].lane_id"),
]


@pytest.mark.parametrize("needle,replacement,path", NESTED_UNKNOWN_KEYS,
                         ids=[case[2] for case in NESTED_UNKNOWN_KEYS])
def test_unknown_nested_key_rejected_with_its_path(needle, replacement, path):
    assert TWO_LANE_YAML.count(needle) == 1
    text = _broken(TWO_LANE_YAML, needle, replacement)
    with pytest.raises(ScenarioError, match=f"^{re.escape(path)}: unknown key"):
        load_scenario(text)


DOMAIN = "  - {agent_id: npc, lane: left, s_min: 75.0, s_max: 175.0, l_min: -5.25, l_max: 1.75}\n"

# (extra goal domain, error); either loaded without a word
GOAL_DOMAIN_CONFLICTS = [
    # the last entry silently replaced the first
    (DOMAIN.replace("s_min: 75.0", "s_min: 100.0"),
     "goal_domains[1].agent_id: duplicate goal domain for 'npc'"),
    # nothing reads a goal domain of the ego
    (DOMAIN.replace("npc", "ego").replace("s_min: 75.0", "s_min: 60.0"),
     "goal_domains[1].agent_id: 'ego' is the ego, which takes no goal"),
]


@pytest.mark.parametrize("extra,error", GOAL_DOMAIN_CONFLICTS, ids=["duplicate", "ego"])
def test_conflicting_goal_domain_rejected_with_its_path(extra, error):
    assert TWO_LANE_YAML.count(DOMAIN) == 1
    text = _broken(TWO_LANE_YAML, DOMAIN, DOMAIN + extra)
    with pytest.raises(ScenarioError, match=f"^{re.escape(error)}$"):
        load_scenario(text)


def test_non_mapping_section_rejected():
    text = _broken(TWO_LANE_YAML, "sim: {dt: 0.1, horizon_steps: 80, replan_every: 5, "
                   "v_max: 15.0}", "sim: [0.1, 80]")
    with pytest.raises(ScenarioError, match="^sim: expected a mapping"):
        load_scenario(text)


@pytest.mark.parametrize("n_agents", [1, 3, 4])
def test_benchmark_crowd_scenario_loads(n_agents):
    sc = load_scenario(crowd_scenario.crowd_yaml(7, n_agents))
    assert len(sc.simulated_agents) == n_agents


def test_goal_domain_behind_agent_rejected():
    # npc sits at arc-length 75 on the left lane; a domain starting at 10
    # lies behind it
    text = _broken(TWO_LANE_YAML, "s_min: 75.0", "s_min: 10.0")
    with pytest.raises(ScenarioError, match="behind"):
        load_scenario(text)


def test_l_range_outside_drivable_width_rejected():
    text = _broken(TWO_LANE_YAML, "l_min: -5.25", "l_min: -9.0")
    with pytest.raises(ScenarioError, match="drivable"):
        load_scenario(text)


class TestPromptToWorld:
    def test_corners(self, two_lane_scenario):
        dom = two_lane_scenario.goal_domains["npc"]
        lo = prompt_to_world(dom, (0.0, 0.0), two_lane_scenario.map)
        hi = prompt_to_world(dom, (1.0, 1.0), two_lane_scenario.map)
        # left lane runs y=3.5 from x=-60; s=75 -> x=15, l=-5.25 -> y=-1.75
        assert (lo.x, lo.y) == pytest.approx((15.0, -1.75))
        assert (hi.x, hi.y) == pytest.approx((115.0, 5.25))

    def test_midpoint_straight_lane(self):
        text = TWO_LANE_YAML.replace("s_min: 75.0, s_max: 175.0", "s_min: 60.0, s_max: 160.0").replace(
            "l_min: -5.25, l_max: 1.75", "l_min: -1.5, l_max: 1.5"
        ).replace("x: 15.0, y: 3.5", "x: -10.0, y: 3.5")  # behind the ego, clear of it
        sc = load_scenario(text)
        p = prompt_to_world(sc.goal_domains["npc"], (0.5, 0.5), sc.map)
        # s=110 on the left lane (starts x=-60) -> x=50; l=0 -> lane center
        assert (p.x, p.y) == pytest.approx((50.0, 3.5))

    def test_prompt_outside_unit_square(self, two_lane_scenario):
        dom = two_lane_scenario.goal_domains["npc"]
        with pytest.raises(ValueError):
            prompt_to_world(dom, (1.2, 0.5), two_lane_scenario.map)

    def test_image_projects_back_into_ranges(self, two_lane_scenario):
        import numpy as np

        sc = two_lane_scenario
        dom = sc.goal_domains["npc"]
        lane = sc.map.lanes[dom.reference_lane]
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = tuple(rng.random(2))
            p = prompt_to_world(dom, u, sc.map)
            s, l, _ = project_to_polyline(p.x, p.y, lane.centerline)
            assert dom.s_min - 1e-6 <= s <= dom.s_max + 1e-6
            assert dom.l_min - 1e-6 <= l <= dom.l_max + 1e-6


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def _load_with(loader, monkeypatch, text):
    monkeypatch.setattr(scenario_module, "YAML_LOADER", loader)
    return load_scenario(text, scenario_id="s")


@pytest.mark.parametrize(
    "text",
    [resources.files("avstress").joinpath(f"presets/{name}.yaml").read_text()
     for name in PRESET_NAMES]
    + [TWO_LANE_YAML, agents_yaml(3), crowd_scenario.crowd_yaml(7, 3)],
    ids=[*PRESET_NAMES, "two_lane", "agents_3", "crowd_7_3"],
)
def test_yaml_loaders_give_equal_scenarios(text, monkeypatch):
    # libyaml's parser, where PyYAML has it, reads each config as the
    # pure-Python one does
    scenarios = [_load_with(loader, monkeypatch, text) for loader in LOADERS]
    assert all(sc == scenarios[0] for sc in scenarios)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text", ["map: [unclosed", "a: b: c", "map:\n\t- tab"])
def test_malformed_yaml_is_a_scenario_error(text, loader, monkeypatch):
    with pytest.raises(ScenarioError, match="^config is not valid YAML: "):
        _load_with(loader, monkeypatch, text)
