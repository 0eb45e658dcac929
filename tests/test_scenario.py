import pytest

from avstress.geom import Point2, project_to_polyline
from avstress.scenario import (
    PRESET_NAMES,
    ScenarioError,
    load_preset,
    load_scenario,
    prompt_to_world,
)
from avstress.sobol import MAX_DIM
from conftest import TWO_LANE_YAML, scenario_with_agents


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


@pytest.mark.parametrize("key", ["simm", "planner"])
def test_unknown_top_level_key_rejected(key):
    # the scenario file is the whole run configuration: a misspelled or
    # retired section must not be ignored
    text = TWO_LANE_YAML + f"{key}: {{d_safe: 5.0, replan_every: 3}}\n"
    with pytest.raises(ScenarioError, match=f"^{key}: unknown top-level key"):
        load_scenario(text)


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
        ).replace("x: 15.0, y: 3.5", "x: 0.0, y: 3.5")
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
        lane = sc.map.lane(dom.reference_lane)
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = tuple(rng.random(2))
            p = prompt_to_world(dom, u, sc.map)
            s, l, _ = project_to_polyline(Point2(p.x, p.y), lane.centerline)
            assert dom.s_min - 1e-6 <= s <= dom.s_max + 1e-6
            assert dom.l_min - 1e-6 <= l <= dom.l_max + 1e-6
