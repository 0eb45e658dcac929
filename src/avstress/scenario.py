"""Static scene description: map, agents, goals, and the goal-prompt domain.

Scenarios are loaded from YAML config files (see presets/ for the shipped
examples) and validated up front so the search loop never has to deal with
malformed geometry.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

import yaml

from .geom import Point2, Polyline, first_overlap
from .geom import point_at_arclength, project_to_polyline
from .sobol import MAX_DIM as SOBOL_MAX_DIM


class InputError(ValueError):
    """A file or option the user gave that the program cannot use: a bad
    scenario, campaign file or flag. The CLI prints it and exits 2; any
    other exception is a fault of the program."""


class ScenarioError(InputError):
    """Config validation failure; message carries the offending field path."""


def read_text(path: str) -> str:
    """The file's text. Bytes that are not UTF-8 raise an InputError naming it."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class Lane:
    id: str
    centerline: Polyline
    width: float
    left_neighbor: Optional[str] = None
    right_neighbor: Optional[str] = None


@dataclass(frozen=True)
class MapModel:
    lanes: Dict[str, Lane]

    def nearest_lane(self, p: Point2) -> Tuple[Lane, float, float, float]:
        """Lane whose centerline is closest to p, with (s, l) on it.

        Returns (lane, s, l, distance). Ties resolve to config order.
        """
        best = None
        for lane in self.lanes.values():
            s, l, d = project_to_polyline(p.x, p.y, lane.centerline)
            if best is None or d < best[3] - 1e-12:
                best = (lane, s, l, d)
        assert best is not None
        return best


@dataclass(frozen=True)
class AgentState:
    position: Point2
    heading: float
    speed: float

    def __post_init__(self):
        if not math.isfinite(self.heading) or not math.isfinite(self.speed):
            raise ValueError("non-finite agent state")
        if self.speed < 0:
            raise ValueError("agent speed must be >= 0")


@dataclass(frozen=True)
class AgentConfig:
    id: str
    role: str  # "ego" | "simulated"
    initial_state: AgentState
    length: float
    width: float
    v_desired: float


@dataclass(frozen=True)
class GoalDomain:
    """Rectangle in the road-aligned (s, l) frame of a reference lane."""

    reference_lane: str
    s_min: float
    s_max: float
    l_min: float
    l_max: float


@dataclass(frozen=True)
class SimParams:
    dt: float
    horizon_steps: int
    replan_every: int
    v_max: float


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    map: MapModel
    agents: Tuple[AgentConfig, ...]
    ego_goal: Point2
    goal_domains: Dict[str, GoalDomain]
    sim: SimParams

    @property
    def ego(self) -> AgentConfig:
        return next(a for a in self.agents if a.role == "ego")

    @property
    def simulated_agents(self) -> List[AgentConfig]:
        return [a for a in self.agents if a.role == "simulated"]


def _require(mapping, key, path, kind=None):
    field = f"{path}.{key}" if path else key
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError(f"{field}: missing required field")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{field}: expected {kind}, got {type(value).__name__}")
    return value


def _check_keys(entry, allowed, path):
    """Reject a key of the mapping `entry` that is not in `allowed`: a
    misspelled field would otherwise fall back to its default unnoticed."""
    if not isinstance(entry, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(entry).__name__}")
    for key in entry:
        if key not in allowed:
            raise ScenarioError(
                f"{path}.{key}: unknown key; expected one of {', '.join(allowed)}"
            )


def _number(value, field):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{field}: expected a number")
    # an exact comparison: rejects NaN, infinities and integers beyond floats
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ScenarioError(f"{field}: must be finite, got {value}")
    return float(value)


def _num(mapping, key, path, default=None):
    if default is not None and key not in mapping:
        return float(default)
    return _number(_require(mapping, key, path), f"{path}.{key}")


def _count(mapping, key, path, default):
    """A step count: a whole number, written as 80 or 80.0."""
    value = _num(mapping, key, path, default)
    if value != int(value):
        raise ScenarioError(f"{path}.{key}: must be a whole number, got {value}")
    return int(value)


def _id(value, field, what):
    """A lane or agent id, read as text: 2 and '2' name the same lane. A
    list, a mapping or null has no such reading and would match only its
    own repr, so each is rejected with the field's path."""
    if value is None or isinstance(value, (list, dict)):
        kind = "null" if value is None else type(value).__name__
        raise ScenarioError(f"{field}: expected {what}, got {kind}")
    return str(value)


LANE_KEYS = ("id", "centerline", "width", "left_neighbor", "right_neighbor")
AGENT_KEYS = ("id", "role", "x", "y", "heading", "speed", "length", "width", "v_desired")
GOAL_DOMAIN_KEYS = ("agent_id", "lane", "s_min", "s_max", "l_min", "l_max")
SIM_KEYS = ("dt", "horizon_steps", "replan_every", "v_max")


def _parse_lane(entry, i: int) -> Lane:
    path = f"map.lanes[{i}]"
    _check_keys(entry, LANE_KEYS, path)
    lane_id = _id(_require(entry, "id", path), f"{path}.id", "a lane id")
    raw = _require(entry, "centerline", path, list)
    if len(raw) < 2:
        raise ScenarioError(f"{path}.centerline: need at least 2 vertices")
    verts = []
    for k, v in enumerate(raw):
        field = f"{path}.centerline[{k}]"
        if not (isinstance(v, list) and len(v) == 2):
            raise ScenarioError(f"{field}: expected an [x, y] pair")
        verts.append(Point2(_number(v[0], field), _number(v[1], field)))
    try:
        centerline = Polyline(tuple(verts))
    except ValueError as exc:
        raise ScenarioError(f"{path}.centerline: {exc}") from exc
    width = _num(entry, "width", path)
    if width <= 0:
        raise ScenarioError(f"{path}.width: must be > 0")
    # a neighbour names a lane id, read as the id itself is, or is null for none
    neighbors = {}
    for key in ("left_neighbor", "right_neighbor"):
        ref = entry.get(key)
        neighbors[key] = None if ref is None else _id(ref, f"{path}.{key}", "a lane id")
    return Lane(id=lane_id, centerline=centerline, width=width, **neighbors)


def _parse_agent(entry, i: int) -> AgentConfig:
    path = f"agents[{i}]"
    _check_keys(entry, AGENT_KEYS, path)
    role = str(_require(entry, "role", path))
    if role not in ("ego", "simulated"):
        raise ScenarioError(f"{path}.role: must be 'ego' or 'simulated'")
    speed = _num(entry, "speed", path)
    if speed < 0:
        raise ScenarioError(f"{path}.speed: must be >= 0")
    length = _num(entry, "length", path)
    width = _num(entry, "width", path)
    if length <= 0 or width <= 0:
        raise ScenarioError(f"{path}: footprint must be positive")
    if width > length:
        raise ScenarioError(f"{path}: width {width} exceeds length {length}")
    v_desired = _num(entry, "v_desired", path, default=speed)
    if v_desired < 0:
        raise ScenarioError(f"{path}.v_desired: must be >= 0")
    return AgentConfig(
        id=_id(_require(entry, "id", path), f"{path}.id", "an agent id"),
        role=role,
        initial_state=AgentState(
            Point2(_num(entry, "x", path), _num(entry, "y", path)),
            _num(entry, "heading", path, default=0.0),
            speed,
        ),
        length=length,
        width=width,
        v_desired=v_desired,
    )


def _drivable_l_range(map_model: MapModel, lane: Lane) -> Tuple[float, float]:
    lo, hi = -lane.width / 2, lane.width / 2
    if lane.left_neighbor:
        hi += map_model.lanes[lane.left_neighbor].width
    if lane.right_neighbor:
        lo -= map_model.lanes[lane.right_neighbor].width
    return lo, hi


# the whole run configuration: the CLI adds only sampler and output options
TOP_LEVEL_KEYS = ("map", "agents", "ego_goal", "goal_domains", "sim")
# libyaml's parser where PyYAML was built with it: it reads a preset in
# about 0.35 ms, the pure-Python one in 2.67 ms, into the same document
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_scenario(config_text: str, scenario_id: str = "scenario") -> Scenario:
    """Parse and validate a YAML scenario config."""
    try:
        doc = yaml.load(config_text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("config root must be a mapping")
    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            raise ScenarioError(
                f"{key}: unknown top-level key; expected one of {', '.join(TOP_LEVEL_KEYS)}"
            )

    map_entry = _require(doc, "map", "", dict)
    _check_keys(map_entry, ("lanes",), "map")
    lane_entries = _require(map_entry, "lanes", "map", list)
    if not lane_entries:
        raise ScenarioError("map.lanes: at least one lane required")
    lanes: Dict[str, Lane] = {}
    for i, entry in enumerate(lane_entries):
        lane = _parse_lane(entry, i)
        if lane.id in lanes:
            raise ScenarioError(f"map.lanes[{i}].id: duplicate lane id '{lane.id}'")
        lanes[lane.id] = lane
    for i, lane in enumerate(lanes.values()):
        for key in ("left_neighbor", "right_neighbor"):
            ref = getattr(lane, key)
            if ref is not None and ref not in lanes:
                raise ScenarioError(
                    f"map.lanes[{i}].{key}: dangling neighbor reference '{ref}'"
                )
    map_model = MapModel(lanes=lanes)

    agent_entries = _require(doc, "agents", "", list)
    agents = tuple(_parse_agent(e, i) for i, e in enumerate(agent_entries))
    ego_count = sum(1 for a in agents if a.role == "ego")
    if ego_count != 1:
        raise ScenarioError(f"agents: exactly one ego required, found {ego_count}")
    if not any(a.role == "simulated" for a in agents):
        raise ScenarioError("agents: at least one simulated agent required")
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise ScenarioError("agents: duplicate agent ids")
    # the same test as the episode's collision check, so no episode can
    # start in a collision
    pair = first_overlap([
        (a.initial_state.position, a.initial_state.heading, a.length, a.width)
        for a in agents
    ])
    if pair is not None:
        raise ScenarioError(
            f"agents: '{agents[pair[0]].id}' and '{agents[pair[1]].id}' overlap at t = 0"
        )
    n_simulated = sum(1 for a in agents if a.role == "simulated")
    # the GP's hyperparameter restarts are Sobol points in 2 dimensions per
    # prompted agent plus 2 (signal and noise scale)
    if 2 * n_simulated + 2 > SOBOL_MAX_DIM:
        raise ScenarioError(
            f"agents: {n_simulated} simulated agents need {2 * n_simulated + 2} Sobol "
            f"dimensions, over the limit of {SOBOL_MAX_DIM} "
            f"(at most {(SOBOL_MAX_DIM - 2) // 2} simulated agents)"
        )

    goal_entry = _require(doc, "ego_goal", "", dict)
    _check_keys(goal_entry, ("x", "y"), "ego_goal")
    ego_goal = Point2(_num(goal_entry, "x", "ego_goal"), _num(goal_entry, "y", "ego_goal"))

    domains: Dict[str, GoalDomain] = {}
    for i, entry in enumerate(_require(doc, "goal_domains", "", list)):
        path = f"goal_domains[{i}]"
        _check_keys(entry, GOAL_DOMAIN_KEYS, path)
        agent_id = _id(_require(entry, "agent_id", path), f"{path}.agent_id", "an agent id")
        if agent_id not in ids:
            raise ScenarioError(f"{path}.agent_id: unknown agent '{agent_id}'")
        agent = agents[ids.index(agent_id)]
        # a second entry would replace the first, and one for the ego is never read
        if agent_id in domains:
            raise ScenarioError(f"{path}.agent_id: duplicate goal domain for '{agent_id}'")
        if agent.role == "ego":
            raise ScenarioError(f"{path}.agent_id: '{agent_id}' is the ego, which takes no goal")
        lane_id = _id(_require(entry, "lane", path), f"{path}.lane", "a lane id")
        if lane_id not in lanes:
            raise ScenarioError(f"{path}.lane: dangling lane reference '{lane_id}'")
        dom = GoalDomain(
            reference_lane=lane_id,
            s_min=_num(entry, "s_min", path),
            s_max=_num(entry, "s_max", path),
            l_min=_num(entry, "l_min", path),
            l_max=_num(entry, "l_max", path),
        )
        if not dom.s_min < dom.s_max:
            raise ScenarioError(f"{path}: s_min must be < s_max")
        if not dom.l_min < dom.l_max:
            raise ScenarioError(f"{path}: l_min must be < l_max")
        lane = lanes[lane_id]
        if dom.s_max > lane.centerline.total_length + 1e-9:
            raise ScenarioError(f"{path}.s_max: beyond end of lane '{lane_id}'")
        lo, hi = _drivable_l_range(map_model, lane)
        if dom.l_min < lo - 1e-9 or dom.l_max > hi + 1e-9:
            raise ScenarioError(
                f"{path}: l_range [{dom.l_min}, {dom.l_max}] outside drivable "
                f"width [{lo}, {hi}] of lane '{lane_id}' and its neighbors"
            )
        s_agent, _, _ = project_to_polyline(*agent.initial_state.position, lane.centerline)
        if dom.s_min < s_agent - 1e-9:
            raise ScenarioError(
                f"{path}.s_min: {dom.s_min} lies behind agent '{agent_id}' "
                f"(arc-length {s_agent:.3f} on lane '{lane_id}')"
            )
        domains[agent_id] = dom

    for agent in agents:
        if agent.role == "simulated" and agent.id not in domains:
            raise ScenarioError(
                f"goal_domains: missing entry for simulated agent '{agent.id}'"
            )

    sim_entry = doc.get("sim", {})
    _check_keys(sim_entry, SIM_KEYS, "sim")
    sim = SimParams(
        dt=_num(sim_entry, "dt", "sim", default=0.1),
        horizon_steps=_count(sim_entry, "horizon_steps", "sim", default=80),
        replan_every=_count(sim_entry, "replan_every", "sim", default=5),
        v_max=_num(sim_entry, "v_max", "sim", default=30.0),
    )
    if sim.horizon_steps < 1:
        raise ScenarioError("sim.horizon_steps: must be >= 1")
    if sim.dt <= 0:
        raise ScenarioError("sim.dt: must be > 0")
    if sim.replan_every < 1:
        raise ScenarioError("sim.replan_every: must be >= 1")
    if sim.v_max <= 0:
        raise ScenarioError("sim.v_max: must be > 0")

    return Scenario(
        scenario_id=scenario_id,
        map=map_model,
        agents=agents,
        ego_goal=ego_goal,
        goal_domains=domains,
        sim=sim,
    )


def load_scenario_file(path: str) -> Scenario:
    text = read_text(path)
    scenario_id = os.path.splitext(os.path.basename(path))[0]
    return load_scenario(text, scenario_id=scenario_id)


PRESET_NAMES = ("front", "front_right", "behind")


def preset_path(name: str) -> str:
    """Path of one of the shipped scenario presets."""
    if name not in PRESET_NAMES:
        raise ScenarioError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")
    return str(resources.files("avstress").joinpath(f"presets/{name}.yaml"))


def load_preset(name: str) -> Scenario:
    """Load one of the shipped scenario presets by name."""
    return load_scenario_file(preset_path(name))


def prompt_to_world(domain: GoalDomain, u: Tuple[float, float], map_model: MapModel) -> Point2:
    """Map a unit-square prompt to a world-frame goal point.

    Affine map onto the domain's (s, l) rectangle, then placement on the
    reference lane centerline.
    """
    u1, u2 = float(u[0]), float(u[1])
    if not (0.0 <= u1 <= 1.0 and 0.0 <= u2 <= 1.0):
        raise ValueError(f"prompt {u} outside the unit square")
    s = domain.s_min + u1 * (domain.s_max - domain.s_min)
    l = domain.l_min + u2 * (domain.l_max - domain.l_min)
    lane = map_model.lanes[domain.reference_lane]
    return Point2(*point_at_arclength(lane.centerline, s, l))
