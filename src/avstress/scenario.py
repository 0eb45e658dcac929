"""Static scene description: map, agents, goals, and the goal-prompt domain.

Scenarios are loaded from YAML config files (see presets/ for the shipped
examples) and validated up front so the search loop never has to deal with
malformed geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

import yaml

from .geom import Point2, Polyline, point_at_arclength, project_to_polyline
from .sobol import MAX_DIM as SOBOL_MAX_DIM


class ScenarioError(ValueError):
    """Config validation failure; message carries the offending field path."""


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

    def lane(self, lane_id: str) -> Lane:
        return self.lanes[lane_id]

    def nearest_lane(self, p: Point2) -> Tuple[Lane, float, float, float]:
        """Lane whose centerline is closest to p, with (s, l) on it.

        Returns (lane, s, l, distance). Ties resolve to config order.
        """
        best = None
        for lane in self.lanes.values():
            s, l, _ = project_to_polyline(p, lane.centerline)
            pose = point_at_arclength(lane.centerline, s)
            d = math.hypot(p.x - pose.position.x, p.y - pose.position.y)
            if best is None or d < best[3] - 1e-12:
                best = (lane, s, l, d)
        assert best is not None
        return best


@dataclass(frozen=True)
class InitialState:
    x: float
    y: float
    heading: float
    speed: float


@dataclass(frozen=True)
class AgentConfig:
    id: str
    role: str  # "ego" | "simulated"
    initial_state: InitialState
    length: float
    width: float
    v_desired: float

    @property
    def position(self) -> Point2:
        return Point2(self.initial_state.x, self.initial_state.y)


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
    dt: float = 0.1
    horizon_steps: int = 80
    replan_every: int = 5
    v_max: float = 30.0


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
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError(f"{path}.{key}: missing required field")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{path}.{key}: expected {kind}, got {type(value).__name__}")
    return value


def _num(mapping, key, path, default=None):
    if default is not None and key not in mapping:
        return float(default)
    value = _require(mapping, key, path)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}: expected a number")
    return float(value)


def _parse_lane(entry, i: int) -> Lane:
    path = f"map.lanes[{i}]"
    lane_id = str(_require(entry, "id", path))
    raw = _require(entry, "centerline", path, list)
    if len(raw) < 2:
        raise ScenarioError(f"{path}.centerline: need at least 2 vertices")
    try:
        verts = tuple(Point2(float(v[0]), float(v[1])) for v in raw)
        centerline = Polyline(verts)
    except (TypeError, IndexError, ValueError) as exc:
        raise ScenarioError(f"{path}.centerline: {exc}") from exc
    width = _num(entry, "width", path)
    if width <= 0:
        raise ScenarioError(f"{path}.width: must be > 0")
    return Lane(
        id=lane_id,
        centerline=centerline,
        width=width,
        left_neighbor=entry.get("left_neighbor"),
        right_neighbor=entry.get("right_neighbor"),
    )


def _parse_agent(entry, i: int) -> AgentConfig:
    path = f"agents[{i}]"
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
    return AgentConfig(
        id=str(_require(entry, "id", path)),
        role=role,
        initial_state=InitialState(
            x=_num(entry, "x", path),
            y=_num(entry, "y", path),
            heading=_num(entry, "heading", path, default=0.0),
            speed=speed,
        ),
        length=length,
        width=width,
        v_desired=_num(entry, "v_desired", path, default=speed),
    )


def _drivable_l_range(map_model: MapModel, lane: Lane) -> Tuple[float, float]:
    lo, hi = -lane.width / 2, lane.width / 2
    if lane.left_neighbor:
        hi += map_model.lane(lane.left_neighbor).width
    if lane.right_neighbor:
        lo -= map_model.lane(lane.right_neighbor).width
    return lo, hi


# the whole run configuration: the CLI adds only sampler and output options
TOP_LEVEL_KEYS = ("map", "agents", "ego_goal", "goal_domains", "sim")


def load_scenario(config_text: str, scenario_id: str = "scenario") -> Scenario:
    """Parse and validate a YAML scenario config."""
    try:
        doc = yaml.safe_load(config_text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("config root must be a mapping")
    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            raise ScenarioError(
                f"{key}: unknown top-level key; expected one of {', '.join(TOP_LEVEL_KEYS)}"
            )

    lane_entries = _require(_require(doc, "map", "", dict), "lanes", "map", list)
    if not lane_entries:
        raise ScenarioError("map.lanes: at least one lane required")
    lanes: Dict[str, Lane] = {}
    for i, entry in enumerate(lane_entries):
        lane = _parse_lane(entry, i)
        if lane.id in lanes:
            raise ScenarioError(f"map.lanes[{i}].id: duplicate lane id '{lane.id}'")
        lanes[lane.id] = lane
    for lane in lanes.values():
        for ref in (lane.left_neighbor, lane.right_neighbor):
            if ref is not None and ref not in lanes:
                raise ScenarioError(
                    f"map.lanes[{lane.id}]: dangling neighbor reference '{ref}'"
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
    ego_goal = Point2(_num(goal_entry, "x", "ego_goal"), _num(goal_entry, "y", "ego_goal"))

    domains: Dict[str, GoalDomain] = {}
    for i, entry in enumerate(_require(doc, "goal_domains", "", list)):
        path = f"goal_domains[{i}]"
        agent_id = str(_require(entry, "agent_id", path))
        if agent_id not in ids:
            raise ScenarioError(f"{path}.agent_id: unknown agent '{agent_id}'")
        lane_id = str(_require(entry, "lane", path))
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
        agent = next(a for a in agents if a.id == agent_id)
        s_agent, _, _ = project_to_polyline(agent.position, lane.centerline)
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
    sim = SimParams(
        dt=_num(sim_entry, "dt", "sim", default=0.1),
        horizon_steps=int(_num(sim_entry, "horizon_steps", "sim", default=80)),
        replan_every=int(_num(sim_entry, "replan_every", "sim", default=5)),
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
    with open(path, "r") as fh:
        text = fh.read()
    import os

    scenario_id = os.path.splitext(os.path.basename(path))[0]
    return load_scenario(text, scenario_id=scenario_id)


PRESET_NAMES = ("front", "front_right", "behind")


def load_preset(name: str) -> Scenario:
    """Load one of the shipped scenario presets by name."""
    if name not in PRESET_NAMES:
        raise ScenarioError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")
    text = resources.files("avstress").joinpath(f"presets/{name}.yaml").read_text()
    return load_scenario(text, scenario_id=name)


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
    lane = map_model.lane(domain.reference_lane)
    return point_at_arclength(lane.centerline, s, l).position
