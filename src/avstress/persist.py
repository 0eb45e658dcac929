"""On-disk campaign layout and (de)serialization.

A campaign directory contains:
    manifest.json     run manifest, written before the first episode; its
                      sampler block is `run`'s sampler flags (kind,
                      budget, beta, candidates), for either sampler
    scenario.yaml     verbatim copy of the scenario config
    campaign.jsonl    one record per episode (prompt, goal, score, metrics)
    episodes/ep_NNNN.jsonl   per-episode traces
    stats.csv         one aggregate row: scenario, sampler, then the
                      fields of `CampaignStats`

All writes use deterministic JSON (sorted keys, default float repr), so a
rerun with the same inputs reproduces every file byte for byte. `write_csv`
is the one CSV writer: it writes `stats.csv`, a `report --csv` file and the
two files of `export-gp`.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import astuple, fields
from math import isfinite
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__ as TOOL_VERSION
from .geom import Point2
from .metrics import CampaignStats
from .optimizer import EpisodeRecord
from .scenario import Scenario
from .sim import AgentState, Episode, JointState

TTC_CONVENTION = (
    "per-step centre distance minus half the two body lengths, over its"
    " forward-difference closing speed"
)

STATS_COLUMNS = ",".join(["scenario", "sampler"] + [f.name for f in fields(CampaignStats)])


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)


# how json writes a str key and a float value
_quote = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__


def _opt(value: float) -> Optional[float]:
    return value if isfinite(value) else None


def write_manifest(out_dir: str, scenario_path: str, sampler: dict) -> None:
    manifest = {
        "scenario_file": os.path.basename(scenario_path),
        "sampler": sampler,
        "tool_version": TOOL_VERSION,
        "conventions": {"ttc": TTC_CONVENTION},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(_dump(manifest) + "\n")


def read_manifest(path: str) -> dict:
    """The manifest `write_manifest` wrote. Invalid JSON, or a scenario_file
    or sampler kind that is not a string, raises a ValueError that starts
    with `path:`."""
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    scenario_file, sampler = manifest.get("scenario_file"), manifest.get("sampler")
    if not isinstance(scenario_file, str):
        raise ValueError(f"{path}: scenario_file is not a string: {scenario_file!r}")
    kind = sampler.get("kind") if isinstance(sampler, dict) else None
    if not isinstance(kind, str):
        raise ValueError(f"{path}: sampler kind is not a string: {kind!r}")
    return manifest


def write_episode(
    path: str, episode: Episode, goals: Dict[str, Point2], scenario: Scenario
) -> None:
    """The episode file: a header (the scenario's id and dt, the goals the
    episode was run with, and how it ended), then one line per trace step."""
    header = {
        "type": "header",
        "scenario_id": scenario.scenario_id,
        "dt": scenario.sim.dt,
        "goals": {aid: [g.x, g.y] for aid, g in goals.items()},
        "collision": (
            {"t": episode.collision[0], "pair": list(episode.collision[1])}
            if episode.collision
            else None
        ),
        "failed": episode.failed,
        "failure_reason": episode.failure_reason,
    }
    lines = [_dump(header)]
    lines += map(_trace_line, episode.trace)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _trace_line(joint: JointState) -> str:
    """One trace line, byte for byte what json.dumps(sort_keys=True) writes
    for it: agent ids sorted and quoted as json quotes a key, each value
    written by float.__repr__ as json writes a float.

    The simulator writes finite floats at int steps. A step that is not an
    int raises a TypeError, a value that is not finite a ValueError, and a
    value that is not a float the TypeError of float.__repr__.
    """
    states = joint.states
    t = joint.timestep
    if type(t) is not int:
        raise TypeError(f"timestep is not an int: {t!r}")
    parts = []
    for aid in sorted(states):
        s = states[aid]
        x, y, heading, speed = s.position.x, s.position.y, s.heading, s.speed
        part = (
            f'{_quote(aid)}: {{"heading": {_float_repr(heading)}, '
            f'"speed": {_float_repr(speed)}, "x": {_float_repr(x)}, "y": {_float_repr(y)}}}'
        )
        if not (isfinite(x) and isfinite(y) and isfinite(heading) and isfinite(speed)):
            raise ValueError(f"non-finite value in the state of {aid!r} at t={t}")
        parts.append(part)
    return f'{{"agents": {{{", ".join(parts)}}}, "t": {t}}}'


# json.loads's own decoder, without the checks json.loads makes around it
_raw_decode = json.JSONDecoder().raw_decode


def _loads(line: str):
    """json.loads(line), by a shorter path for a line that is one JSON value
    and nothing else, which is every line `write_episode` writes. On any
    other line (whitespace, a BOM, extra data or no JSON at all) it calls
    json.loads, so the result or the error is the one json.loads gives."""
    try:
        obj, end = _raw_decode(line)
    except ValueError:
        return json.loads(line)
    return obj if end == len(line) else json.loads(line)


def _header_fields(header) -> dict:
    """The Episode fields of a decoded header record. A field that is not
    what `write_episode` writes, the goals and scenario id included, raises
    a KeyError, an OverflowError, a TypeError or a ValueError."""
    if not isinstance(header, dict) or header.get("type") != "header":
        raise ValueError("first record is not a header")
    goals = header.get("goals", {})
    if not isinstance(goals, dict):
        raise ValueError("goals is not an object")
    for aid, g in goals.items():
        if not (isinstance(g, list) and len(g) == 2):
            raise ValueError(f"goal of '{aid}' is not two numbers: {g!r}")
        Point2(float(g[0]), float(g[1]))  # refuses a value that is not finite
    collision = header.get("collision")
    if collision:
        if not isinstance(collision, dict):
            raise ValueError("collision is not an object")
        t, pair = int(collision["t"]), collision["pair"]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(aid, str) for aid in pair)):
            raise ValueError(f"collision pair is not two agent ids: {pair!r}")
        collision = (t, tuple(pair))
    failed = header.get("failed", False)
    if not isinstance(failed, bool):
        raise ValueError(f"failed is not a bool: {failed!r}")
    for name in ("scenario_id", "failure_reason"):
        value = header.get(name, "")
        if not isinstance(value, str):
            raise ValueError(f"{name} is not a string: {value!r}")
    return {"collision": collision or None, "failed": failed,
            "failure_reason": header.get("failure_reason", "")}


def read_episode(path: str) -> Episode:
    """Parse an episode JSONL file. A file that cannot be read as one raises
    a ValueError that starts with `path:lineno:`."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty episode file")
    try:
        fields = _header_fields(json.loads(lines[0]))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}:1: {exc}") from exc
    trace = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.isspace():
            continue
        try:
            rec = _loads(line)
            states = {
                aid: AgentState(
                    Point2(float(s["x"]), float(s["y"])),
                    float(s["heading"]),
                    float(s["speed"]),
                )
                for aid, s in rec["agents"].items()
            }
            trace.append(JointState(int(rec["t"]), states))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return Episode(trace=trace, **fields)


def campaign_record_to_json(record: EpisodeRecord, episode_file: str) -> str:
    goals = {aid: [g.x, g.y] for aid, g in record.goals_world.items()}
    goal_world = next(iter(goals.values())) if len(goals) == 1 else goals
    m = record.metrics
    return _dump(
        {
            "iter": record.iteration,
            "u": list(record.prompt),
            "goal_world": goal_world,
            "score": _opt(record.score),
            "collided": bool(m.collided) if m else False,
            "min_dist": m.min_dist if m else None,
            "ttc_min": _opt(m.ttc_min) if m else None,
            "episode_file": episode_file,
            "failed": record.failed,
        }
    )


def _finite(v) -> bool:
    # json reads NaN, Infinity and 1e400 as floats that are not finite; the
    # comparison also rejects an int beyond the float range
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def read_campaign_log(path: str) -> List[dict]:
    """The records of a campaign.jsonl file. A line that is not a JSON
    object, or a record whose `u` is not a list of finite numbers, whose
    score is neither a finite number nor null, whose `failed` is not a bool
    or whose `episode_file` is not a string, raises a ValueError that starts
    with `path:lineno:`. So does a record that is not what `run` writes: a
    failed episode with a score, or one that did not fail with no score or
    no episode file."""
    records = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record is not a JSON object")
            u, score = record.get("u"), record.get("score")
            failed, episode_file = record.get("failed"), record.get("episode_file")
            if not (isinstance(u, list) and all(map(_finite, u))):
                raise ValueError(f"{path}:{lineno}: u is not a list of finite numbers: {u!r}")
            if not (score is None or _finite(score)):
                raise ValueError(f"{path}:{lineno}: score is not a finite number: {score!r}")
            if not isinstance(failed, bool):
                raise ValueError(f"{path}:{lineno}: failed is not a bool: {failed!r}")
            if not isinstance(episode_file, str):
                raise ValueError(
                    f"{path}:{lineno}: episode_file is not a string: {episode_file!r}")
            if failed and score is not None:
                raise ValueError(f"{path}:{lineno}: failed episode has a score: {score!r}")
            if not failed and (score is None or not episode_file):
                missing = "episode_file" if score is not None else "score"
                raise ValueError(f"{path}:{lineno}: episode that did not fail has no {missing}")
            records.append(record)
    return records


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}" if isfinite(v) else "inf"


def write_csv(path: str, header: str, rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row: a str cell as it is, an int by
    str, a finite float at 6 significant digits, any other float as inf."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_stats_csv(path: str, rows: Iterable[Tuple[str, str, CampaignStats]]) -> None:
    """stats.csv: one row per (scenario id, sampler kind, stats)."""
    write_csv(path, STATS_COLUMNS, [(sid, kind, *astuple(stats)) for sid, kind, stats in rows])
