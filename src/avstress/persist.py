"""On-disk campaign layout and (de)serialization.

A campaign directory contains:
    manifest.json     run manifest, written before the first episode; its
                      sampler block is the run's `SamplerConfig`
    scenario.yaml     verbatim copy of the scenario config
    campaign.jsonl    one record per episode (prompt, goal, score, metrics)
    episodes/ep_NNNN.jsonl   per-episode traces
    stats.csv         one aggregate row: scenario, sampler, then the
                      fields of `CampaignStats`

All writes use deterministic JSON (sorted keys, default float repr), so a
rerun with the same inputs reproduces every file byte for byte.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from typing import List, Optional

from .geom import Point2
from .metrics import CampaignStats
from .optimizer import EpisodeRecord, SamplerConfig
from .scenario import Scenario
from .sim import AgentState, Episode, JointState

TOOL_VERSION = "0.1.0"
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
    return value if math.isfinite(value) else None


def write_manifest(out_dir: str, scenario_path: str, cfg: SamplerConfig) -> None:
    manifest = {
        "scenario_file": os.path.basename(scenario_path),
        "sampler": asdict(cfg),
        "tool_version": TOOL_VERSION,
        "conventions": {"ttc": TTC_CONVENTION},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(_dump(manifest) + "\n")


def write_episode(path: str, episode: Episode, scenario: Scenario) -> None:
    header = {
        "type": "header",
        "scenario_id": episode.scenario_id,
        "dt": scenario.sim.dt,
        "goals": {aid: [g.x, g.y] for aid, g in episode.prompts_world.items()},
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
    """One trace line, byte for byte what `_dump` writes for it.

    When every value is a finite float and the timestep an int, the line is
    one f-string: agent ids sorted and quoted as json quotes a key, each
    value written by float.__repr__ as json writes a float. Any other line
    (a NaN or an inf, an int value, an id that is not a str) goes through
    `_dump`, which writes it or raises the error json.dumps raises.
    """
    states = joint.states
    t = joint.timestep
    try:
        if type(t) is not int:
            raise TypeError("timestep is not an int")
        parts = []
        for aid in sorted(states):
            s = states[aid]
            x, y, heading, speed = s.position.x, s.position.y, s.heading, s.speed
            # a sum of floats is finite only if every term is
            if not math.isfinite(x + y + heading + speed):
                raise ValueError("non-finite value")
            parts.append(
                f'{_quote(aid)}: {{"heading": {_float_repr(heading)}, '
                f'"speed": {_float_repr(speed)}, "x": {_float_repr(x)}, "y": {_float_repr(y)}}}'
            )
        return f'{{"agents": {{{", ".join(parts)}}}, "t": {t}}}'
    except (TypeError, ValueError):
        return _dump(
            {
                "t": t,
                "agents": {
                    aid: {
                        "x": s.position.x,
                        "y": s.position.y,
                        "heading": s.heading,
                        "speed": s.speed,
                    }
                    for aid, s in states.items()
                },
            }
        )


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
    what `write_episode` writes raises a KeyError, an OverflowError, a
    TypeError or a ValueError."""
    if not isinstance(header, dict) or header.get("type") != "header":
        raise ValueError("first record is not a header")
    goals = header.get("goals", {})
    if not isinstance(goals, dict):
        raise ValueError("goals is not an object")
    prompts = {}
    for aid, g in goals.items():
        if not (isinstance(g, list) and len(g) == 2):
            raise ValueError(f"goal of '{aid}' is not two numbers: {g!r}")
        prompts[aid] = Point2(float(g[0]), float(g[1]))
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
    fields = {"scenario_id": header.get("scenario_id", ""),
              "failure_reason": header.get("failure_reason", "")}
    for name, value in fields.items():
        if not isinstance(value, str):
            raise ValueError(f"{name} is not a string: {value!r}")
    return dict(fields, prompts_world=prompts, collision=collision or None, failed=failed)


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
    object, or a record whose `u` is not a list of finite numbers or whose
    score is neither a finite number nor null, raises a ValueError that
    starts with `path:lineno:`."""
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
            if not (isinstance(u, list) and all(map(_finite, u))):
                raise ValueError(f"{path}:{lineno}: u is not a list of finite numbers: {u!r}")
            if not (score is None or _finite(score)):
                raise ValueError(f"{path}:{lineno}: score is not a finite number: {score!r}")
            records.append(record)
    return records


def stats_csv_row(scenario_id: str, sampler: str, stats: CampaignStats) -> str:
    def fmt(v) -> str:
        if isinstance(v, int):
            return str(v)
        return f"{v:.6g}" if math.isfinite(v) else "inf"

    return ",".join([scenario_id, sampler] + [fmt(v) for v in astuple(stats)])


def write_stats_csv(path: str, rows: List[str]) -> None:
    with open(path, "w") as fh:
        fh.write(STATS_COLUMNS + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_gp_grid_csv(path: str, grid) -> None:
    """Posterior grid CSV: u1,u2,mean,variance at 6 significant digits."""
    with open(path, "w") as fh:
        fh.write("u1,u2,mean,variance\n")
        for u1, u2, mean, var in grid:
            fh.write(f"{u1:.6g},{u2:.6g},{mean:.6g},{var:.6g}\n")


def write_samples_csv(path: str, prompts, scores) -> None:
    with open(path, "w") as fh:
        fh.write("u1,u2,score\n")
        for (u1, u2), score in zip(prompts, scores):
            fh.write(f"{u1:.6g},{u2:.6g},{score:.6g}\n")
