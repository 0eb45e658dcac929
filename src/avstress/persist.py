"""On-disk campaign layout and (de)serialization.

The one module that names the files of a campaign directory:
    manifest.json     run manifest, written before the first episode; its
                      sampler block is `run`'s sampler flags (kind,
                      budget, beta, candidates), for either sampler
    scenario.yaml     verbatim copy of the scenario config
    campaign.jsonl    one record per episode (prompt, goal, score, metrics)
    episodes/ep_NNNN.jsonl   per-episode traces, named by `episode_file`
    stats.csv         one aggregate row: scenario, sampler, then the
                      fields of `CampaignStats`

All writes use deterministic JSON (sorted keys, default float repr), so a
rerun with the same inputs reproduces every file byte for byte. `write_csv`
is the one CSV writer: it writes `stats.csv`, a `report --csv` file and
`export-gp`'s gp_grid.csv and gp_samples.csv. A path that cannot be made,
removed or opened to write raises an InputError that names it.

`run` writes its episode files and `campaign.jsonl` lines through the
`EpisodeWriter` that `prepare_campaign` returns. Where the campaign may run
on 2 CPUs or more, a helper process forked at the first episode writes the
episode files (`fit_helper.Helper`): the campaign's process builds each
episode's header, plain trace values and log line, sends what the file
needs, and appends the line once the helper confirms the file. Whatever
the helper does not confirm, the campaign's process writes itself, in
order. It writes the manifest, the scenario copy and `stats.csv` itself.
"""
from __future__ import annotations

import errno
import glob
import json
import os
import shutil
import stat
import sys
from collections import deque
from dataclasses import astuple, fields
from math import isfinite
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__ as TOOL_VERSION
from . import fit_helper
from .geom import Point2
from .metrics import CampaignStats
from .optimizer import EpisodeRecord
from .scenario import InputError, Scenario, read_text
from .sim import AgentState, Episode, JointState, _find_collision, initial_joint_state

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


# the files of a campaign directory, named nowhere else
MANIFEST, SCENARIO_COPY, CAMPAIGN_LOG = "manifest.json", "scenario.yaml", "campaign.jsonl"
EPISODES_DIR, STATS_CSV, GP_FILES = "episodes", "stats.csv", ("gp_grid.csv", "gp_samples.csv")


def _writing(call, *args, **kwargs):
    """call(*args, **kwargs), with its OSError an InputError naming the path."""
    try:
        return call(*args, **kwargs)
    except OSError as exc:
        raise InputError(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)) from exc


def check_writable(path: str) -> None:
    """The InputError that opening `path` to write raises when it is a
    directory or its directory cannot be reached, raised without opening it,
    so a command can fail before its slow part and leave no file behind."""
    if os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:  # stat's error for the directory, or ENOTDIR if it is not one
            if stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
                return
            code = errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    raise InputError(f"{path}: {os.strerror(code)}")


def prepare_campaign(out_root: str, scenario: Scenario, scenario_path: str, sampler: dict):
    """Make `<out_root>/<scenario id>_<kind>/episodes`, clear the earlier
    campaign there, copy the scenario and write the manifest; return the
    directory and the `EpisodeWriter` of its episodes and log, which is open
    for writing. Only a path that cannot be made raises before anything is
    written or deleted."""
    out_dir = os.path.join(out_root, f"{scenario.scenario_id}_{sampler['kind']}")
    episodes_dir = os.path.join(out_dir, EPISODES_DIR)
    _writing(os.makedirs, episodes_dir, exist_ok=True)
    # this run replaces any earlier campaign in the directory, and the GP
    # grid and samples that `export-gp` made from it
    stale = glob.glob(os.path.join(glob.escape(episodes_dir), "ep_*.jsonl"))
    stale += (os.path.join(out_dir, name) for name in (STATS_CSV, *GP_FILES))
    for path in filter(os.path.lexists, stale):
        _writing(os.remove, path)
    scenario_copy = os.path.join(out_dir, SCENARIO_COPY)
    # a rerun from the campaign's own copy has nothing to copy
    if not (os.path.exists(scenario_copy) and os.path.samefile(scenario_path, scenario_copy)):
        _writing(shutil.copyfile, scenario_path, scenario_copy)
    write_manifest(out_dir, scenario_path, sampler)
    log = _writing(open, os.path.join(out_dir, CAMPAIGN_LOG), "w")
    return out_dir, EpisodeWriter(out_dir, log, scenario)


def find_scenario_copy(episode_file: str) -> str:
    """The scenario copy of the episode's campaign: in the episode file's
    directory, or in its parent, the campaign of an `episode_file` path."""
    d = os.path.dirname(os.path.abspath(episode_file))
    for campaign_dir in (d, os.path.dirname(d)):
        candidate = os.path.join(campaign_dir, SCENARIO_COPY)
        if os.path.exists(candidate):
            return candidate
    raise InputError(f"no {SCENARIO_COPY} found near '{episode_file}'")


def write_manifest(out_dir: str, scenario_path: str, sampler: dict) -> None:
    manifest = {
        "scenario_file": os.path.basename(scenario_path),
        "sampler": sampler,
        "tool_version": TOOL_VERSION,
        "conventions": {"ttc": TTC_CONVENTION},
    }
    with _writing(open, os.path.join(out_dir, MANIFEST), "w") as fh:
        fh.write(_dump(manifest) + "\n")


def read_manifest(path: str) -> dict:
    """The manifest `write_manifest` wrote. Invalid JSON, or a scenario_file
    or sampler kind that is not a string, raises an InputError that starts
    with `path:`."""
    text = read_text(path)
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise InputError(f"{path}: manifest is not a JSON object")
    scenario_file, sampler = manifest.get("scenario_file"), manifest.get("sampler")
    if not isinstance(scenario_file, str):
        raise InputError(f"{path}: scenario_file is not a string: {scenario_file!r}")
    kind = sampler.get("kind") if isinstance(sampler, dict) else None
    if not isinstance(kind, str):
        raise InputError(f"{path}: sampler kind is not a string: {kind!r}")
    return manifest


def episode_file(iteration: int) -> str:
    """The path of an episode's file, relative to its campaign directory."""
    return f"{EPISODES_DIR}/ep_{iteration:04d}.jsonl"


def write_episode(
    path: str, episode: Episode, goals: Dict[str, Point2], scenario: Scenario
) -> None:
    """The episode file: a header (the scenario's id and dt, the goals the
    episode was run with, and how it ended), then one line per trace step."""
    _write_episode(path, _header(episode, goals, scenario), _rows(episode.trace))


def _header(episode: Episode, goals: Dict[str, Point2], scenario: Scenario) -> dict:
    return {
        "type": "header",
        "scenario_id": scenario.scenario_id,
        "dt": scenario.sim.dt,
        "goals": {aid: [g.x, g.y] for aid, g in goals.items()},
        "collision": _collision_record(episode.collision),
        "failed": episode.failed,
        "failure_reason": episode.failure_reason,
    }


def _rows(trace: List[JointState]) -> list:
    """The trace's plain values, one (t, [(id, heading, speed, x, y), ...])
    per step, which is all `_trace_line` reads."""
    return [(joint.timestep, [(aid, s.heading, s.speed, s.position.x, s.position.y)
                              for aid, s in joint.states.items()])
            for joint in trace]


def _write_episode(path: str, header: dict, rows: list) -> None:
    """The file of a header and a trace's rows; every line is formatted
    before the file is opened, so a value that cannot be written leaves no
    file."""
    text = "\n".join([_dump(header), *map(_trace_line, rows)]) + "\n"
    with _writing(open, path, "w") as fh:
        fh.write(text)


def _collision_record(collision) -> Optional[dict]:
    """An Episode's collision (t, pair) as the header holds it."""
    return {"t": collision[0], "pair": list(collision[1])} if collision else None


def _trace_line(row) -> str:
    """One trace line from a row of `_rows`, byte for byte what
    json.dumps(sort_keys=True) writes for its joint state: agent ids sorted
    and quoted as json quotes a key, each value written by float.__repr__
    as json writes a float.

    The simulator writes finite floats at int steps. A step that is not an
    int raises a TypeError, a value that is not finite a ValueError, and a
    value that is not a float the TypeError of float.__repr__.
    """
    t, states = row
    if type(t) is not int:
        raise TypeError(f"timestep is not an int: {t!r}")
    parts = []
    # ids are unique, so the sort compares nothing but them
    for aid, heading, speed, x, y in sorted(states):
        part = (
            f'{_quote(aid)}: {{"heading": {_float_repr(heading)}, '
            f'"speed": {_float_repr(speed)}, "x": {_float_repr(x)}, "y": {_float_repr(y)}}}'
        )
        if not (isfinite(x) and isfinite(y) and isfinite(heading) and isfinite(speed)):
            raise ValueError(f"non-finite value in the state of {aid!r} at t={t}")
        parts.append(part)
    return f'{{"agents": {{{", ".join(parts)}}}, "t": {t}}}'


class EpisodeWriter:
    """`run`'s writer of a campaign's episode files, their `campaign.jsonl`
    lines and the warnings of failed episodes, in the order of the episodes.

    `write` hands each episode file to the writer's `fit_helper.Helper`, to
    write with `_write_episode`: the episode's path, header and trace's
    plain values (`_rows`). It keeps them with the episode's log line until
    the helper confirms the file, then appends and flushes the line and
    prints the warning of an episode that failed. The campaign's process
    never waits for a write: a full pipe is the only backpressure.

    This process writes, in order, whatever the helper did not confirm:
    every episode where the campaign may use only one CPU, and the rest after
    a write that raised, after the helper died or did not reply within
    `fit_helper.HELPER_EXIT_S`, or when the writer's `with` block raised,
    which kills the helper. A write that raises here is where a serial loop
    stops, so nothing after it is written: the files, the lines and stderr
    are those of one process. Leaving the block waits for the helper's
    replies, so every episode is written and logged when it returns.
    """

    def __init__(self, out_dir: str, log, scenario: Scenario):
        self.out_dir, self.log, self.scenario = out_dir, log, scenario
        self.helper = fit_helper.Helper()
        # (iteration, path, header, rows, log line) of each episode that the
        # helper has not confirmed, in order
        self.pending = deque()

    def __enter__(self):
        return self

    def write(self, record: EpisodeRecord, episode: Episode) -> None:
        ep_file = episode_file(record.iteration)
        path = os.path.join(self.out_dir, ep_file)
        header, rows = _header(episode, record.goals_world, self.scenario), _rows(episode.trace)
        line = campaign_record_to_json(record, ep_file) + "\n"
        self.pending.append((record.iteration, path, header, rows, line))
        if not self.helper.send(_write_episode, path, header, rows):
            self._write_pending()
        # one reply at most: the helper sends one per episode
        elif self.helper.conn.poll(0):
            self._confirm()

    def _confirm(self, timeout: Optional[float] = None) -> None:
        """Read the helper's reply to the oldest episode it has not
        confirmed: log the episode if the file is written, else write it
        and every later one here."""
        if self.helper.receive(timeout)[0]:
            iteration, _, header, _, line = self.pending.popleft()
            self._log(iteration, header, line)
        else:
            self._write_pending()

    def _log(self, iteration: int, header: dict, line: str) -> None:
        self.log.write(line)
        self.log.flush()
        if header["failed"]:
            print(f"warning: episode {iteration} failed: {header['failure_reason']}",
                  file=sys.stderr)

    def _write_pending(self) -> None:
        """Write the episodes the helper did not confirm, in order, in this
        process; those after one that raises are dropped."""
        pending, self.pending = self.pending, deque()
        for iteration, path, header, rows, line in pending:
            _write_episode(path, header, rows)
            self._log(iteration, header, line)

    def __exit__(self, exc_type, *_) -> None:
        with self.log:
            if exc_type is not None:
                self.helper.close(kill=True)
            with self.helper:
                while self.pending and self.helper.process is not None:
                    self._confirm(fit_helper.HELPER_EXIT_S)
            self._write_pending()


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


def _number(name: str, v) -> float:
    """`v` as a float, if it is a JSON number: an int or a float, not a bool.
    Together with Point2 and AgentState, which refuse a value that is not
    finite, and float(), which refuses an int beyond the float range, this
    is the rule `_finite` states."""
    if type(v) is float:
        return v
    if type(v) is not int:
        raise TypeError(f"{name} is not a number: {v!r}")
    return float(v)


def _header_fields(header, scenario: Scenario) -> dict:
    """What `_episode` reads of a decoded header record, its collision as
    decoded. A field that is not what `write_episode` writes, the goals and
    scenario id included, or a dt that is not the scenario's, raises a
    KeyError, an OverflowError, a TypeError or a ValueError."""
    if not isinstance(header, dict) or header.get("type") != "header":
        raise ValueError("first record is not a header")
    goals = header.get("goals", {})
    if not isinstance(goals, dict):
        raise ValueError("goals is not an object")
    for aid, g in goals.items():
        if not (isinstance(g, list) and len(g) == 2):
            raise ValueError(f"goal of '{aid}' is not two numbers: {g!r}")
        Point2(*(_number(f"goal of '{aid}'", c) for c in g))
    dt = header.get("dt")
    if "dt" in header and not _finite(dt):
        raise ValueError(f"dt is not a finite number: {dt!r}")
    # the metrics compute TTC in steps of the scenario's sim.dt
    if "dt" in header and dt != scenario.sim.dt:
        raise ValueError(f"dt {dt} is not the scenario's sim.dt {scenario.sim.dt}")
    failed = header.get("failed", False)
    if not isinstance(failed, bool):
        raise ValueError(f"failed is not a bool: {failed!r}")
    for name in ("scenario_id", "failure_reason"):
        value = header.get(name, "")
        if not isinstance(value, str):
            raise ValueError(f"{name} is not a string: {value!r}")
    return {"collision": header.get("collision"), "failed": failed,
            "failure_reason": header.get("failure_reason", "")}


def _episode(trace: List[JointState], fields: dict, scenario: Scenario) -> Episode:
    """The episode of a trace of steps 0, 1, ... that starts at the
    scenario's initial state, and its header's fields, if `simulate_episode`
    can end it so. It stops at the first step on which `_find_collision`
    finds an overlap, which the scenario rules out at t=0, at the horizon T,
    or when the planner or a policy fails before T. So a failed episode has
    1 to T steps and no overlap, one that did not fail T+1 steps or fewer
    ending at an overlap, and the header's collision is that overlap, at the
    last step, or null. Others raise a ValueError."""
    if not trace:
        raise ValueError("trace has no steps")
    T, t, failed = scenario.sim.horizon_steps, len(trace) - 1, fields["failed"]
    pair = _find_collision(trace[-1], scenario)
    ends = f"; this one ends at t={t}" + (" on a collision" if pair else "")
    if failed and (t >= T or pair):
        raise ValueError(f"a failed episode ends before t={T} and not on a collision{ends}")
    if not failed and t != T and not pair:
        raise ValueError(f"an episode that did not fail ends at t={T} or on a collision{ends}")
    collision = (t, pair) if pair else None
    # compared as JSON, so that a step of 1.0 or true is not step 1
    written = json.dumps(fields["collision"], sort_keys=True)
    found = _dump(_collision_record(collision))
    if written != found:
        raise ValueError(f"collision is {written}; the simulator finds {found} at the last step")
    return Episode(trace, collision, failed, fields["failure_reason"])


def read_episode(path: str, scenario: Scenario) -> Episode:
    """Parse an episode JSONL file that `scenario` ran. A file that cannot
    be read as one, whose dt or agent ids are not the scenario's, whose
    steps are not 0, 1, ..., whose step 0 is not the scenario's initial
    state, or that the simulator cannot have written (see `_episode`),
    raises an InputError that starts with `path:lineno:`."""
    # read() ends lines in "\n" alone, as read_campaign_log splits them
    lines = read_text(path).split("\n")
    try:
        fields = _header_fields(json.loads(lines[0]), scenario)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}:1: {exc}") from exc
    start = initial_joint_state(scenario).states
    trace = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.isspace():
            continue
        try:
            rec = _loads(line)
            agents, t = rec["agents"], rec["t"]
            if type(t) is not int:
                raise TypeError(f"step is not an integer: {t!r}")
            if t != len(trace):
                raise ValueError(f"t={t} is not the trace's step {len(trace)}")
            # agents that are not an object raise the AttributeError of .items()
            items = agents.items()
            if agents.keys() != start.keys():
                raise ValueError(f"agents {sorted(agents)} are not the scenario's agents"
                                 f" {sorted(start)}")
            states = {}
            for aid, s in items:
                x, y, heading, speed = s["x"], s["y"], s["heading"], s["speed"]
                # every value `write_episode` writes is a float
                if not (type(x) is type(y) is type(heading) is type(speed) is float):
                    x, y, heading, speed = (
                        _number(k, s[k]) for k in ("x", "y", "heading", "speed"))
                states[aid] = AgentState(Point2(x, y), heading, speed)
            if t == 0 and states != start:
                aid = next(aid for aid in sorted(start) if states[aid] != start[aid])
                raise ValueError(
                    f"the state of '{aid}' at t=0 is not the scenario's initial state")
            trace.append(JointState(t, states))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    try:
        return _episode(trace, fields, scenario)
    except ValueError as exc:
        raise InputError(f"{path}:1: {exc}") from exc


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
    or whose `episode_file` is not a string, raises an InputError that starts
    with `path:lineno:`. So does a record that is not what `run` writes: a
    failed episode with a score, or one that did not fail with no score or
    no episode file."""
    records = []
    # read() ends lines in "\n" alone, as iterating over the file does
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if not isinstance(record, dict):
            raise InputError(f"{path}:{lineno}: record is not a JSON object")
        u, score = record.get("u"), record.get("score")
        failed, episode_file = record.get("failed"), record.get("episode_file")
        if not (isinstance(u, list) and all(map(_finite, u))):
            raise InputError(f"{path}:{lineno}: u is not a list of finite numbers: {u!r}")
        if not (score is None or _finite(score)):
            raise InputError(f"{path}:{lineno}: score is not a finite number: {score!r}")
        if not isinstance(failed, bool):
            raise InputError(f"{path}:{lineno}: failed is not a bool: {failed!r}")
        if not isinstance(episode_file, str):
            raise InputError(
                f"{path}:{lineno}: episode_file is not a string: {episode_file!r}")
        if failed and score is not None:
            raise InputError(f"{path}:{lineno}: failed episode has a score: {score!r}")
        if not failed and (score is None or not episode_file):
            missing = "episode_file" if score is not None else "score"
            raise InputError(f"{path}:{lineno}: episode that did not fail has no {missing}")
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
    with _writing(open, path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_stats_csv(path: str, rows: Iterable[Tuple[str, str, CampaignStats]]) -> None:
    """stats.csv: one row per (scenario id, sampler kind, stats)."""
    write_csv(path, STATS_COLUMNS, [(sid, kind, *astuple(stats)) for sid, kind, stats in rows])
