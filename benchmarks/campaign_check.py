"""Output checker for avstress campaign directories, independent of avstress.

It reads only the files a campaign writes (manifest.json, campaign.jsonl,
episodes/*.jsonl, stats.csv) and the scenario YAML the campaign was given,
and recomputes with numpy, scipy and the standard library what the program
claims: Sobol prompts, world goals, minimum distances, scores, collisions,
kinematics and the aggregate statistics. It imports nothing from avstress,
so a fault in the program cannot hide itself from the check.

Every function returns a list of problems; an empty list means the outputs
passed. `notes` collects known, recorded faults that do not fail the check.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import warnings

import numpy as np
import yaml
from scipy.stats import qmc

ACCEL_MIN = -6.0  # strongest deceleration any agent may apply, m/s^2
TOL = 1e-9


def load_scenario_yaml(path: str) -> dict:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    lanes = {}
    for lane in doc["map"]["lanes"]:
        verts = np.asarray(lane["centerline"], dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(verts, axis=0).T))])
        lanes[lane["id"]] = (verts, cum)
    sim = {"dt": 0.1, "horizon_steps": 80, "v_max": 30.0, **doc.get("sim", {})}
    return {
        "lanes": lanes,
        "agents": doc["agents"],
        "ego": next(a["id"] for a in doc["agents"] if a["role"] == "ego"),
        "simulated": [a["id"] for a in doc["agents"] if a["role"] == "simulated"],
        "domains": {d["agent_id"]: d for d in doc["goal_domains"]},
        "sim": sim,
    }


def sobol_reference(n: int, dim: int) -> np.ndarray:
    """Points 1..n of the unscrambled Sobol sequence (point 0 is the origin)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns when n + 1 is not a power of 2
        return qmc.Sobol(dim, scramble=False).random(n + 1)[1:]


def lane_point(lane, s: float, l: float) -> np.ndarray:
    """World point at arc-length s, offset l to the left of the lane."""
    verts, cum = lane
    idx = min(int(np.searchsorted(cum, s, side="left")) - 1, len(cum) - 2)
    idx = max(idx, 0)
    seg = verts[idx + 1] - verts[idx]
    seg_len = cum[idx + 1] - cum[idx]
    t = (s - cum[idx]) / seg_len
    normal = np.array([-seg[1], seg[0]]) / seg_len
    return verts[idx] + t * seg + l * normal


def lane_coords(lane, p: np.ndarray):
    """(s, l) of the closest point of the lane centerline to p."""
    verts, cum = lane
    best = None
    for i in range(len(verts) - 1):
        seg = verts[i + 1] - verts[i]
        seg_len = cum[i + 1] - cum[i]
        t = min(1.0, max(0.0, float(np.dot(p - verts[i], seg)) / seg_len**2))
        foot = verts[i] + t * seg
        dist = float(np.hypot(*(p - foot)))
        if best is None or dist < best[0]:
            cross = seg[0] * (p - foot)[1] - seg[1] * (p - foot)[0]
            best = (dist, cum[i] + t * seg_len, cross / seg_len)
    return best[1], best[2]


def box_corners(xy: np.ndarray, heading: np.ndarray, length: float, width: float):
    """(T, 4, 2) corners of footprints at T poses."""
    c, s = np.cos(heading), np.sin(heading)
    offsets = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]]) * [0.5 * length, 0.5 * width]
    dx = offsets[None, :, 0] * c[:, None] - offsets[None, :, 1] * s[:, None]
    dy = offsets[None, :, 0] * s[:, None] + offsets[None, :, 1] * c[:, None]
    return np.stack([xy[:, None, 0] + dx, xy[:, None, 1] + dy], axis=-1)


def boxes_overlap(ca, ha, cb, hb) -> np.ndarray:
    """Separating-axis test per step over both boxes' face normals; touching
    counts as overlap. ca, cb: (T, 4, 2) corners; ha, hb: (T,) headings."""
    overlap = np.ones(len(ca), dtype=bool)
    for h in (ha, hb):
        for axis in (np.stack([np.cos(h), np.sin(h)], -1), np.stack([-np.sin(h), np.cos(h)], -1)):
            pa = np.einsum("tkc,tc->tk", ca, axis)
            pb = np.einsum("tkc,tc->tk", cb, axis)
            separated = (pa.max(1) < pb.min(1)) | (pb.max(1) < pa.min(1))
            overlap &= ~separated
    return overlap


def first_overlap_step(states: dict, scen: dict):
    """First trace step at which any two footprints overlap, or None."""
    sizes = {a["id"]: (a["length"], a["width"]) for a in scen["agents"]}
    ids = [a["id"] for a in scen["agents"]]
    corners = {aid: box_corners(states[aid][:, :2], states[aid][:, 2], *sizes[aid]) for aid in ids}
    hits = np.zeros(len(states[ids[0]]), dtype=bool)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            hits |= boxes_overlap(corners[a], states[a][:, 2], corners[b], states[b][:, 2])
    found = np.flatnonzero(hits)
    return int(found[0]) if len(found) else None


def read_episode(path: str):
    """Header dict and {agent_id: (T, 4) array of x, y, heading, speed}."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    header, steps = lines[0], lines[1:]
    if [rec["t"] for rec in steps] != list(range(len(steps))):
        raise ValueError(f"{path}: trace steps are not 0..{len(steps) - 1}")
    states = {
        aid: np.array([[rec["agents"][aid][k] for k in ("x", "y", "heading", "speed")]
                       for rec in steps])
        for aid in steps[0]["agents"]
    }
    return header, states


def record_goals(record: dict, scen: dict) -> dict:
    goal = record["goal_world"]
    if isinstance(goal, list):
        return {scen["simulated"][0]: goal}
    return goal


def check_episode(record: dict, campaign_dir: str, scen: dict) -> list:
    """Problems with one campaign record and the trace it points to."""
    it = record["iter"]
    problems = []
    header, states = read_episode(os.path.join(campaign_dir, record["episode_file"]))
    ego, sims, sim = scen["ego"], scen["simulated"], scen["sim"]
    dt, v_max = header["dt"], sim["v_max"]
    if set(states) != {a["id"] for a in scen["agents"]}:
        problems.append(f"iter {it}: trace agents {sorted(states)} differ from the scenario")
        return problems

    goals = record_goals(record, scen)
    for aid, goal in goals.items():
        if header["goals"].get(aid) != goal:
            problems.append(f"iter {it}: trace goal of '{aid}' differs from the log")

    dists = np.concatenate([
        np.hypot(*(states[ego][1:, :2] - states[aid][1:, :2]).T) for aid in sims
    ])
    min_dist = float(dists.min())
    if not math.isclose(record["min_dist"], min_dist, rel_tol=TOL, abs_tol=TOL):
        problems.append(f"iter {it}: min_dist {record['min_dist']} != recomputed {min_dist}")
    if not math.isclose(record["score"], -min_dist, rel_tol=TOL, abs_tol=TOL):
        problems.append(f"iter {it}: score {record['score']} != -min_dist {-min_dist}")

    last = len(states[ego]) - 1
    first = first_overlap_step(states, scen)
    if record["collided"]:
        if first != last:
            problems.append(f"iter {it}: collided, but footprints first overlap at {first}, "
                            f"not at the last step {last}")
        if not header["collision"] or header["collision"]["t"] != last:
            problems.append(f"iter {it}: trace header collision {header['collision']} "
                            f"does not name step {last}")
    else:
        if first is not None:
            problems.append(f"iter {it}: not collided, but footprints overlap at step {first}")
        if last != sim["horizon_steps"] or header["collision"] is not None:
            problems.append(f"iter {it}: collision-free episode stops at step {last}")

    for aid, st in states.items():
        speed = st[:, 3]
        if speed.min() < -TOL or speed.max() > v_max + TOL:
            problems.append(f"iter {it}: '{aid}' speed outside [0, {v_max}]")
        if np.any(np.abs(np.diff(speed)) > -ACCEL_MIN * dt + TOL):
            problems.append(f"iter {it}: '{aid}' speed changes by more than "
                            f"{-ACCEL_MIN * dt:.2f} m/s in one step")
        moved = np.hypot(*np.diff(st[:, :2], axis=0).T)
        if not np.allclose(moved, speed[:-1] * dt, rtol=TOL, atol=TOL):
            problems.append(f"iter {it}: '{aid}' moves other than its speed x dt")
    return problems


def check_prompts(log: list, kind: str, scen: dict) -> list:
    problems = []
    dim = 2 * len(scen["simulated"])
    prompts = np.array([rec["u"] for rec in log], dtype=float)
    if prompts.shape != (len(log), dim):
        return [f"prompts have shape {prompts.shape}, expected ({len(log)}, {dim})"]
    ref = sobol_reference(len(log), dim)
    n_sobol = len(log) if kind == "sobol" else min(2, len(log))
    for i in np.flatnonzero(np.any(prompts[:n_sobol] != ref[:n_sobol], axis=1)):
        problems.append(f"iter {i}: prompt {prompts[i].tolist()} != Sobol point {i + 1}")
    if prompts.min() < 0.0 or prompts.max() > 1.0:
        problems.append("a prompt lies outside the unit cube")

    for rec in log:
        goals = record_goals(rec, scen)
        for k, aid in enumerate(scen["simulated"]):
            dom = scen["domains"][aid]
            lane = scen["lanes"][dom["lane"]]
            u1, u2 = rec["u"][2 * k], rec["u"][2 * k + 1]
            s = dom["s_min"] + u1 * (dom["s_max"] - dom["s_min"])
            l = dom["l_min"] + u2 * (dom["l_max"] - dom["l_min"])
            goal = np.asarray(goals[aid], dtype=float)
            if np.hypot(*(goal - lane_point(lane, s, l))) > TOL:
                problems.append(
                    f"iter {rec['iter']}: goal of '{aid}' is not the image of its prompt")
            gs, gl = lane_coords(lane, goal)
            if not (dom["s_min"] - TOL <= gs <= dom["s_max"] + TOL
                    and dom["l_min"] - TOL <= gl <= dom["l_max"] + TOL):
                problems.append(f"iter {rec['iter']}: goal of '{aid}' lies outside its domain")
    return problems


def _fmt(v: float) -> str:
    return "inf" if not math.isfinite(v) else f"{v:.6g}"


def expected_stats_row(log: list, manifest: dict) -> list:
    """The stats.csv columns that follow from the log alone (ASD excepted)."""
    good = [rec for rec in log if not rec["failed"]]
    min_dists = [rec["min_dist"] for rec in good]
    ttc = [rec["ttc_min"] for rec in good if rec["ttc_min"] is not None]
    n = len(good)
    return [
        manifest["sampler"]["kind"],
        str(n),
        _fmt(100.0 * sum(rec["collided"] for rec in good) / n),
        _fmt(statistics.mean(min_dists)),
        _fmt(statistics.stdev(min_dists)),
        _fmt(statistics.mean(ttc) if ttc else math.inf),
        _fmt(statistics.stdev(ttc) if len(ttc) > 1 else 0.0),
        str(n - len(ttc)),
    ]


def read_stats_rows(path: str) -> list:
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


def read_stats_row(path: str) -> list:
    rows = read_stats_rows(path)
    if len(rows) != 1:
        raise ValueError(f"{path}: expected a header and one row")
    return rows[0]


def check_campaign(campaign_dir: str, scenario_path: str, kind: str, budget: int) -> list:
    """Problems with one campaign directory, given the inputs it was run on.
    Failed episodes are not problems (the benchmark counts them apart), but
    their records must still hold their prompts."""
    scen = load_scenario_yaml(scenario_path)
    with open(os.path.join(campaign_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(campaign_dir, "campaign.jsonl")) as fh:
        log = [json.loads(line) for line in fh if line.strip()]
    problems = []
    if manifest["sampler"]["kind"] != kind or manifest["sampler"]["budget"] != budget:
        problems.append(f"manifest sampler {manifest['sampler']} is not {kind} x {budget}")
    if [rec["iter"] for rec in log] != list(range(budget)):
        problems.append(f"log holds {len(log)} records, expected iterations 0..{budget - 1}")
        return problems
    problems += check_prompts(log, kind, scen)
    for rec in log:
        if not rec["failed"]:
            problems += check_episode(rec, campaign_dir, scen)
    row = read_stats_row(os.path.join(campaign_dir, "stats.csv"))
    if row[1:9] != expected_stats_row(log, manifest):
        problems.append(f"stats.csv {row[1:9]} != log {expected_stats_row(log, manifest)}")
    return problems


def check_report(report_csv: str, campaign_dirs: list, notes: list) -> list:
    """`avstress report --csv` must repeat each campaign's stats.csv row.

    The scenario label is compared apart: a mismatch is added to `notes`."""
    rows = read_stats_rows(report_csv)
    expected = [read_stats_row(os.path.join(d, "stats.csv")) for d in campaign_dirs]
    problems = []
    if sorted(r[1:] for r in rows) != sorted(r[1:] for r in expected):
        problems.append(f"report rows {rows} differ from the campaigns' stats.csv {expected}")
    labels, wanted = sorted(r[0] for r in rows), sorted(r[0] for r in expected)
    if labels != wanted:
        notes.append(f"report labels campaigns {labels}, stats.csv says {wanted}")
    return problems


def check_rerun(campaign_dir: str, rerun_dir: str, n: int) -> list:
    """The first n records and traces of a rerun must match byte for byte."""
    def prefix(d):
        with open(os.path.join(d, "campaign.jsonl"), "rb") as fh:
            return fh.read().splitlines(keepends=True)[:n]

    problems = []
    if len(prefix(rerun_dir)) != n or prefix(rerun_dir) != prefix(campaign_dir):
        problems.append(f"rerun of {campaign_dir}: campaign.jsonl differs in its first {n} records")
    for i in range(n):
        name = os.path.join("episodes", f"ep_{i:04d}.jsonl")
        with open(os.path.join(campaign_dir, name), "rb") as a, \
                open(os.path.join(rerun_dir, name), "rb") as b:
            if a.read() != b.read():
                problems.append(f"rerun of {campaign_dir}: {name} differs")
    return problems
