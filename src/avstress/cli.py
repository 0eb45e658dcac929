"""Command-line front end: run campaigns, report stats, export GP grids,
and replay stored episodes.

Exit codes: 0 success, 2 usage/config error, 3 irrecoverable runtime error.
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import sys

import numpy as np

from . import metrics, persist, surrogate
from .optimizer import SamplerConfig, run_campaign
from .planner import LatticePlanner
from .scenario import PRESET_NAMES, ScenarioError, load_scenario_file

OUT_ROOT_ENV = "AVSTRESS_OUT"


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _resolve_scenario_path(name: str) -> str:
    if os.path.exists(name):
        return name
    if name in PRESET_NAMES:
        from importlib import resources

        return str(resources.files("avstress").joinpath(f"presets/{name}.yaml"))
    raise CliError(f"scenario '{name}' is neither a file nor a preset name")


def cmd_run(args) -> int:
    scenario_path = _resolve_scenario_path(args.scenario)
    try:
        cfg = SamplerConfig(
            kind=args.sampler,
            budget=args.budget,
            beta=args.beta,
            candidates=args.candidates,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    try:
        scenario = load_scenario_file(scenario_path)
    except ScenarioError as exc:
        raise CliError(f"invalid scenario config: {exc}")

    out_root = args.out or os.environ.get(OUT_ROOT_ENV, ".")
    out_dir = os.path.join(out_root, f"{scenario.scenario_id}_{cfg.kind}")
    episodes_dir = os.path.join(out_dir, "episodes")
    os.makedirs(episodes_dir, exist_ok=True)
    # this run replaces any earlier campaign in the directory
    stale = glob.glob(os.path.join(episodes_dir, "ep_*.jsonl"))
    for path in stale + glob.glob(os.path.join(out_dir, "stats.csv")):
        os.remove(path)
    shutil.copyfile(scenario_path, os.path.join(out_dir, "scenario.yaml"))
    persist.write_manifest(out_dir, scenario_path, cfg, args.asd_convention)

    campaign_log = open(os.path.join(out_dir, "campaign.jsonl"), "w")

    def sink(record):
        ep_file = f"episodes/ep_{record.iteration:04d}.jsonl"
        if record.episode is not None:
            persist.write_episode(os.path.join(out_dir, ep_file), record.episode, scenario)
        else:
            ep_file = ""
        campaign_log.write(persist.campaign_record_to_json(record, ep_file) + "\n")
        campaign_log.flush()
        if record.failed:
            print(
                f"warning: episode {record.iteration} failed: {record.failure_reason}",
                file=sys.stderr,
            )

    planner = LatticePlanner()
    try:
        result = run_campaign(scenario, cfg, planner, episode_sink=sink)
    finally:
        campaign_log.close()

    good = [r for r in result.records if not r.failed]
    if len(good) >= 2:
        stats = metrics.campaign_stats(
            [r.episode for r in good], scenario,
            scores=[r.metrics for r in good],
            asd_convention=args.asd_convention,
        )
        row = persist.stats_csv_row(scenario.scenario_id, cfg.kind, stats)
        persist.write_stats_csv(os.path.join(out_dir, "stats.csv"), [row])
    else:
        print("warning: too few successful episodes for stats", file=sys.stderr)
    print(out_dir)
    return 0


def _campaign_row(campaign_dir: str):
    scenario = load_scenario_file(os.path.join(campaign_dir, "scenario.yaml"))
    with open(os.path.join(campaign_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    # the copy is always named scenario.yaml; `run` takes the id from the
    # name of the file it was given, which the manifest records
    scenario_id = os.path.splitext(manifest["scenario_file"])[0]
    log = persist.read_campaign_log(os.path.join(campaign_dir, "campaign.jsonl"))
    episodes = []
    for rec in log:
        if rec.get("failed") or not rec.get("episode_file"):
            continue
        episode, _ = persist.read_episode(os.path.join(campaign_dir, rec["episode_file"]))
        episodes.append(episode)
    stats = metrics.campaign_stats(
        episodes, scenario, asd_convention=manifest["conventions"]["asd"]
    )
    return scenario_id, manifest["sampler"]["kind"], stats


def cmd_report(args) -> int:
    rows = []
    for d in args.campaign_dirs:
        try:
            rows.append(_campaign_row(d))
        except Exception as exc:
            print(f"warning: skipping '{d}': {exc}", file=sys.stderr)
    if not rows:
        raise CliError("no readable campaigns")
    rows.sort(key=lambda r: (r[0], r[1]))
    header = (
        f"{'scenario':<14}{'sampler':<9}{'n':>4}{'coll%':>8}{'min_dist':>16}"
        f"{'ttc':>16}{'ego_asd':>9}{'agent_asd':>10}"
    )
    print(header)
    print("-" * len(header))
    csv_rows = []
    for scenario_id, sampler, s in rows:
        ttc = "inf" if not math.isfinite(s.ttc_mean) else f"{s.ttc_mean:.2f}+-{s.ttc_std:.2f}"
        print(
            f"{scenario_id:<14}{sampler:<9}{s.n_episodes:>4}{s.coll_rate:>8.1f}"
            f"{f'{s.min_dist_mean:.2f}+-{s.min_dist_std:.2f}':>16}{ttc:>16}"
            f"{s.ego_asd:>9.2f}{s.agent_asd:>10.2f}"
        )
        csv_rows.append(persist.stats_csv_row(scenario_id, sampler, s))
    if args.csv:
        persist.write_stats_csv(args.csv, csv_rows)
    return 0


def cmd_export_gp(args) -> int:
    log_path = os.path.join(args.campaign_dir, "campaign.jsonl")
    if not os.path.exists(log_path):
        raise CliError(f"no campaign log in '{args.campaign_dir}'")
    log = persist.read_campaign_log(log_path)
    pairs = [
        (rec["u"], rec["score"])
        for rec in log
        if not rec.get("failed") and rec.get("score") is not None
    ]
    if len(pairs) < 2:
        raise CliError("need at least 2 successful episodes to fit a GP")
    X = np.array([u for u, _ in pairs])
    if X.shape[1] != 2:
        raise CliError("GP grid export supports 2-D prompt spaces only")
    y = np.array([s for _, s in pairs])
    model = surrogate.fit(X, y)
    grid = surrogate.posterior_grid(model, args.resolution)
    persist.write_gp_grid_csv(os.path.join(args.campaign_dir, "gp_grid.csv"), grid)
    persist.write_samples_csv(os.path.join(args.campaign_dir, "gp_samples.csv"), X, y)
    print(os.path.join(args.campaign_dir, "gp_grid.csv"))
    return 0


def _find_scenario_for(episode_file: str) -> str:
    d = os.path.dirname(os.path.abspath(episode_file))
    for _ in range(3):
        candidate = os.path.join(d, "scenario.yaml")
        if os.path.exists(candidate):
            return candidate
        d = os.path.dirname(d)
    raise CliError(f"no scenario.yaml found near '{episode_file}'")


def cmd_replay(args) -> int:
    try:
        episode, header = persist.read_episode(args.episode_file)
    except ValueError as exc:
        raise CliError(str(exc))
    scenario = load_scenario_file(args.scenario or _find_scenario_for(args.episode_file))
    for joint in episode.trace:
        parts = [f"t={joint.timestep:3d}"]
        for aid in sorted(joint.states):
            s = joint.states[aid]
            parts.append(
                f"{aid}: ({s.position.x:7.2f},{s.position.y:6.2f}) "
                f"h={s.heading:+.3f} v={s.speed:5.2f}"
            )
        print("  ".join(parts))
    if episode.failed:
        print(f"episode failed: {episode.failure_reason}")
        return 0
    if len(episode.trace) < 2:
        print("trace too short for metrics")
        return 0
    score = metrics.score_episode(episode, scenario)
    # locate the argmin of the ego-agent distance table
    best = None
    ego_id = scenario.ego.id
    for joint in episode.trace[1:]:
        for agent in scenario.simulated_agents:
            d = metrics.euclidean_distance(
                joint.states[ego_id].position, joint.states[agent.id].position
            )
            if best is None or d < best[0]:
                best = (d, joint.timestep, agent.id)
    assert best is not None
    print(f"min distance {best[0]:.3f} m at t={best[1]} vs agent '{best[2]}'")
    print(f"criticality g = {score.g:.3f}")
    ttc = "inf" if not math.isfinite(score.ttc_min) else f"{score.ttc_min:.3f} s"
    print(f"ttc_min = {ttc}")
    if episode.collision:
        t, pair = episode.collision
        print(f"collision at t={t} between {pair[0]} and {pair[1]}")
    else:
        print("no collision")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avstress",
        description="Search for safety-critical agent behaviors against a planner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sampling campaign")
    run_p.add_argument("scenario", help="scenario config file or preset name")
    run_p.add_argument("--sampler", choices=("bo", "sobol"), default="bo")
    run_p.add_argument("--budget", type=int, default=75)
    run_p.add_argument("--beta", type=float, default=2.0)
    run_p.add_argument("--candidates", type=int, default=1024)
    run_p.add_argument("--out", default=None, help=f"output root (default ${OUT_ROOT_ENV} or .)")
    run_p.add_argument("--asd-convention", choices=("paper", "mean_pairwise"), default="paper")
    run_p.set_defaults(func=cmd_run)

    rep_p = sub.add_parser("report", help="tabulate campaign statistics")
    rep_p.add_argument("campaign_dirs", nargs="+")
    rep_p.add_argument("--csv", default=None, help="also write rows to this CSV file")
    rep_p.set_defaults(func=cmd_report)

    gp_p = sub.add_parser("export-gp", help="refit and export the GP posterior grid")
    gp_p.add_argument("campaign_dir")
    gp_p.add_argument("--resolution", type=int, default=64)
    gp_p.set_defaults(func=cmd_export_gp)

    replay_p = sub.add_parser("replay", help="print a stored episode")
    replay_p.add_argument("episode_file")
    replay_p.add_argument("--scenario", default=None)
    replay_p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
