"""Command-line front end: run campaigns, report stats, export GP grids,
and replay stored episodes.

Exit codes: 0 success, 2 bad input (an `InputError`: a bad flag, scenario
or campaign file), 3 any other exception, which is a fault of the program.
"""
from __future__ import annotations

import argparse
import glob
import math
import os
import shutil
import sys

from . import metrics, persist
from .optimizer import GpUcbSampler, SobolSampler, run_campaign
from .planner import LatticePlanner
from .scenario import PRESET_NAMES, InputError, load_scenario_file, preset_path

OUT_ROOT_ENV = "AVSTRESS_OUT"
# what `export-gp` writes into a campaign directory, and a new `run` deletes
GP_FILES = ("gp_grid.csv", "gp_samples.csv")


def _resolve_scenario_path(name: str) -> str:
    # only a regular file hides the preset of its name, not a directory
    if os.path.isfile(name):
        return name
    if name in PRESET_NAMES:
        return preset_path(name)
    if os.path.isdir(name):
        raise InputError(f"scenario '{name}' is a directory, not a scenario file or a preset name")
    raise InputError(f"scenario '{name}' is neither a file nor a preset name")


def cmd_run(args) -> int:
    scenario_path = _resolve_scenario_path(args.scenario)
    if args.budget < 1:
        raise InputError("budget must be >= 1")
    # the GP flags are checked for either sampler: the manifest records them
    try:
        gp_ucb = GpUcbSampler(args.beta, args.candidates)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    sampler = gp_ucb if args.sampler == "bo" else SobolSampler()
    scenario = load_scenario_file(scenario_path)

    out_root = args.out or os.environ.get(OUT_ROOT_ENV, ".")
    out_dir = os.path.join(out_root, f"{scenario.scenario_id}_{args.sampler}")
    episodes_dir = os.path.join(out_dir, "episodes")
    try:
        os.makedirs(episodes_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        # makedirs creates nothing before a path component that is a file
        path = episodes_dir
        while path and not os.path.lexists(path):
            path = os.path.dirname(path)
        raise InputError(f"output path '{path}' exists and is not a directory")
    # this run replaces any earlier campaign in the directory, and the GP
    # grid and samples that `export-gp` made from it
    stale = glob.glob(os.path.join(glob.escape(episodes_dir), "ep_*.jsonl"))
    for name in ("stats.csv", *GP_FILES):
        stale += glob.glob(os.path.join(glob.escape(out_dir), name))
    for path in stale:
        os.remove(path)
    scenario_copy = os.path.join(out_dir, "scenario.yaml")
    # a rerun from the campaign's own copy has nothing to copy
    if not (os.path.exists(scenario_copy) and os.path.samefile(scenario_path, scenario_copy)):
        shutil.copyfile(scenario_path, scenario_copy)
    persist.write_manifest(out_dir, scenario_path, {
        "beta": args.beta, "budget": args.budget, "candidates": args.candidates,
        "kind": args.sampler})

    campaign_log = open(os.path.join(out_dir, "campaign.jsonl"), "w")
    scores, paths = [], [[] for _ in scenario.agents]

    def sink(record, episode):
        """Write the episode and its record's campaign.jsonl line, and keep
        the score and the agents' paths of an episode that did not fail for
        stats.csv."""
        ep_file = persist.episode_file(record.iteration)
        persist.write_episode(os.path.join(out_dir, ep_file), episode, record.goals_world,
                              scenario)
        campaign_log.write(persist.campaign_record_to_json(record, ep_file) + "\n")
        campaign_log.flush()
        if record.failed:
            print(f"warning: episode {record.iteration} failed: {episode.failure_reason}",
                  file=sys.stderr)
        else:
            _keep_for_stats(scores, paths, record.metrics, episode, scenario)

    planner = LatticePlanner()
    try:
        run_campaign(scenario, sampler, planner, args.budget, episode_sink=sink)
    finally:
        campaign_log.close()

    if len(scores) >= 2:
        stats = metrics.campaign_stats(scores, paths)
        persist.write_stats_csv(
            os.path.join(out_dir, "stats.csv"), [(scenario.scenario_id, args.sampler, stats)]
        )
    else:
        print("warning: too few successful episodes for stats", file=sys.stderr)
    print(out_dir)
    return 0


def _keep_for_stats(scores, paths, score, episode, scenario):
    """Append what `metrics.campaign_stats` reads of one episode: its score
    and each agent's (x, y) path, the ego's first."""
    scores.append(score)
    for agent_paths, agent in zip(paths, (scenario.ego, *scenario.simulated_agents)):
        agent_paths.append(metrics.agent_trajectory(episode, agent.id))


def _campaign_row(campaign_dir: str):
    scenario = load_scenario_file(os.path.join(campaign_dir, "scenario.yaml"))
    manifest = persist.read_manifest(os.path.join(campaign_dir, "manifest.json"))
    # the copy is always named scenario.yaml; `run` takes the id from the
    # name of the file it was given, which the manifest records
    scenario_id = os.path.splitext(manifest["scenario_file"])[0]
    log = persist.read_campaign_log(os.path.join(campaign_dir, "campaign.jsonl"))
    scores, paths = [], [[] for _ in scenario.agents]
    # one episode at a time, so that memory grows only with the paths
    for rec in log:
        if rec["failed"]:
            continue
        path = os.path.join(campaign_dir, rec["episode_file"])
        episode = persist.read_episode(path, scenario)
        # a file that disagrees with its record, such as one cut short by a
        # truncated write, is an error, not an episode to leave out
        if episode.failed:
            raise InputError(f"{path}: episode failed, but its campaign record says it did not")
        if len(episode.trace) < 2:
            raise InputError(
                f"{path}: a trace of {len(episode.trace)} step(s) cannot be scored,"
                " but its campaign record says the episode did not fail"
            )
        score = metrics.score_episode(episode, scenario)
        _keep_for_stats(scores, paths, score, episode, scenario)
    if len(scores) < 2:
        raise InputError("campaign statistics need at least 2 successful episodes")
    stats = metrics.campaign_stats(scores, paths)
    return scenario_id, manifest["sampler"]["kind"], stats


def _check_csv_path(path: str) -> None:
    """A usage error for a CSV path that cannot be written, before the
    campaigns are read."""
    if os.path.isdir(path):
        raise InputError(f"'{path}' is a directory, not a CSV file")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise InputError(f"no directory '{parent}' for the CSV file '{path}'")


def cmd_report(args) -> int:
    if args.csv:
        _check_csv_path(args.csv)
    rows = []
    for d in args.campaign_dirs:
        try:
            rows.append(_campaign_row(d))
        except (InputError, OSError) as exc:
            print(f"warning: skipping '{d}': {exc}", file=sys.stderr)
    if not rows:
        raise InputError("no readable campaigns")
    rows.sort(key=lambda r: (r[0], r[1]))
    header = (
        f"{'scenario':<14}{'sampler':<9}{'n':>4}{'coll%':>8}{'min_dist':>16}"
        f"{'ttc':>16}{'ego_asd':>9}{'agent_asd':>10}"
    )
    print(header)
    print("-" * len(header))
    for scenario_id, sampler, s in rows:
        ttc = "inf" if not math.isfinite(s.ttc_mean) else f"{s.ttc_mean:.2f}+-{s.ttc_std:.2f}"
        print(
            f"{scenario_id:<14}{sampler:<9}{s.n:>4}{s.coll_pct:>8.1f}"
            f"{f'{s.min_dist_mean:.2f}+-{s.min_dist_std:.2f}':>16}{ttc:>16}"
            f"{s.ego_asd:>9.2f}{s.agent_asd:>10.2f}"
        )
    if args.csv:
        persist.write_stats_csv(args.csv, rows)
    return 0


def cmd_export_gp(args) -> int:
    # checked before the fit, which takes seconds
    if args.resolution < 2:
        raise InputError("grid resolution must be >= 2")
    log_path = os.path.join(args.campaign_dir, "campaign.jsonl")
    if not os.path.exists(log_path):
        raise InputError(f"no campaign log in '{args.campaign_dir}'")
    log = persist.read_campaign_log(log_path)
    pairs = [(rec["u"], rec["score"]) for rec in log if not rec["failed"]]
    if len(pairs) < 2:
        raise InputError("need at least 2 successful episodes to fit a GP")
    if any(len(u) != 2 for u, _ in pairs):
        raise InputError("GP grid export supports 2-D prompt spaces only")
    # the only command that needs numpy and the GP, which loads scipy
    import numpy as np
    from . import surrogate

    X = np.array([u for u, _ in pairs])
    y = np.array([s for _, s in pairs])
    model = surrogate.fit(X, y)
    grid_path, samples_path = (os.path.join(args.campaign_dir, name) for name in GP_FILES)
    grid = surrogate.posterior_grid(model, args.resolution)
    persist.write_csv(grid_path, "u1,u2,mean,variance", grid)
    persist.write_csv(samples_path, "u1,u2,score", [(*u, s) for u, s in zip(X, y)])
    print(grid_path)
    return 0


def _find_scenario_for(episode_file: str) -> str:
    """The scenario.yaml of the episode's campaign: in the episode file's
    directory, or in its parent, the campaign of `episodes/ep_NNNN.jsonl`."""
    d = os.path.dirname(os.path.abspath(episode_file))
    for candidate_dir in (d, os.path.dirname(d)):
        candidate = os.path.join(candidate_dir, "scenario.yaml")
        if os.path.exists(candidate):
            return candidate
    raise InputError(f"no scenario.yaml found near '{episode_file}'")


def cmd_replay(args) -> int:
    if not os.path.exists(args.episode_file):
        raise InputError(f"no episode file '{args.episode_file}'")
    if os.path.isdir(args.episode_file):
        raise InputError(f"'{args.episode_file}' is a directory, not an episode file")
    scenario_path = args.scenario or _find_scenario_for(args.episode_file)
    try:
        scenario = load_scenario_file(scenario_path)
    except FileNotFoundError:
        raise InputError(f"no scenario file '{scenario_path}'")
    except IsADirectoryError:
        raise InputError(f"'{scenario_path}' is a directory, not a scenario file")
    episode = persist.read_episode(args.episode_file, scenario)
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
    table = metrics.distance_table(episode, scenario)
    # the first closest pair after t = 0: ties go to the earliest step, then
    # to the agent first in config order
    d, k, j = min((d, k, j) for k, row in enumerate(table[1:], 1) for j, d in enumerate(row))
    agent_id = scenario.simulated_agents[j].id
    print(f"min distance {d:.3f} m at t={episode.trace[k].timestep} vs agent '{agent_id}'")
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
    run_p.add_argument("--beta", type=float, default=GpUcbSampler.beta)
    run_p.add_argument("--candidates", type=int, default=GpUcbSampler.candidates)
    run_p.add_argument("--out", default=None, help=f"output root (default ${OUT_ROOT_ENV} or .)")
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
