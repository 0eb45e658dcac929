"""Command-line front end: run campaigns, report stats, export GP grids,
and replay stored episodes.

Exit codes: 0 success, 2 bad input (an `InputError`: a bad flag, scenario
or campaign file), 3 any other exception, which is a fault of the program.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import metrics, persist
from .optimizer import GpUcbSampler, SobolSampler, run_campaign
from .planner import LatticePlanner
from .scenario import PRESET_NAMES, InputError, load_scenario_file, preset_path

OUT_ROOT_ENV = "AVSTRESS_OUT"


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
    gp_ucb = GpUcbSampler(args.beta, args.candidates)
    sampler = gp_ucb if args.sampler == "bo" else SobolSampler()
    scenario = load_scenario_file(scenario_path)

    out_dir, writer = persist.prepare_campaign(
        args.out or os.environ.get(OUT_ROOT_ENV, "."), scenario, scenario_path,
        {"beta": args.beta, "budget": args.budget, "candidates": args.candidates,
         "kind": args.sampler})
    scores, paths = [], [[] for _ in scenario.agents]

    def sink(record, episode):
        """Hand the episode and its record to the writer, which warns of a
        failed one, and keep what the statistics read of one that did not."""
        writer.write(record, episode)
        if not record.failed:
            _keep_for_stats(scores, paths, record.metrics, episode, scenario)

    with writer:
        run_campaign(scenario, sampler, LatticePlanner(), args.budget, episode_sink=sink)

    if len(scores) >= 2:
        stats = [(scenario.scenario_id, args.sampler, metrics.campaign_stats(scores, paths))]
        persist.write_stats_csv(os.path.join(out_dir, persist.STATS_CSV), stats)
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
    scenario = load_scenario_file(os.path.join(campaign_dir, persist.SCENARIO_COPY))
    manifest = persist.read_manifest(os.path.join(campaign_dir, persist.MANIFEST))
    # `run` takes the id from the name of the file it was given, in the manifest
    scenario_id = os.path.splitext(manifest["scenario_file"])[0]
    log = persist.read_campaign_log(os.path.join(campaign_dir, persist.CAMPAIGN_LOG))
    scores, paths = [], [[] for _ in scenario.agents]
    # one episode at a time, so that memory grows only with the paths
    for rec in log:
        if rec["failed"]:
            continue
        path = os.path.join(campaign_dir, rec["episode_file"])
        episode = persist.read_episode(path, scenario)
        # a file that disagrees with its record is an error, not an episode to leave out
        if episode.failed:
            raise InputError(f"{path}: episode failed, but its campaign record says it did not")
        _keep_for_stats(scores, paths, metrics.score_episode(episode, scenario), episode, scenario)
    return scenario_id, manifest["sampler"]["kind"], metrics.campaign_stats(scores, paths)


def cmd_report(args) -> int:
    if args.csv:
        # before the campaigns are read
        persist.check_writable(args.csv)
    rows = []
    for d in args.campaign_dirs:
        try:
            rows.append(_campaign_row(d))
        except InputError as exc:
            print(f"warning: skipping '{d}': {exc}", file=sys.stderr)
    if not rows:
        raise InputError("no readable campaigns")
    rows.sort(key=lambda r: (r[0], r[1]))
    # before the table, so that a CSV that cannot be written prints nothing
    if args.csv:
        persist.write_stats_csv(args.csv, rows)
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
    return 0


def cmd_export_gp(args) -> int:
    # checked before the fit, which takes seconds
    if args.resolution < 2:
        raise InputError("grid resolution must be >= 2")
    log = persist.read_campaign_log(os.path.join(args.campaign_dir, persist.CAMPAIGN_LOG))
    pairs = [(rec["u"], rec["score"]) for rec in log if not rec["failed"]]
    if len(pairs) < 2:
        raise InputError("need at least 2 successful episodes to fit a GP")
    if any(len(u) != 2 for u, _ in pairs):
        raise InputError("GP grid export supports 2-D prompt spaces only")
    grid_path, samples_path = (os.path.join(args.campaign_dir, n) for n in persist.GP_FILES)
    persist.check_writable(grid_path)
    persist.check_writable(samples_path)
    # the only command that needs numpy and the GP, which loads scipy
    import numpy as np
    from . import surrogate

    X = np.array([u for u, _ in pairs])
    y = np.array([s for _, s in pairs])
    model = surrogate.fit(X, y)
    grid = surrogate.posterior_grid(model, args.resolution)
    persist.write_csv(grid_path, "u1,u2,mean,variance", grid)
    persist.write_csv(samples_path, "u1,u2,score", [(*u, s) for u, s in zip(X, y)])
    print(grid_path)
    return 0


def cmd_replay(args) -> int:
    scenario_path = (_resolve_scenario_path(args.scenario) if args.scenario
                     else persist.find_scenario_copy(args.episode_file))
    scenario = load_scenario_file(scenario_path)
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
    replay_p.add_argument("--scenario", default=None, help="scenario config file or preset name")
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
