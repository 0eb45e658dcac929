"""Campaign benchmark for avstress.

Usage (from the repository root):
    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs whole rounds of the workload's campaigns through `avstress run`
in-process until --seconds have passed, then `avstress report` over the
first round's campaign directories, then checks every output with
campaign_check (which does not import avstress). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, and every time among
them is scaled to a reference CPU speed: this machine's speed changes by up
to 1.7x within minutes, so a fixed snippet of pure-Python work that uses
nothing of avstress runs between iterations (outside the timed intervals)
and its time sets the scale. With --trace 1 the program's layers are
wrapped (bench_trace) and the metrics are raw per-layer figures per round.
See README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import campaign_check  # noqa: E402
import crowd_scenario  # noqa: E402

PRESETS = ("front", "front_right", "behind")
BUDGET = 75  # the paper's campaign budget
CROWD_AGENTS = 3  # prompt dimension 6
CROWD_BUDGET = 100  # >= 100 iterations, so iter_ms_p90 has ten samples beyond it
SETUP_REPEATS = 3
REPORT_REPEATS = 5
RERUN_BUDGET = 3
# Untraced runs report times at a reference CPU speed (see README.md):
# SNIPPET_REF_S is about the median time of speed_snippet on the reference
# machine; SPEED_SAMPLES snippets run just before and after each set-up probe.
SNIPPET_REF_S = 0.6e-3
SPEED_SAMPLES = 10


def import_program():
    """Import avstress from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "avstress", "__init__.py")):
        sys.exit(f"error: no avstress sources under {SRC}")
    sys.path.insert(0, SRC)
    import avstress
    import avstress.cli

    if not os.path.abspath(avstress.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: avstress imported from {avstress.__file__}, not {SRC}")
    return avstress


def campaigns(workload: str, seed: int, out_dir: str):
    """[(scenario argument, scenario YAML path, sampler, budget)] of one round."""
    presets = list(PRESETS)
    random.Random(seed).shuffle(presets)  # the presets are fixed; the seed orders them
    preset_yaml = os.path.join(SRC, "avstress", "presets", "{}.yaml")
    if workload == "sobol_presets":
        return [(p, preset_yaml.format(p), "sobol", BUDGET) for p in presets]
    if workload == "bo_presets":
        return [(p, preset_yaml.format(p), "bo", BUDGET) for p in presets]
    if workload == "bo_crowd":
        path = os.path.join(out_dir, "crowd.yaml")
        with open(path, "w") as fh:
            fh.write(crowd_scenario.crowd_yaml(seed, CROWD_AGENTS))
        return [(path, path, "bo", CROWD_BUDGET)]
    raise SystemExit(f"error: unknown workload '{workload}'")


def run_cli(cli, argv):
    """avstress's CLI in-process; returns its stdout, raises on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"avstress {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def run_args(spec, out_root, budget=None):
    arg, _, kind, full_budget = spec
    return ["run", arg, "--sampler", kind, "--budget", str(budget or full_budget),
            "--out", out_root]


def speed_snippet():
    """Seconds taken by a fixed loop of pure-Python arithmetic that uses
    nothing of avstress: its time tracks the speed the CPU gives this
    process at the moment it runs."""
    t0 = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    return time.perf_counter() - t0


def speed_scale(snippets):
    """Factor from times measured while `snippets` were taken to times at
    the reference speed; 1 when no snippets were taken (traced runs)."""
    return SNIPPET_REF_S / statistics.median(snippets) if snippets else 1.0


def _now():
    return time.perf_counter(), time.process_time()


class CallClock:
    """Marks every call of one entry point of the program and runs
    `per_call` speed snippets just before each; their median is the call's
    speed sample.

    `split(start, end)` then returns the wall and CPU seconds from each call
    to the next, the last one ending when `until` (another entry point, or
    the region's end) returns, and the rest of the region [start, end]
    outside those intervals. The snippets' own time is in neither.
    """

    def __init__(self, owner, attr, per_call, until=None):
        original = getattr(owner, attr)
        self._saved = [(owner, attr, original)]
        self.before, self.after, self.snippets, self.last_end = [], [], [], None

        def marked(*args, **kwargs):
            self.before.append(_now())
            if per_call:
                self.snippets.append(statistics.median(speed_snippet() for _ in range(per_call)))
            self.after.append(_now())
            return original(*args, **kwargs)

        setattr(owner, attr, marked)
        if until is not None:
            until_owner, until_attr = until
            inner = getattr(until_owner, until_attr)
            self._saved.append((until_owner, until_attr, inner))

            def ending(*args, **kwargs):
                result = inner(*args, **kwargs)
                self.last_end = _now()
                return result

            setattr(until_owner, until_attr, ending)

    def split(self, start, end):
        ends = self.before[1:] + [self.last_end or end]
        calls = [(e[0] - s[0], e[1] - s[1]) for s, e in zip(self.after, ends)]
        snips = [(a[0] - b[0], a[1] - b[1]) for b, a in zip(self.before, self.after)]
        outside = tuple(end[k] - start[k] - sum(c[k] for c in calls) - sum(s[k] for s in snips)
                        for k in (0, 1))
        self.before, self.after, self.last_end = [], [], None
        return calls, outside

    def close(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)


def local_scales(snippets, n, half_window=3):
    """Speed factor for each of n calls, from the median of the snippets
    taken around it, so that a change of CPU speed within a campaign is
    followed."""
    if not snippets:
        return [1.0] * n
    return [speed_scale(snippets[max(0, i - half_window): i + half_window + 1])
            for i in range(n)]


def measure_setup(spec, out_dir):
    """Median seconds, at reference speed, from starting a fresh interpreter
    to its first episode; snippets run just before and after each probe."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, probe, SRC, *run_args(spec, os.path.join(out_dir, "setup"))]
        snippets = [speed_snippet() for _ in range(SPEED_SAMPLES)]
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        raw = float(proc.stdout.split()[-1]) - start
        snippets += [speed_snippet() for _ in range(SPEED_SAMPLES)]
        times.append(raw * speed_scale(snippets))
    return statistics.median(times)


def run_campaign_timed(cli, argv, clock):
    """One `avstress run` in-process. Returns its directory, the time of
    each iteration (suggest, simulate, score, persist), and the campaign's
    wall and CPU seconds, all at reference speed, and its raw wall seconds."""
    gc.collect()  # start each timed call without the garbage of the last
    clock.snippets = []
    start = _now()
    out = run_cli(cli, argv).strip().splitlines()[-1]
    end = _now()
    iters, outside = clock.split(start, end)
    scales = local_scales(clock.snippets, len(iters))
    mid = statistics.median(scales)
    wall = sum(w * s for (w, _), s in zip(iters, scales)) + outside[0] * mid
    cpu = sum(c * s for (_, c), s in zip(iters, scales)) + outside[1] * mid
    raw = sum(w for w, _ in iters) + outside[0]
    return out, [w * s for (w, _), s in zip(iters, scales)], wall, cpu, raw


def run_report_timed(cli, argv, clock):
    """Seconds of one `avstress report` at reference speed; snippets run
    before each episode it reads and are left out of the time."""
    gc.collect()
    clock.snippets = []
    start = _now()
    run_cli(cli, argv)
    end = _now()
    calls, outside = clock.split(start, end)
    raw = sum(w for w, _ in calls) + outside[0]
    return raw * speed_scale(clock.snippets)


def read_log(campaign_dir):
    with open(os.path.join(campaign_dir, "campaign.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def check_outputs(cli, specs, rounds, out_dir, report_csv, notes):
    """Every check of the README's list, over all rounds; returns problems."""
    problems = []
    first = rounds[0]["dirs"]
    for spec, d in zip(specs, first):
        problems += campaign_check.check_campaign(d, spec[1], spec[2], spec[3])
    for later in rounds[1:]:
        for spec, a, b in zip(specs, first, later["dirs"]):
            problems += campaign_check.check_rerun(a, b, spec[3])
    problems += campaign_check.check_report(report_csv, first, notes)
    # the first records of a campaign do not depend on its budget, so a short
    # rerun of the round's first campaign checks determinism cheaply
    argv = run_args(specs[0], os.path.join(out_dir, "rerun"), RERUN_BUDGET)
    rerun_dir = run_cli(cli, argv).strip().splitlines()[-1]
    problems += campaign_check.check_rerun(first[0], rerun_dir, RERUN_BUDGET)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sobol_presets", "bo_presets", "bo_crowd"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    avstress = import_program()
    cli = avstress.cli
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    specs = campaigns(args.workload, args.seed, out_dir)

    # untraced runs report times at reference speed; traced runs report raw times
    setup_s = None if args.trace else measure_setup(specs[0], out_dir)

    tracer = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install(avstress)
    rounds, iter_s = [], []
    try:
        clock = CallClock(avstress.optimizer, "suggest_next", 0 if args.trace else 3,
                          until=(avstress.cli, "run_campaign"))
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            round_dir = os.path.join(out_dir, f"round{len(rounds)}")
            dirs, wall, cpu, raw = [], 0.0, 0.0, 0.0
            for spec in specs:
                d, its, w, c, r = run_campaign_timed(cli, run_args(spec, round_dir), clock)
                dirs.append(d)
                iter_s += its
                wall += w
                cpu += c
                raw += r
            rounds.append({"dirs": dirs, "wall": wall, "cpu": cpu, "raw": raw})
        clock.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        report_csv = os.path.join(out_dir, "report.csv")
        report_argv = ["report", *rounds[0]["dirs"], "--csv", report_csv]
        clock = CallClock(avstress.persist, "read_episode", 0 if args.trace else 1)
        report_times = [run_report_timed(cli, report_argv, clock)
                        for _ in range(1 if args.trace else REPORT_REPEATS)]
        clock.close()
    finally:
        if tracer is not None:
            tracer.uninstall()

    notes = []
    problems = check_outputs(cli, specs, rounds, out_dir, report_csv, notes)
    for line in notes:
        print(f"note: {line}", file=sys.stderr)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    logs = [rec for r in rounds for d in r["dirs"] for rec in read_log(d)]
    first_logs = [rec for d in rounds[0]["dirs"] for rec in read_log(d)]
    attempted, failed = len(logs), sum(rec["failed"] for rec in logs)
    collisions = sum(rec["collided"] for rec in first_logs)
    wall = sum(r["wall"] for r in rounds)
    n = len(rounds)

    if tracer is None:
        deciles = statistics.quantiles(iter_s, n=10)
        metrics = {
            "setup_s": (setup_s, "s"),
            "episodes_per_s": (attempted / wall, "1/s"),
            "iter_ms_p50": (1e3 * statistics.median(iter_s), "ms"),
            "iter_ms_p90": (1e3 * deciles[8], "ms"),
            "cpu_ms_per_episode": (1e3 * sum(r["cpu"] for r in rounds) / attempted, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "report_s": (statistics.median(report_times), "s"),
            "collisions": (collisions, "count"),
            "min_dist_m": (statistics.mean(rec["min_dist"] for rec in first_logs), "m"),
            # a round that finds no collision counts as finding one
            "s_per_collision": (wall / n / max(collisions, 1), "s"),
        }
    else:
        tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
        metrics = layer_metrics(tracer, n, wall, rounds)
    print(f"{args.workload}: {n} round(s), {len(iter_s)} iterations, "
          f"{attempted} episodes, {failed} failed; campaign time "
          f"{sum(r['raw'] for r in rounds):.3f} s raw, {wall:.3f} s at reference speed",
          file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def layer_metrics(tracer, n, wall, rounds):
    """Per-layer figures per round from the traced run."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / n

    def span_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / n

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / n

    def count(name):
        return tracer.counts[name] / n

    steps = count("sim.steps")
    fits = calls("surrogate.fit")
    prompts = calls("optimizer.suggest_next")
    return {
        "campaign.wall_s": (wall / n, "s"),
        "planner.plan.s": (span_s("planner.plan"), "s"),
        "planner.plan.calls": (calls("planner.plan"), "count"),
        "planner.plan.us_per_step": (1e6 * span_s("planner.plan") / steps, "us"),
        "planner.rollout_steps_per_ego_step": (count("planner.rollout_step") / steps, "ratio"),
        "planner.predict.calls": (count("planner.predict"), "count"),
        "geom.point_at_arclength.calls": (count("geom.point_at_arclength"), "count"),
        "geom.project_to_polyline.calls": (count("geom.project_to_polyline"), "count"),
        "scenario.nearest_lane.calls": (count("scenario.nearest_lane"), "count"),
        "surrogate.fit.s": (span_s("surrogate.fit"), "s"),
        "surrogate.fit.calls": (fits, "count"),
        "surrogate.lml_evals": (count("surrogate.lml_evals"), "count"),
        "surrogate.lml_evals_per_fit": (count("surrogate.lml_evals") / fits if fits else 0.0,
                                        "ratio"),
        "optimizer.suggest_next.s": (span_s("optimizer.suggest_next"), "s"),
        "optimizer.acquisition_self.s": (self_s("optimizer.suggest_next"), "s"),
        "optimizer.candidates_scored": (count("optimizer.candidates_scored"), "count"),
        "optimizer.candidates_per_prompt": (count("optimizer.candidates_scored") / prompts,
                                            "ratio"),
        "surrogate.posterior_batch.s": (span_s("surrogate.posterior_batch"), "s"),
        "sobol.sobol_points.s": (span_s("sobol"), "s"),
        "sobol.points_generated": (count("sobol.points_generated"), "count"),
        "sim.simulate_episode.self_s": (self_s("sim.simulate_episode"), "s"),
        "sim.steps": (steps, "count"),
        "sim.policy_step.s": (span_s("sim.policy_step"), "s"),
        "sim.policy_step.calls": (calls("sim.policy_step"), "count"),
        "sim.collision_check.s": (span_s("sim.collision_check"), "s"),
        "sim.collision_check.calls": (calls("sim.collision_check"), "count"),
        "persist.write.s": (span_s("persist.write"), "s"),
        "persist.bytes_written": (sum(dir_bytes(d) for r in rounds for d in r["dirs"]) / n, "B"),
        "persist.read_episode.s": (span_s("persist.read_episode"), "s"),
        "metrics.score_episode.s": (span_s("metrics.score_episode"), "s"),
        "metrics.campaign_stats.s": (span_s("metrics.campaign_stats"), "s"),
        "scenario.load.s": (span_s("scenario.load"), "s"),
    }


if __name__ == "__main__":
    sys.exit(main())
