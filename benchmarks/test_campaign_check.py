"""Tests of the benchmark's output checker and crowd-scenario generator.

Each tamper test corrupts one field of a real campaign and requires the
checker to reject it. Run with: python3 -m pytest benchmarks
"""
import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import campaign_check  # noqa: E402
import crowd_scenario  # noqa: E402

FRONT_YAML = os.path.join(SRC, "avstress", "presets", "front.yaml")
BUDGET = 4


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    """{sampler: campaign dir} of two short campaigns on the front preset."""
    from avstress import cli

    root = tmp_path_factory.mktemp("campaigns")
    dirs = {}
    for kind in ("sobol", "bo"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["run", "front", "--sampler", kind, "--budget", str(BUDGET),
                             "--out", str(root)]) == 0
        dirs[kind] = buf.getvalue().split()[-1]
    return dirs


@pytest.fixture
def copy_of(campaigns, tmp_path):
    def make(kind):
        dst = tmp_path / kind
        shutil.copytree(campaigns[kind], dst)
        return str(dst)

    return make


def edit_record(campaign_dir, index, edit):
    path = os.path.join(campaign_dir, "campaign.jsonl")
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    edit(records[index])
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def check(campaign_dir, kind):
    return campaign_check.check_campaign(campaign_dir, FRONT_YAML, kind, BUDGET)


@pytest.mark.parametrize("kind", ["sobol", "bo"])
def test_untampered_campaign_passes(campaigns, kind):
    assert check(campaigns[kind], kind) == []


@pytest.mark.parametrize("kind", ["sobol", "bo"])
def test_rejects_wrong_min_dist(copy_of, kind):
    d = copy_of(kind)
    edit_record(d, 1, lambda r: r.update(min_dist=r["min_dist"] + 0.01))
    assert any("min_dist" in p for p in check(d, kind))


@pytest.mark.parametrize("kind", ["sobol", "bo"])
def test_rejects_flipped_collided(copy_of, kind):
    d = copy_of(kind)
    edit_record(d, 0, lambda r: r.update(collided=not r["collided"]))
    problems = check(d, kind)
    assert any("overlap" in p or "collision" in p for p in problems)


@pytest.mark.parametrize("kind, index", [("sobol", 2), ("bo", 0), ("bo", BUDGET - 1)])
def test_rejects_shifted_prompt(copy_of, kind, index):
    """A Sobol prompt must equal scipy's point; a GP-UCB prompt beyond the
    bootstrap must still map onto its logged world goal."""
    d = copy_of(kind)

    def shift(r):
        r["u"][0] += 0.01 if r["u"][0] < 0.5 else -0.01

    edit_record(d, index, shift)
    problems = check(d, kind)
    assert any(f"iter {index}:" in p for p in problems)


def test_rejects_speed_jump_in_trace(copy_of):
    d = copy_of("sobol")
    path = os.path.join(d, "episodes", "ep_0001.jsonl")
    with open(path) as fh:
        lines = fh.read().splitlines()
    step = json.loads(lines[10])
    step["agents"]["npc"]["speed"] += 1.0
    lines[10] = json.dumps(step, sort_keys=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("speed" in p or "moves" in p for p in check(d, "sobol"))


def test_rejects_stats_that_disagree_with_the_log(copy_of):
    d = copy_of("bo")
    path = os.path.join(d, "stats.csv")
    with open(path) as fh:
        header, row = fh.read().splitlines()
    cols = row.split(",")
    cols[3] = "99"  # coll_pct
    with open(path, "w") as fh:
        fh.write(f"{header}\n{','.join(cols)}\n")
    assert any("stats.csv" in p for p in check(d, "bo"))


def test_report_rows_and_labels(campaigns, tmp_path):
    dirs = [campaigns["sobol"], campaigns["bo"]]
    rows = [campaign_check.read_stats_row(os.path.join(d, "stats.csv")) for d in dirs]
    report = tmp_path / "report.csv"

    def write(rows):
        report.write_text("header\n" + "".join(",".join(r) + "\n" for r in rows))

    notes = []
    write(rows)
    assert campaign_check.check_report(str(report), dirs, notes) == [] and notes == []
    write([["scenario"] + r[1:] for r in rows])
    assert campaign_check.check_report(str(report), dirs, notes) == []
    assert len(notes) == 1
    write([rows[0], rows[1][:4] + ["0"] + rows[1][5:]])
    assert campaign_check.check_report(str(report), dirs, []) != []


def test_rerun_must_match_byte_for_byte(campaigns, copy_of):
    d = copy_of("bo")
    assert campaign_check.check_rerun(campaigns["bo"], d, BUDGET) == []
    edit_record(d, 2, lambda r: r.update(score=r["score"] + 1e-9))
    assert campaign_check.check_rerun(campaigns["bo"], d, BUDGET) != []


@pytest.mark.parametrize("n_agents", [3, 4])
def test_crowd_scenarios_load_without_overlap(n_agents):
    from avstress.scenario import load_scenario

    for seed in range(40):
        text = crowd_scenario.crowd_yaml(seed, n_agents)
        scenario = load_scenario(text, scenario_id="crowd")
        assert len(scenario.simulated_agents) == n_agents
        assert crowd_scenario.crowd_yaml(seed, n_agents) == text
        doc = campaign_check.yaml.safe_load(text)
        states = {a["id"]: np.array([[a["x"], a["y"], a["heading"], a["speed"]]])
                  for a in doc["agents"]}
        scen = {"agents": doc["agents"]}
        assert campaign_check.first_overlap_step(states, scen) is None, f"seed {seed}"
