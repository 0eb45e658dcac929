import json
import math
import os

import pytest

from avstress import persist
from avstress.cli import main
from avstress.metrics import campaign_stats, score_episode
from avstress.scenario import load_scenario_file
from avstress.sobol import sobol_point
from conftest import TWO_LANE_YAML, make_episode, straight_positions


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "two_lane.yaml"
    path.write_text(TWO_LANE_YAML)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def read_bytes_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


class TestRun:
    def test_sobol_budget_three(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = run_cli(
            "run", scenario_file, "--sampler", "sobol", "--budget", "3", "--out", out,
        )
        assert code == 0
        out_dir = capsys.readouterr().out.strip()
        assert os.path.isdir(out_dir)
        eps = sorted(os.listdir(os.path.join(out_dir, "episodes")))
        assert eps == ["ep_0000.jsonl", "ep_0001.jsonl", "ep_0002.jsonl"]
        log = persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl"))
        assert len(log) == 3
        for i, rec in enumerate(log, start=1):
            assert tuple(rec["u"]) == sobol_point(i)

    def test_reruns_are_byte_identical(self, scenario_file, tmp_path, capsys):
        dirs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run_cli(
                "run", scenario_file, "--sampler", "sobol", "--budget", "4",
                "--out", out,
            ) == 0
            dirs.append(capsys.readouterr().out.strip())
        assert read_bytes_tree(dirs[0]) == read_bytes_tree(dirs[1])

    @pytest.mark.parametrize("budget", [2, 1])
    def test_rerun_replaces_previous_campaign(self, budget, scenario_file, tmp_path, capsys):
        # a shorter run into the directory of a budget-4 campaign leaves
        # nothing of it behind, also no stats.csv when it has too few
        # episodes to write one
        shared = str(tmp_path / "shared")
        argv = ("run", scenario_file, "--sampler", "sobol", "--out")
        assert run_cli(*argv, shared, "--budget", "4") == 0
        first = capsys.readouterr().out.strip()
        assert os.path.exists(os.path.join(first, "stats.csv"))
        assert run_cli(*argv, shared, "--budget", str(budget)) == 0
        assert capsys.readouterr().out.strip() == first
        assert run_cli(*argv, str(tmp_path / "fresh"), "--budget", str(budget)) == 0
        fresh = capsys.readouterr().out.strip()
        assert read_bytes_tree(first) == read_bytes_tree(fresh)
        eps = sorted(os.listdir(os.path.join(first, "episodes")))
        assert eps == [f"ep_{i:04d}.jsonl" for i in range(budget)]
        assert os.path.exists(os.path.join(first, "stats.csv")) == (budget >= 2)

    def test_zero_budget_rejected_without_outputs(self, scenario_file, tmp_path):
        out = str(tmp_path / "out")
        code = run_cli("run", scenario_file, "--budget", "0", "--out", out)
        assert code == 2
        assert not os.path.exists(out)

    def test_preset_name_resolves(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = run_cli(
            "run", "front", "--sampler", "sobol", "--budget", "2", "--out", out,
        )
        assert code == 0
        out_dir = capsys.readouterr().out.strip()
        assert os.path.exists(os.path.join(out_dir, "scenario.yaml"))

    def test_unknown_scenario_rejected(self, tmp_path):
        assert run_cli("run", "no_such_thing", "--out", str(tmp_path)) == 2

    def test_manifest_written_with_conventions(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "2", "--out", out)
        out_dir = capsys.readouterr().out.strip()
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["sampler"]["kind"] == "sobol"
        assert manifest["conventions"]["asd"] == "paper"
        assert manifest["tool_version"]


class TestReport:
    def make_campaigns(self, scenario_file, tmp_path, capsys):
        dirs = []
        for sampler in ("bo", "sobol"):
            out = str(tmp_path / sampler)
            assert run_cli(
                "run", scenario_file, "--sampler", sampler, "--budget", "4",
                "--out", out,
            ) == 0
            dirs.append(capsys.readouterr().out.strip())
        return dirs

    def test_grouped_two_row_table(self, scenario_file, tmp_path, capsys):
        dirs = self.make_campaigns(scenario_file, tmp_path, capsys)
        assert run_cli("report", *dirs) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        data = lines[2:]
        assert len(data) == 2
        assert "bo" in data[0] and "sobol" in data[1]  # sorted within scenario

    @pytest.mark.parametrize("convention", ["paper", "mean_pairwise"])
    def test_preset_csv_equals_stats_csv(self, convention, tmp_path, capsys):
        # report takes the ASD convention from the campaign's manifest
        out = str(tmp_path / "out")
        assert run_cli(
            "run", "front", "--sampler", "sobol", "--budget", "3", "--out", out,
            "--asd-convention", convention,
        ) == 0
        out_dir = capsys.readouterr().out.strip()
        csv_path = str(tmp_path / "table.csv")
        assert run_cli("report", out_dir, "--csv", csv_path) == 0
        assert "front" in capsys.readouterr().out
        with open(csv_path, "rb") as fh, open(os.path.join(out_dir, "stats.csv"), "rb") as ref:
            assert fh.read() == ref.read()

    def test_row_matches_direct_metrics(self, scenario_file, tmp_path, capsys):
        dirs = self.make_campaigns(scenario_file, tmp_path, capsys)
        csv_path = str(tmp_path / "table.csv")
        assert run_cli("report", dirs[1], "--csv", csv_path) == 0
        capsys.readouterr()
        with open(csv_path) as fh:
            header, row = fh.read().strip().splitlines()
        assert header == persist.STATS_COLUMNS

        scenario = load_scenario_file(os.path.join(dirs[1], "scenario.yaml"))
        log = persist.read_campaign_log(os.path.join(dirs[1], "campaign.jsonl"))
        episodes = [
            persist.read_episode(os.path.join(dirs[1], rec["episode_file"]))[0]
            for rec in log
            if not rec["failed"]
        ]
        stats = campaign_stats(episodes, scenario)
        cells = row.split(",")
        assert cells[1] == "sobol"
        assert float(cells[3]) == pytest.approx(stats.coll_rate, abs=1e-4)
        assert float(cells[4]) == pytest.approx(stats.min_dist_mean, rel=1e-4)
        assert float(cells[9]) == pytest.approx(stats.ego_asd, rel=1e-4, abs=1e-4)
        assert float(cells[10]) == pytest.approx(stats.agent_asd, rel=1e-4, abs=1e-4)

    def test_unreadable_campaigns_exit_2(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert run_cli("report", str(empty)) == 2


class TestExportGp:
    def test_grid_shape_and_samples(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_cli(
            "run", scenario_file, "--sampler", "sobol", "--budget", "6", "--out", out,
        )
        out_dir = capsys.readouterr().out.strip()
        assert run_cli("export-gp", out_dir, "--resolution", "64") == 0
        with open(os.path.join(out_dir, "gp_grid.csv")) as fh:
            grid_lines = fh.read().strip().splitlines()
        assert grid_lines[0] == "u1,u2,mean,variance"
        assert len(grid_lines) == 1 + 64 * 64
        with open(os.path.join(out_dir, "gp_samples.csv")) as fh:
            sample_lines = fh.read().strip().splitlines()
        assert sample_lines[0] == "u1,u2,score"
        assert len(sample_lines) == 1 + 6

    def test_constant_scores_give_constant_mean(self, tmp_path):
        out_dir = tmp_path / "camp"
        out_dir.mkdir()
        records = []
        for i in range(1, 7):
            u = sobol_point(i)
            records.append(
                json.dumps(
                    {
                        "iter": i - 1, "u": list(u), "goal_world": [0.0, 0.0],
                        "score": -7.5, "collided": False, "min_dist": 7.5,
                        "ttc_min": None, "episode_file": "", "failed": False,
                    }
                )
            )
        (out_dir / "campaign.jsonl").write_text("\n".join(records) + "\n")
        assert run_cli("export-gp", str(out_dir), "--resolution", "8") == 0
        with open(out_dir / "gp_grid.csv") as fh:
            rows = fh.read().strip().splitlines()[1:]
        means = [float(r.split(",")[2]) for r in rows]
        assert all(abs(m + 7.5) < 1e-4 for m in means)

    def test_too_few_points_exit_2(self, tmp_path):
        out_dir = tmp_path / "camp"
        out_dir.mkdir()
        (out_dir / "campaign.jsonl").write_text(
            json.dumps({"iter": 0, "u": [0.5, 0.5], "score": 1.0, "failed": False}) + "\n"
        )
        assert run_cli("export-gp", str(out_dir)) == 2

    def test_missing_log_exit_2(self, tmp_path):
        assert run_cli("export-gp", str(tmp_path)) == 2


class TestReplay:
    def test_collision_named_in_summary(self, tmp_path, capsys, two_lane_scenario):
        episode = make_episode(
            two_lane_scenario,
            {
                "ego": straight_positions((0.0, 3.5), (10.0, 0.0), 15),
                "npc": straight_positions((15.0, 3.5), (0.0, 0.0), 15),
            },
            collision=(14, ("ego", "npc")),
        )
        (tmp_path / "scenario.yaml").write_text(TWO_LANE_YAML)
        ep_path = str(tmp_path / "ep_0000.jsonl")
        persist.write_episode(ep_path, episode, two_lane_scenario)
        assert run_cli("replay", ep_path) == 0
        out = capsys.readouterr().out
        assert "collision at t=14 between ego and npc" in out

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "ep.jsonl"
        header = json.dumps({"type": "header", "scenario_id": "x", "goals": {}})
        bad.write_text(header + "\n{not json\n")
        assert run_cli("replay", str(bad)) == 2
        err = capsys.readouterr().err
        assert ":2:" in err

    def test_metrics_match_campaign_log(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_cli(
            "run", scenario_file, "--sampler", "sobol", "--budget", "3", "--out", out,
        )
        out_dir = capsys.readouterr().out.strip()
        log = persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl"))
        rec = log[0]
        ep_path = os.path.join(out_dir, rec["episode_file"])
        assert run_cli("replay", ep_path) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        g_line = next(l for l in lines if l.startswith("criticality"))
        g = float(g_line.split("=")[1])
        assert g == pytest.approx(rec["score"], abs=1e-3)
        ttc_line = next(l for l in lines if l.startswith("ttc_min"))
        if rec["ttc_min"] is None:
            assert "inf" in ttc_line
        else:
            assert float(ttc_line.split("=")[1].split()[0]) == pytest.approx(
                rec["ttc_min"], abs=1e-3
            )

    def test_replay_agrees_with_score_episode(self, scenario_file, tmp_path, capsys):
        # single-source-of-truth: stored episode rescored from disk
        out = str(tmp_path / "out")
        run_cli(
            "run", scenario_file, "--sampler", "sobol", "--budget", "2", "--out", out,
        )
        out_dir = capsys.readouterr().out.strip()
        scenario = load_scenario_file(os.path.join(out_dir, "scenario.yaml"))
        episode, _ = persist.read_episode(
            os.path.join(out_dir, "episodes", "ep_0001.jsonl")
        )
        score = score_episode(episode, scenario)
        log = persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl"))
        assert score.min_dist == pytest.approx(log[1]["min_dist"], abs=1e-9)
