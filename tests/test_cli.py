import dataclasses
import errno
import gc
import json
import math
import os
import weakref

import pytest

import avstress
from avstress import cli, metrics, optimizer, persist
from avstress.cli import main
from avstress.metrics import score_episode
from avstress.optimizer import GpUcbSampler, SobolSampler
from avstress.planner import LatticePlanner
from avstress.scenario import load_preset, load_scenario_file, preset_path
from avstress.sobol import sobol_point
from conftest import (
    TWO_LANE_YAML,
    ScoredPrompt,
    TuplePlanner,
    agents_yaml,
    fresh_python,
    make_episode,
    record_blas_threads,
    stats_of,
    straight_positions,
)


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


class RaisingPlanner:
    def plan(self, world, scenario):
        raise RuntimeError("planner raised")


def run_with_failures(scenario_file, tmp_path, monkeypatch, capsys):
    """A budget-6 Sobol campaign whose episode 1 is marked failed after the
    simulator and whose episode 3 fails in it, through a planner that
    raises; returns its directory."""
    real = optimizer.simulate_episode
    calls = []

    def simulate(scenario, planner, policies):
        calls.append(None)
        if len(calls) == 4:
            planner = RaisingPlanner()
        episode = real(scenario, planner, policies)
        if len(calls) == 2:
            episode = dataclasses.replace(episode, failed=True, failure_reason="stuck")
        return episode

    monkeypatch.setattr(optimizer, "simulate_episode", simulate)
    out = str(tmp_path / "out")
    assert run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "6", "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: episode 1 failed: stuck\n"
        "warning: episode 3 failed: planner failed at step 0: planner raised\n")
    return captured.out.strip()


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

    def test_rerun_into_an_out_with_glob_characters(self, scenario_file, tmp_path, capsys):
        # '[1]' is a character class to glob: the earlier campaign's files
        # are found under the path as written
        argv = ("run", scenario_file, "--sampler", "sobol", "--out", str(tmp_path / "r[1]"))
        assert run_cli(*argv, "--budget", "4") == 0
        out_dir = capsys.readouterr().out.strip()
        assert run_cli(*argv, "--budget", "1") == 0
        assert os.listdir(os.path.join(out_dir, "episodes")) == ["ep_0000.jsonl"]
        assert not os.path.exists(os.path.join(out_dir, "stats.csv"))

    def test_rerun_removes_exported_gp_files(self, scenario_file, tmp_path, capsys):
        # the GP grid and samples of the earlier campaign would sit beside
        # the new campaign's log as if they had been fitted to it
        argv = ("run", scenario_file, "--sampler", "sobol", "--out", str(tmp_path))
        assert run_cli(*argv, "--budget", "4") == 0
        out_dir = capsys.readouterr().out.strip()
        assert run_cli("export-gp", out_dir, "--resolution", "4") == 0
        assert run_cli(*argv, "--budget", "3") == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == out_dir
        assert not os.path.exists(os.path.join(out_dir, "gp_grid.csv"))
        assert not os.path.exists(os.path.join(out_dir, "gp_samples.csv"))
        assert run_cli("export-gp", out_dir, "--resolution", "4") == 0
        with open(os.path.join(out_dir, "gp_samples.csv")) as fh:
            assert len(fh.read().splitlines()) == 1 + 3

    def test_zero_budget_rejected_without_outputs(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = run_cli("run", scenario_file, "--budget", "0", "--out", out)
        assert code == 2
        assert capsys.readouterr().err == "error: budget must be >= 1\n"
        assert not os.path.exists(out)

    def test_out_that_is_a_file_rejected_without_outputs(self, scenario_file, tmp_path, capsys):
        # --out itself, a path through it, and the campaign directory under
        # --out; the error names the path that could not be made
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        for arg, unmade in ((out, out / "two_lane_sobol"), (out / "sub", out / "sub")):
            assert run_cli("run", scenario_file, "--sampler", "sobol", "--out", str(arg)) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {unmade}: Not a directory\n")
            assert out.read_text() == "not a directory\n"
        root = tmp_path / "root"
        root.mkdir()
        (root / "two_lane_sobol").write_text("not a directory\n")
        assert run_cli("run", scenario_file, "--sampler", "sobol", "--out", str(root)) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {root / 'two_lane_sobol' / 'episodes'}: Not a directory\n")
        assert os.listdir(root) == ["two_lane_sobol"]
        assert (root / "two_lane_sobol").read_text() == "not a directory\n"

    # an earlier campaign's file that is a directory: `run` cannot remove,
    # copy to or open it, and names it where it is reached
    @pytest.mark.parametrize("name", [
        "campaign.jsonl", "stats.csv", "scenario.yaml", os.path.join("episodes", "ep_0000.jsonl")])
    def test_campaign_file_that_is_a_directory_exits_2_naming_it(self, name, scenario_file,
                                                                 tmp_path, capsys):
        argv = ("run", scenario_file, "--sampler", "sobol", "--budget", "2",
                "--out", str(tmp_path / "out"))
        assert run_cli(*argv) == 0
        out_dir = capsys.readouterr().out.strip()
        path = os.path.join(out_dir, name)
        os.remove(path)
        os.mkdir(path)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: Is a directory\n")
        assert os.path.isdir(path)

    def test_scenario_copy_that_is_a_named_pipe_exits_2_naming_it(self, scenario_file,
                                                                   tmp_path, capsys):
        copy = tmp_path / "out" / "two_lane_sobol" / "scenario.yaml"
        copy.parent.mkdir(parents=True)
        os.mkfifo(copy)
        argv = ("run", scenario_file, "--sampler", "sobol", "--budget", "2",
                "--out", str(tmp_path / "out"))
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: `{copy}` is a named pipe\n")

    # a Sobol run checks the GP flags too: its manifest records them
    @pytest.mark.parametrize("flag, value, error", [
        ("--beta", "nan", "beta must be finite and >= 0, got nan"),
        ("--beta", "inf", "beta must be finite and >= 0, got inf"),
        ("--candidates", "8", "candidate count must be >= 16"),
    ], ids=["nan", "inf", "candidates_8"])
    def test_non_finite_beta_rejected_before_the_campaign_is_touched(
        self, flag, value, error, scenario_file, tmp_path, capsys
    ):
        argv = ("run", scenario_file, "--sampler", "sobol", "--out", str(tmp_path / "out"))
        assert run_cli(*argv, "--budget", "3") == 0
        out_dir = capsys.readouterr().out.strip()
        before = read_bytes_tree(out_dir)
        assert run_cli(*argv, "--budget", "3", flag, value) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert read_bytes_tree(out_dir) == before

    def test_rerun_from_the_campaigns_own_scenario_copy(self, tmp_path, capsys):
        # a scenario file named scenario.yaml runs into <out>/scenario_sobol,
        # whose copy is that same name: a rerun from the copy reads and
        # writes one directory
        (tmp_path / "scenario.yaml").write_text(TWO_LANE_YAML)
        argv = ("--sampler", "sobol", "--budget", "3", "--out", str(tmp_path / "r"))
        assert run_cli("run", str(tmp_path / "scenario.yaml"), *argv) == 0
        out_dir = capsys.readouterr().out.strip()
        first = read_bytes_tree(out_dir)
        assert run_cli("run", os.path.join(out_dir, "scenario.yaml"), *argv) == 0
        assert capsys.readouterr().out.strip() == out_dir
        assert read_bytes_tree(out_dir) == first

    def test_out_root_from_the_environment(self, scenario_file, tmp_path, monkeypatch, capsys):
        env_root, out_root = str(tmp_path / "env"), str(tmp_path / "flag")
        monkeypatch.setenv(cli.OUT_ROOT_ENV, env_root)
        argv = ("run", scenario_file, "--sampler", "sobol", "--budget", "2")
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.strip() == os.path.join(env_root, "two_lane_sobol")
        assert os.path.exists(os.path.join(env_root, "two_lane_sobol", "campaign.jsonl"))
        assert run_cli(*argv, "--out", out_root) == 0
        assert capsys.readouterr().out.strip() == os.path.join(out_root, "two_lane_sobol")
        assert sorted(os.listdir(tmp_path)) == ["env", "flag", "two_lane.yaml"]

    def test_preset_name_resolves(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = run_cli(
            "run", "front", "--sampler", "sobol", "--budget", "2", "--out", out,
        )
        assert code == 0
        out_dir = capsys.readouterr().out.strip()
        assert os.path.exists(os.path.join(out_dir, "scenario.yaml"))

    def test_preset_name_beats_a_directory_of_that_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        os.mkdir("front")
        code = run_cli("run", "front", "--sampler", "sobol", "--budget", "2", "--out", "out")
        assert code == 0
        out_dir = capsys.readouterr().out.strip()
        with open(os.path.join(out_dir, "scenario.yaml"), "rb") as fh:
            copied = fh.read()
        with open(preset_path("front"), "rb") as fh:
            assert copied == fh.read()

    def test_directory_that_is_no_preset_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        os.mkdir("my_scenes")
        assert run_cli("run", "my_scenes", "--sampler", "sobol", "--budget", "2") == 2
        assert "'my_scenes' is a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["my_scenes"]

    def test_unknown_scenario_rejected(self, tmp_path):
        assert run_cli("run", "no_such_thing", "--out", str(tmp_path)) == 2

    def test_manifest_written_with_conventions(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "2", "--out", out)
        out_dir = capsys.readouterr().out.strip()
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            text = fh.read()
        manifest = json.loads(text)
        # the run's four sampler flags, for either sampler, as json writes them
        assert '"sampler": {"beta": 2.0, "budget": 2, "candidates": 1024, "kind": "sobol"}' in text
        assert manifest["conventions"] == {"ttc": persist.TTC_CONVENTION}
        assert manifest["tool_version"]

    def test_episode_header_written_from_the_scenario_and_the_record(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run_cli("run", "front", "--sampler", "sobol", "--budget", "2", "--out", out) == 0
        out_dir = capsys.readouterr().out.strip()
        with open(os.path.join(out_dir, "episodes", "ep_0000.jsonl")) as fh:
            first = fh.readline()
        assert first == (
            '{"collision": {"pair": ["ego", "npc"], "t": 35}, "dt": 0.1, "failed": false, '
            '"failure_reason": "", "goals": {"npc": [65.0, 1.75]}, "scenario_id": "front", '
            '"type": "header"}\n')
        # one simulated agent, so the record's goal_world is its one goal
        for rec in persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl")):
            with open(os.path.join(out_dir, rec["episode_file"])) as fh:
                header = json.loads(fh.readline())
            assert header["goals"] == {"npc": rec["goal_world"]}

    @pytest.mark.parametrize("kind", ["bo", "sobol"])
    def test_campaign_files_rebuild_the_sampler(self, kind, tmp_path, capsys):
        # a fresh sampler from the manifest, given the first k records read
        # back from campaign.jsonl, proposes record k's prompt bit for bit:
        # a sampler's state is a function of the records alone
        argv = ("run", "behind", "--sampler", kind, "--budget", "10", "--out", str(tmp_path))
        assert run_cli(*argv) == 0
        out_dir = capsys.readouterr().out.strip()
        flags = persist.read_manifest(os.path.join(out_dir, "manifest.json"))["sampler"]
        log = persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl"))
        records = [
            ScoredPrompt(tuple(rec["u"]), -math.inf if rec["score"] is None else rec["score"])
            for rec in log
        ]
        for k, rec in enumerate(log):
            fresh = (GpUcbSampler(flags["beta"], flags["candidates"]) if flags["kind"] == "bo"
                     else SobolSampler())
            u = fresh.propose(records[:k], len(rec["u"]))
            assert [v.hex() for v in u] == [float(v).hex() for v in rec["u"]]

    def test_tool_version_is_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
        assert version == avstress.__version__ == persist.TOOL_VERSION

    def test_run_holds_at_most_two_episodes(self, tmp_path, monkeypatch, capsys):
        # the episode being written and the one before it, which the
        # campaign loop's local still holds until the next one replaces it
        refs, alive = [], []
        real = optimizer.simulate_episode

        def simulate(*args):
            episode = real(*args)
            refs.append(weakref.ref(episode))
            gc.collect()
            alive.append([k for k, ref in enumerate(refs) if ref() is not None])
            return episode

        monkeypatch.setattr(optimizer, "simulate_episode", simulate)
        out = str(tmp_path / "out")
        assert run_cli("run", "front", "--sampler", "sobol", "--budget", "8", "--out", out) == 0
        assert capsys.readouterr().err == ""
        assert len(alive) == 8
        for k, held in enumerate(alive):
            assert set(held) <= {k - 1, k}, (k, held)
        gc.collect()
        assert [ref() for ref in refs] == [None] * 8

    def test_failed_episodes_left_out_of_stats(self, scenario_file, tmp_path, monkeypatch,
                                               capsys):
        out_dir = run_with_failures(scenario_file, tmp_path, monkeypatch, capsys)
        log = persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl"))
        assert [rec["failed"] for rec in log] == [False, True, False, True, False, False]
        assert [rec["episode_file"] for rec in log] == [persist.episode_file(i) for i in range(6)]
        scenario = load_scenario_file(scenario_file)
        failed = persist.read_episode(os.path.join(out_dir, log[3]["episode_file"]), scenario)
        assert failed.failed
        assert failed.failure_reason == "planner failed at step 0: planner raised"
        episodes = [persist.read_episode(os.path.join(out_dir, rec["episode_file"]), scenario)
                    for rec in log if not rec["failed"]]
        stats = stats_of(episodes, scenario)
        assert stats.n == 4
        want = str(tmp_path / "want.csv")
        persist.write_stats_csv(want, [("two_lane", "sobol", stats)])
        with open(want, "rb") as fh, open(os.path.join(out_dir, "stats.csv"), "rb") as got:
            assert got.read() == fh.read()

    def test_programming_error_ends_the_campaign(self, tmp_path, monkeypatch, capsys):
        # only the planner and the policies fail an episode: any other
        # exception ends the run after the records before it
        real, calls = optimizer.score_episode, []

        def score(episode, scenario):
            calls.append(None)
            if len(calls) == 4:
                raise AssertionError("scoring broke at iteration 3")
            return real(episode, scenario)

        monkeypatch.setattr(optimizer, "score_episode", score)
        out = str(tmp_path / "out")
        assert run_cli("run", "front", "--sampler", "sobol", "--budget", "6", "--out", out) == 3
        assert capsys.readouterr().err == "runtime error: scoring broke at iteration 3\n"
        out_dir = os.path.join(out, "front_sobol")
        log = persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl"))
        assert [(rec["iter"], rec["failed"]) for rec in log] == [(0, False), (1, False), (2, False)]
        assert sorted(os.listdir(os.path.join(out_dir, "episodes"))) == [
            os.path.basename(persist.episode_file(i)) for i in range(3)]
        assert not os.path.exists(os.path.join(out_dir, "stats.csv"))
        calls.clear()
        with pytest.raises(AssertionError, match="scoring broke at iteration 3"):
            optimizer.run_campaign(load_preset("front"), SobolSampler(), LatticePlanner(), 6)
        assert len(calls) == 4

    def test_plan_of_the_wrong_type_fails_only_its_episodes(self, tmp_path, monkeypatch,
                                                            capsys):
        monkeypatch.setattr(cli, "LatticePlanner", TuplePlanner)
        out = str(tmp_path / "out")
        assert run_cli("run", "front", "--sampler", "sobol", "--budget", "2", "--out", out) == 0
        reason = "planner failed at step 0: returned a tuple, not an AgentState"
        assert capsys.readouterr().err == (
            f"warning: episode 0 failed: {reason}\nwarning: episode 1 failed: {reason}\n"
            "warning: too few successful episodes for stats\n")
        out_dir = os.path.join(out, "front_sobol")
        log = persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl"))
        assert [(rec["failed"], rec["episode_file"]) for rec in log] == [
            (True, persist.episode_file(i)) for i in range(2)]
        for rec in log:
            with open(os.path.join(out_dir, rec["episode_file"])) as fh:
                header = json.loads(fh.readline())
            assert (header["failed"], header["failure_reason"]) == (True, reason)


def front_sobol_campaign(tmp_path, capsys):
    """A budget-3 Sobol campaign on the `front` preset; returns its
    directory. Its episode 0 ends at a collision between ego and npc at
    t=35, and its episode 2 runs all 81 steps without a collision."""
    out = str(tmp_path / "out")
    assert run_cli("run", "front", "--sampler", "sobol", "--budget", "3", "--out", out) == 0
    return capsys.readouterr().out.strip()


def rewrite_collision(episode_path, collision):
    """Replace the collision in an episode file's header; returns the
    header it had."""
    with open(episode_path) as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    lines[0] = json.dumps({**header, "collision": collision}, sort_keys=True)
    with open(episode_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return header


# collisions that the simulator cannot write into an episode of
# `front_sobol_campaign`, and what the episode reader says of each
BAD_COLLISIONS = pytest.mark.parametrize("iteration, collision, error", [
    (2, {"t": 999, "pair": ["ghost", "npc"]},
     'collision is {"pair": ["ghost", "npc"], "t": 999}; the simulator finds null at the last'
     ' step'),
    (2, {"t": 40, "pair": ["ego", "npc"]},
     'collision is {"pair": ["ego", "npc"], "t": 40}; the simulator finds null at the last step'),
    (0, None,
     'collision is null; the simulator finds {"pair": ["ego", "npc"], "t": 35} at the last step'),
    (0, {"t": 35, "pair": ["npc", "ego"]},
     'collision is {"pair": ["npc", "ego"], "t": 35}; the simulator finds'
     ' {"pair": ["ego", "npc"], "t": 35} at the last step'),
], ids=["agent_of_another_scenario", "before_the_last_step", "nulled_on_an_overlap",
        "pair_in_reverse_order"])


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

    def test_preset_csv_equals_stats_csv(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run_cli(
            "run", "front", "--sampler", "sobol", "--budget", "3", "--out", out,
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
        assert header == persist.STATS_COLUMNS == (
            "scenario,sampler,n,coll_pct,min_dist_mean,min_dist_std,"
            "ttc_mean,ttc_std,ttc_inf_count,ego_asd,agent_asd")

        scenario = load_scenario_file(os.path.join(dirs[1], "scenario.yaml"))
        log = persist.read_campaign_log(os.path.join(dirs[1], "campaign.jsonl"))
        episodes = [
            persist.read_episode(os.path.join(dirs[1], rec["episode_file"]), scenario)
            for rec in log
            if not rec["failed"]
        ]
        stats = stats_of(episodes, scenario)
        cells = row.split(",")
        assert cells[1] == "sobol"
        assert (cells[2], cells[8]) == (str(stats.n), str(stats.ttc_inf_count))
        assert float(cells[3]) == pytest.approx(stats.coll_pct, abs=1e-4)
        assert float(cells[4]) == pytest.approx(stats.min_dist_mean, rel=1e-4)
        assert float(cells[9]) == pytest.approx(stats.ego_asd, rel=1e-4, abs=1e-4)
        assert float(cells[10]) == pytest.approx(stats.agent_asd, rel=1e-4, abs=1e-4)

    def test_failed_records_left_out_with_their_scores(self, scenario_file, tmp_path,
                                                       monkeypatch, capsys):
        # one failed record names an episode file whose header says it
        # failed; the other names none and has no file, as a failed record
        # of an older run can; neither adds a score or a path
        out_dir = run_with_failures(scenario_file, tmp_path, monkeypatch, capsys)
        monkeypatch.undo()
        log_path = os.path.join(out_dir, "campaign.jsonl")
        with open(log_path) as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[3])
        assert record["failed"]
        os.remove(os.path.join(out_dir, record["episode_file"]))
        lines[3] = json.dumps({**record, "episode_file": ""}, sort_keys=True)
        with open(log_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        csv_path = str(tmp_path / "table.csv")
        assert run_cli("report", out_dir, "--csv", csv_path) == 0
        assert capsys.readouterr().out.splitlines()[2].split()[2] == "4"
        with open(csv_path, "rb") as fh, open(os.path.join(out_dir, "stats.csv"), "rb") as ref:
            assert fh.read() == ref.read()

    @pytest.mark.parametrize("edit, error", [
        (("dt: 0.1", "dt: 0.2"), "1: dt 0.1 is not the scenario's sim.dt 0.2"),
        (("npc", "npc_renamed"), "2: agents ['ego', 'npc'] are not the scenario's agents"
                                 " ['ego', 'npc_renamed']"),
    ], ids=["another_dt", "other_agents"])
    def test_scenario_that_did_not_run_the_episodes_skips_the_campaign(
        self, scenario_file, tmp_path, capsys, edit, error
    ):
        out = str(tmp_path / "out")
        assert run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "3",
                       "--out", out) == 0
        out_dir = capsys.readouterr().out.strip()
        scenario_copy = os.path.join(out_dir, "scenario.yaml")
        with open(scenario_copy) as fh:
            text = fh.read()
        assert edit[0] in text
        with open(scenario_copy, "w") as fh:
            fh.write(text.replace(*edit))
        assert run_cli("report", out_dir) == 2
        episode = os.path.join(out_dir, "episodes", "ep_0000.jsonl")
        assert capsys.readouterr().err == (
            f"warning: skipping '{out_dir}': {episode}:{error}\n"
            "error: no readable campaigns\n")

    @BAD_COLLISIONS
    def test_collision_the_scenario_cannot_have_skips_the_campaign(self, tmp_path, capsys,
                                                                   iteration, collision, error):
        out_dir = front_sobol_campaign(tmp_path, capsys)
        episode = os.path.join(out_dir, persist.episode_file(iteration))
        assert rewrite_collision(episode, collision)["collision"] != collision
        assert run_cli("report", out_dir) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"warning: skipping '{out_dir}': {episode}:1: {error}\n"
            "error: no readable campaigns\n"))

    def test_unreadable_campaigns_exit_2(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert run_cli("report", str(empty)) == 2

    # each the error that opening the path to write would raise
    UNWRITABLE_CSV = {"missing_dir/x.csv": "No such file or directory",
                      "a_directory": "Is a directory", "a_file/x.csv": "Not a directory"}

    @pytest.mark.parametrize("bad", sorted(UNWRITABLE_CSV))
    def test_unwritable_csv_path_exit_2_before_reading(self, bad, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "out")
        assert run_cli("run", "front", "--sampler", "sobol", "--budget", "2", "--out", out) == 0
        out_dir = capsys.readouterr().out.strip()
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "a_file").write_text("not a directory\n")
        read = []
        monkeypatch.setattr(cli, "_campaign_row", lambda d: read.append(d))
        csv_path = str(tmp_path / bad)
        assert run_cli("report", out_dir, "--csv", csv_path) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {csv_path}: {self.UNWRITABLE_CSV[bad]}\n")
        assert read == []
        assert not os.path.exists(tmp_path / "missing_dir")
        assert (tmp_path / "a_file").read_text() == "not a directory\n"

    def test_csv_that_cannot_be_opened_exit_2_before_the_table(self, tmp_path, monkeypatch,
                                                               capsys):
        # root writes a file whatever its mode, so the writer's open()
        # refuses the one path as it refuses a file without write permission
        out_dir = front_sobol_campaign(tmp_path, capsys)
        csv_path = str(tmp_path / "table.csv")

        def refusing_open(path, *args, **kwargs):
            if path == csv_path:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr("avstress.persist.open", refusing_open, raising=False)
        assert run_cli("report", out_dir, "--csv", csv_path) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {csv_path}: Permission denied\n")
        assert not os.path.exists(csv_path)


# runs `export-gp` in a fresh interpreter: its exit status, and which of
# numpy and scipy it loaded
EXPORT_GP_SCRIPT = """
import json, sys
import avstress.cli

status = avstress.cli.main(["export-gp", sys.argv[1]])
print(json.dumps([status, sorted({"numpy", "scipy"} & set(sys.modules))]))
"""


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
                        "ttc_min": None, "episode_file": f"episodes/ep_{i - 1:04d}.jsonl",
                        "failed": False,
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
            json.dumps({"iter": 0, "u": [0.5, 0.5], "score": 1.0, "failed": False,
                        "episode_file": "episodes/ep_0000.jsonl"}) + "\n"
        )
        assert run_cli("export-gp", str(out_dir)) == 2

    def test_missing_log_exit_2(self, tmp_path):
        assert run_cli("export-gp", str(tmp_path)) == 2

    def test_one_blas_thread_inside_the_gp_and_previous_count_after(self, tmp_path, monkeypatch):
        controls, inside = record_blas_threads(monkeypatch)
        before = [get() for get, _ in controls]
        out_dir = tmp_path / "camp"
        out_dir.mkdir()
        records = [
            json.dumps({"iter": i - 1, "u": list(sobol_point(i)), "score": -float(i),
                        "failed": False, "episode_file": f"episodes/ep_{i - 1:04d}.jsonl"})
            for i in range(1, 7)
        ]
        (out_dir / "campaign.jsonl").write_text("\n".join(records) + "\n")
        assert run_cli("export-gp", str(out_dir), "--resolution", "4") == 0
        # the fit's factorizations, then the grid's kernel calls
        assert {name for name, _ in inside} == {"_factor", "kernel_matrix"}
        assert all(counts == [1] * len(controls) for _, counts in inside)
        assert [get() for get, _ in controls] == before

    def test_prompt_space_not_2d_exit_2_before_numpy_loads(self, tmp_path):
        # a 3-agent campaign's 6-D prompts, in a fresh interpreter
        out_dir = tmp_path / "camp"
        out_dir.mkdir()
        records = [
            json.dumps({"iter": i - 1, "u": list(sobol_point(i, dim=6)), "score": -float(i),
                        "failed": False, "episode_file": f"episodes/ep_{i - 1:04d}.jsonl"})
            for i in range(1, 7)
        ]
        (out_dir / "campaign.jsonl").write_text("\n".join(records) + "\n")
        with fresh_python("-c", EXPORT_GP_SCRIPT, str(out_dir)) as proc:
            out, err = proc.communicate(timeout=120)
        assert json.loads(out) == [2, []]
        assert err == "error: GP grid export supports 2-D prompt spaces only\n"
        assert not (out_dir / "gp_grid.csv").exists()

    def test_bad_resolution_exit_2_before_the_fit(self, tmp_path, capsys, monkeypatch):
        from avstress import surrogate

        def no_fit(*args, **kwargs):
            raise AssertionError("the GP was fitted")

        monkeypatch.setattr(surrogate, "fit", no_fit)
        out_dir = tmp_path / "camp"
        out_dir.mkdir()
        records = [
            json.dumps({"iter": i - 1, "u": list(sobol_point(i)), "score": -float(i),
                        "failed": False, "episode_file": f"episodes/ep_{i - 1:04d}.jsonl"})
            for i in range(1, 7)
        ]
        (out_dir / "campaign.jsonl").write_text("\n".join(records) + "\n")
        assert run_cli("export-gp", str(out_dir), "--resolution", "1") == 2
        assert capsys.readouterr().err == "error: grid resolution must be >= 2\n"
        assert not (out_dir / "gp_grid.csv").exists()

    @pytest.mark.parametrize("name", ["gp_grid.csv", "gp_samples.csv"])
    def test_gp_file_that_is_a_directory_exit_2_before_the_fit(self, name, tmp_path,
                                                                monkeypatch, capsys):
        from avstress import surrogate

        out_dir = front_sobol_campaign(tmp_path, capsys)
        bad = os.path.join(out_dir, name)
        os.mkdir(bad)
        fits = []
        real_fit = surrogate.fit

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(surrogate, "fit", counting_fit)
        assert run_cli("export-gp", out_dir, "--resolution", "4") == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {bad}: Is a directory\n")
        assert fits == []
        assert not any(os.path.isfile(os.path.join(out_dir, f)) for f in persist.GP_FILES)


class TestReplay:
    def test_collision_named_in_summary(self, tmp_path, capsys, two_lane_scenario):
        episode = make_episode(
            {
                "ego": straight_positions((0.0, 3.5), (10.0, 0.0), 15),
                "npc": straight_positions((15.0, 3.5), (0.0, 0.0), 15),
            },
            collision=(14, ("ego", "npc")),
        )
        # make_episode's agents stand still at t = 0
        (tmp_path / "scenario.yaml").write_text(TWO_LANE_YAML.replace("speed: 10.0", "speed: 0.0"))
        ep_path = str(tmp_path / "ep_0000.jsonl")
        persist.write_episode(ep_path, episode, {}, two_lane_scenario)
        assert run_cli("replay", ep_path) == 0
        out = capsys.readouterr().out
        assert "collision at t=14 between ego and npc" in out

    # ego at the origin; both agents 2.5 m away at t = 0, which is not
    # scored, and 3 m away at the closest after it. The agents are 2 m long,
    # so that none overlaps the ego at t = 2, where the horizon ends the
    # episode
    @pytest.mark.parametrize("npc,npc2,expected", [
        # both agents 3 m away at t = 1, npc2 again at t = 2
        ([(2.5, 0.0), (3.0, 0.0), (5.0, 0.0)], [(0.0, 2.5), (0.0, 3.0), (0.0, -3.0)],
         "t=1 vs agent 'npc'"),
        # npc2 3 m away at t = 1, both agents at t = 2
        ([(2.5, 0.0), (4.0, 0.0), (-3.0, 0.0)], [(0.0, 2.5), (0.0, 3.0), (0.0, -3.0)],
         "t=1 vs agent 'npc2'"),
    ], ids=["tie_at_one_step", "tie_across_steps"])
    def test_ties_go_to_the_earliest_step_then_the_first_agent(
        self, tmp_path, capsys, npc, npc2, expected
    ):
        # the scenario starts the agents where make_episode has them at t = 0
        (tmp_path / "scenario.yaml").write_text(
            agents_yaml(2).replace("length: 4.8, width: 2.0", "length: 2.0, width: 1.0")
            .replace("horizon_steps: 80", "horizon_steps: 2")
            .replace("speed: 10.0", "speed: 0.0")
            .replace("x: 0.0, y: 3.5", "x: 0.0, y: 0.0")
            .replace("x: 15.0, y: 3.5", "x: 2.5, y: 0.0")
            .replace("x: 35.0, y: 0.0", "x: 0.0, y: 2.5"))
        scenario = load_scenario_file(str(tmp_path / "scenario.yaml"))
        episode = make_episode({"ego": [(0.0, 0.0)] * 3, "npc": npc, "npc2": npc2})
        ep_path = str(tmp_path / "ep_0000.jsonl")
        persist.write_episode(ep_path, episode, {}, scenario)
        assert run_cli("replay", ep_path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"min distance 3.000 m at {expected}" in lines

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "ep.jsonl"
        header = json.dumps({"type": "header", "scenario_id": "x", "goals": {}})
        bad.write_text(header + "\n{not json\n")
        (tmp_path / "scenario.yaml").write_text(TWO_LANE_YAML)
        assert run_cli("replay", str(bad)) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"
        )

    def test_missing_episode_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "scenario.yaml").write_text(TWO_LANE_YAML)
        missing = str(tmp_path / "nope.jsonl")
        assert run_cli("replay", missing) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_missing_scenario_file_exit_2(self, tmp_path, capsys, two_lane_scenario):
        # a failed episode, as the two-lane scenario ends one this short
        episode = make_episode({
            "ego": straight_positions((0.0, 3.5), (10.0, 0.0), 3),
            "npc": straight_positions((15.0, 3.5), (0.0, 0.0), 3),
        }, failed=True)
        ep_path = str(tmp_path / "ep_0000.jsonl")
        persist.write_episode(ep_path, episode, {}, two_lane_scenario)
        missing = str(tmp_path / "nope.yaml")
        assert run_cli("replay", ep_path, "--scenario", missing) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: scenario '{missing}' is neither a file nor a preset name\n"
        assert captured.out == ""

    def test_directory_as_episode_file_exit_2(self, tmp_path, capsys):
        episodes = tmp_path / "episodes"
        episodes.mkdir()
        (tmp_path / "scenario.yaml").write_text(TWO_LANE_YAML)
        # a campaign directory in place of one of its episodes: no scenario
        # beside it or above it
        assert run_cli("replay", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no scenario.yaml found near '{tmp_path}'\n"
        assert captured.out == ""
        # the episodes directory, beside the campaign's scenario
        assert run_cli("replay", str(episodes)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {episodes}: Is a directory\n"
        assert captured.out == ""

    def test_directory_as_scenario_file_exit_2(self, tmp_path, capsys, two_lane_scenario):
        # a failed episode, as the two-lane scenario ends one this short
        episode = make_episode({
            "ego": straight_positions((0.0, 3.5), (10.0, 0.0), 3),
            "npc": straight_positions((15.0, 3.5), (0.0, 0.0), 3),
        }, failed=True)
        ep_path = str(tmp_path / "ep_0000.jsonl")
        persist.write_episode(ep_path, episode, {}, two_lane_scenario)
        assert run_cli("replay", ep_path, "--scenario", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: scenario '{tmp_path}' is a directory, not a scenario file or a preset name\n")
        assert captured.out == ""

    def test_scenario_option_takes_a_preset_name(self, tmp_path, monkeypatch, capsys):
        out_dir = front_sobol_campaign(tmp_path, capsys)
        monkeypatch.chdir(tmp_path)
        ep_path = os.path.join(out_dir, "episodes", "ep_0000.jsonl")
        assert run_cli("replay", ep_path) == 0
        with_the_campaigns_scenario = capsys.readouterr().out
        assert run_cli("replay", ep_path, "--scenario", "front") == 0
        assert capsys.readouterr().out == with_the_campaigns_scenario

    @BAD_COLLISIONS
    def test_collision_the_scenario_cannot_have_exit_2_before_printing(self, tmp_path, capsys,
                                                                       iteration, collision,
                                                                       error):
        out_dir = front_sobol_campaign(tmp_path, capsys)
        episode = os.path.join(out_dir, persist.episode_file(iteration))
        assert rewrite_collision(episode, collision)["collision"] != collision
        assert run_cli("replay", episode) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {episode}:1: {error}\n")

    def test_scenario_with_other_agents_exit_2_before_printing(
        self, tmp_path, capsys, two_lane_scenario
    ):
        # a failed episode, as the two-lane scenario ends one this short
        episode = make_episode({
            "ego": straight_positions((0.0, 3.5), (10.0, 0.0), 5),
            "npc": straight_positions((15.0, 3.5), (0.0, 0.0), 5),
        }, failed=True)
        ep_path = str(tmp_path / "ep_0000.jsonl")
        persist.write_episode(ep_path, episode, {}, two_lane_scenario)
        other = tmp_path / "other.yaml"
        other.write_text(TWO_LANE_YAML.replace("npc", "car7"))
        assert run_cli("replay", ep_path, "--scenario", str(other)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {ep_path}:2: agents ['ego', 'npc'] are not the scenario's agents"
            " ['car7', 'ego']\n")

    @pytest.mark.parametrize("other", ["behind", "front_right"])
    def test_scenario_with_other_initial_states_exit_2_before_printing(
        self, tmp_path, capsys, other
    ):
        # the presets share their agent ids and sim block, not their start
        ep_path = os.path.join(front_sobol_campaign(tmp_path, capsys), "episodes",
                               "ep_0000.jsonl")
        assert run_cli("replay", ep_path, "--scenario", other) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {ep_path}:2: the state of 'npc' at t=0 is not the scenario's initial state\n")

    def test_scenario_at_another_dt_exit_2_before_printing(
        self, tmp_path, capsys, two_lane_scenario
    ):
        # TTC counts steps of the scenario's sim.dt: at twice the episode's
        # dt it would print twice the TTC
        # a failed episode, as the two-lane scenario ends one this short
        episode = make_episode({
            "ego": straight_positions((0.0, 3.5), (10.0, 0.0), 5),
            "npc": straight_positions((15.0, 3.5), (0.0, 0.0), 5),
        }, failed=True)
        ep_path = str(tmp_path / "ep_0000.jsonl")
        persist.write_episode(ep_path, episode, {}, two_lane_scenario)
        other = tmp_path / "other.yaml"
        other.write_text(TWO_LANE_YAML.replace("dt: 0.1", "dt: 0.2"))
        assert run_cli("replay", ep_path, "--scenario", str(other)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ep_path}:1: dt 0.1 is not the scenario's sim.dt 0.2\n"

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
        episode = persist.read_episode(os.path.join(out_dir, "episodes", "ep_0001.jsonl"),
                                       scenario)
        score = score_episode(episode, scenario)
        log = persist.read_campaign_log(os.path.join(out_dir, "campaign.jsonl"))
        assert score.min_dist == pytest.approx(log[1]["min_dist"], abs=1e-9)

    def test_scenario_is_looked_up_in_the_campaign_only(self, scenario_file, tmp_path,
                                                        capsys):
        # a scenario.yaml above the campaign directory did not run its episodes
        out = tmp_path / "out"
        assert run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "2",
                       "--out", str(out)) == 0
        out_dir = capsys.readouterr().out.strip()
        os.remove(os.path.join(out_dir, "scenario.yaml"))
        (out / "scenario.yaml").write_text(TWO_LANE_YAML.replace("length: 4.8", "length: 12.0"))
        ep_path = os.path.join(out_dir, "episodes", "ep_0000.jsonl")
        assert run_cli("replay", ep_path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no scenario.yaml found near '{ep_path}'\n"


# runs in a fresh interpreter: which modules are loaded after `import
# avstress.cli`, after a Sobol run, `report` and `replay`, after a budget-2
# BO run (two Sobol bootstraps, no GP fit), after `import
# avstress.fit_helper`, and after a BO run that fits
LOADED_MODULES_SCRIPT = """
import contextlib, io, json, os, sys
import avstress.cli

def loaded():
    return sorted({"numpy", "scipy"} & set(sys.modules))

out = sys.argv[1]
seen = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["run", "front", "--sampler", "sobol", "--budget", "3", "--out", out],
                 ["report", os.path.join(out, "front_sobol")],
                 ["replay", os.path.join(out, "front_sobol", "episodes", "ep_0002.jsonl")]):
        assert avstress.cli.main(argv) == 0, argv
seen.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    argv = ["run", "front", "--sampler", "bo", "--budget", "2", "--out", out]
    assert avstress.cli.main(argv) == 0, argv
seen.append(loaded())
import avstress.fit_helper
seen.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    argv = ["run", "front", "--sampler", "bo", "--budget", "3", "--out", out]
    assert avstress.cli.main(argv) == 0, argv
seen.append(loaded())
print(json.dumps(seen))
"""


def test_only_bo_loads_numpy_and_scipy(tmp_path):
    # numpy and scipy take most of a second to import; Sobol runs, `report`
    # and `replay` use neither, so they must not pay for them. Nor does a
    # BO campaign before its first GP fit, or its fit helper's module: the
    # campaign opens its helper when it starts. The last BO run shows that
    # the check sees the libraries when they are loaded.
    with fresh_python("-c", LOADED_MODULES_SCRIPT, str(tmp_path)) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    after_import, after_sobol, after_bootstrap, after_helper, after_bo = json.loads(out)
    assert after_import == []
    assert after_sobol == []
    assert after_bootstrap == []
    assert after_helper == []
    assert after_bo == ["numpy", "scipy"]


# what open() raises on a file whose first byte is 0xff, in a UTF-8 locale
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


class TestExitCodes:
    """Bad input exits 2 with a message that names the file; any other
    exception is a fault of the program and exits 3, in every command."""

    def test_value_error_inside_the_campaign_exits_3(self, tmp_path, monkeypatch, capsys):
        def score(episode, scenario):
            raise ValueError("scoring broke")

        monkeypatch.setattr(optimizer, "score_episode", score)
        out = str(tmp_path / "out")
        assert run_cli("run", "front", "--sampler", "sobol", "--budget", "2", "--out", out) == 3
        assert capsys.readouterr().err == "runtime error: scoring broke\n"

    def test_gp_that_cannot_factorize_exits_3_in_run_and_export_gp(
        self, scenario_file, tmp_path, monkeypatch, capsys
    ):
        import numpy as np
        from avstress import surrogate

        out = str(tmp_path / "out")
        assert run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "4",
                       "--out", out) == 0
        sobol_dir = capsys.readouterr().out.strip()

        def factor(K, noise_variance):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(surrogate, "_factor", factor)
        assert run_cli("run", scenario_file, "--sampler", "bo", "--budget", "3",
                       "--out", out) == 3
        assert capsys.readouterr().err == "runtime error: not positive definite\n"
        assert run_cli("export-gp", sobol_dir) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "runtime error: not positive definite\n")
        assert not os.path.exists(os.path.join(sobol_dir, "gp_grid.csv"))

    def test_fault_in_report_exits_3_and_skips_no_campaign(self, scenario_file, tmp_path,
                                                            monkeypatch, capsys):
        out = str(tmp_path / "out")
        assert run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "3",
                       "--out", out) == 0
        out_dir = capsys.readouterr().out.strip()

        def score(episode, scenario):
            raise AssertionError("bug in scoring")

        monkeypatch.setattr(metrics, "score_episode", score)
        assert run_cli("report", out_dir) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "runtime error: bug in scoring\n")

    def test_report_skips_a_campaign_of_one_successful_episode(self, scenario_file, tmp_path,
                                                               capsys):
        out = str(tmp_path / "out")
        assert run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "1",
                       "--out", out) == 0
        out_dir = capsys.readouterr().out.strip()
        assert run_cli("report", out_dir) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping '{out_dir}': campaign statistics need at least 2 successful"
            " episodes\nerror: no readable campaigns\n")

    def test_scenario_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"\xff" + TWO_LANE_YAML.encode())
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {path}: {NOT_UTF8}\n"

    def test_episode_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        (tmp_path / "scenario.yaml").write_text(TWO_LANE_YAML)
        path = tmp_path / "ep_0000.jsonl"
        path.write_bytes(b"\xff{}\n")
        assert run_cli("replay", str(path)) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: {NOT_UTF8}\n")

    def test_campaign_log_that_is_not_utf8_names_the_file(self, scenario_file, tmp_path,
                                                         capsys):
        out = str(tmp_path / "out")
        assert run_cli("run", scenario_file, "--sampler", "sobol", "--budget", "3",
                       "--out", out) == 0
        out_dir = capsys.readouterr().out.strip()
        log = os.path.join(out_dir, "campaign.jsonl")
        with open(log, "rb") as fh:
            data = fh.read()
        with open(log, "wb") as fh:
            fh.write(b"\xff" + data)
        assert run_cli("export-gp", out_dir) == 2
        assert capsys.readouterr().err == f"error: {log}: {NOT_UTF8}\n"
        assert run_cli("report", out_dir) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping '{out_dir}': {log}: {NOT_UTF8}\n"
            "error: no readable campaigns\n")

    def test_campaign_log_that_is_a_directory_names_the_file(self, tmp_path, capsys):
        out_dir = front_sobol_campaign(tmp_path, capsys)
        log = os.path.join(out_dir, "campaign.jsonl")
        os.remove(log)
        os.mkdir(log)
        assert run_cli("export-gp", out_dir) == 2
        assert capsys.readouterr().err == f"error: {log}: Is a directory\n"
        assert run_cli("report", out_dir) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping '{out_dir}': {log}: Is a directory\n"
            "error: no readable campaigns\n")

    @pytest.mark.parametrize("command", [
        "run", "replay", "replay_scenario", "export-gp", "report"])
    def test_file_that_cannot_be_opened_names_the_file(self, command, tmp_path, monkeypatch,
                                                       capsys):
        # root reads a file whatever its mode, so rather than a chmod, the
        # readers' open() refuses the one file as it refuses a file without
        # read permission
        out_dir = front_sobol_campaign(tmp_path, capsys)
        episode = os.path.join(out_dir, "episodes", "ep_0000.jsonl")
        scenario_copy = os.path.join(out_dir, "scenario.yaml")
        rerun = str(tmp_path / "rerun")
        denied, argv = {
            "run": (scenario_copy, ["run", scenario_copy, "--out", rerun]),
            "replay": (episode, ["replay", episode]),
            "replay_scenario": (scenario_copy, ["replay", episode, "--scenario", scenario_copy]),
            "export-gp": (os.path.join(out_dir, "campaign.jsonl"), ["export-gp", out_dir]),
            "report": (os.path.join(out_dir, "manifest.json"), ["report", out_dir]),
        }[command]

        def refusing_open(path, *args, **kwargs):
            if path == denied:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr("avstress.scenario.open", refusing_open, raising=False)
        status = run_cli(*argv)
        captured = capsys.readouterr()
        error = f"{denied}: Permission denied"
        if command == "report":
            error = f"warning: skipping '{out_dir}': {error}\nerror: no readable campaigns"
        else:
            error = f"error: {error}"
        assert (status, captured.out, captured.err) == (2, "", error + "\n")
        assert not os.path.exists(rerun)
