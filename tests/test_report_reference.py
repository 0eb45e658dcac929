"""`report`'s readers and statistics against the formulas they replaced.

`metrics.asd` computes each pair of distinct trajectories once, and
`persist.read_episode` decodes a trace line with `JSONDecoder.raw_decode`.
Both must give what the plain versions below give, bit for bit: `reference_asd`
and `reference_read_episode` are the code they replaced, verbatim, except
that the reference reader no longer keeps the header's goals, scenario id and
dt, which `Episode` dropped. `persist.read_episode` also refuses a file whose
dt or agent ids are not its scenario's, or that the simulator cannot have
written: steps out of order, a length its ending rule does not give, or a
collision that is not the overlap of the last step. Every file here is one
that `TWO_LANE_YAML`'s scenario can have run, unless a test says otherwise.
"""
import json
import math
import os
import re
import tracemalloc

import pytest

from avstress import cli, metrics, persist
from avstress.geom import Point2
from avstress.metrics import asd
from avstress.optimizer import SobolSampler
from avstress.planner import LatticePlanner
from avstress.scenario import PRESET_NAMES, InputError, load_preset, load_scenario
from avstress.sim import AgentState, Episode, JointState
from conftest import TWO_LANE_YAML, run_collecting, stats_of

SCENARIO = load_scenario(TWO_LANE_YAML, "two_lane")


def read_episode(path):
    return persist.read_episode(path, SCENARIO)


def reference_asd(trajectories):
    n_e = len(trajectories)
    if n_e < 2:
        raise ValueError("ASD needs at least 2 trajectories")
    if not all(trajectories):
        raise ValueError("trajectories must be nonempty")
    total = 0.0
    for i in range(n_e):
        for j in range(i + 1, n_e):
            a, b = trajectories[i], trajectories[j]
            # math.dist rounds as math.hypot of the coordinate differences
            # does: CPython takes both through the same vector_norm
            total += sum(map(math.dist, a, b)) / min(len(a), len(b))
    return total / (n_e * (n_e - 1))


def reference_read_episode(path):
    """Parse an episode JSONL file; returns (episode, header dict)."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty episode file")
    try:
        header = json.loads(lines[0])
        if header.get("type") != "header":
            raise ValueError("first record is not a header")
    except (json.JSONDecodeError, ValueError) as exc:
        raise ValueError(f"{path}:1: {exc}") from exc
    trace = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            states = {
                aid: AgentState(
                    Point2(float(s["x"]), float(s["y"])),
                    float(s["heading"]),
                    float(s["speed"]),
                )
                for aid, s in rec["agents"].items()
            }
            trace.append(JointState(int(rec["t"]), states))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    collision = None
    if header.get("collision"):
        collision = (
            int(header["collision"]["t"]),
            tuple(header["collision"]["pair"]),
        )
    episode = Episode(
        trace=trace,
        collision=collision,
        failed=bool(header.get("failed", False)),
        failure_reason=header.get("failure_reason", ""),
    )
    return episode, header


def line_of(k, n=6, y=0.0):
    """A trajectory of n points along y, offset by k along x."""
    return [(k + 0.37 * s, y + 0.011 * s * s) for s in range(n)]


def count_pairs(monkeypatch):
    calls = []
    real = metrics._pair_distance
    monkeypatch.setattr(metrics, "_pair_distance", lambda a, b: calls.append(1) or real(a, b))
    return calls


class TestAsdBits:
    CASES = {
        "exact_duplicates": [line_of(0), line_of(1), line_of(0), line_of(2), line_of(1),
                             line_of(0)],
        "list_and_tuple": [line_of(0), tuple(line_of(0)), line_of(3), tuple(line_of(3)),
                           [list(p) for p in line_of(0)]],
        "signed_zero": [[(0.0, -0.0), (1.5, 0.0)], [(-0.0, 0.0), (1.5, -0.0)],
                        [(0.25, 0.0), (1.0, 2.0)], [(0.0, 0.0), (1.5, 0.0)]],
        "collision_truncated": [line_of(0, 9), line_of(0, 4), line_of(0, 9), line_of(0, 2),
                                line_of(0, 4), line_of(5, 9)],
        "permuted": [line_of(2), line_of(0), line_of(1), line_of(0), line_of(2), line_of(3)],
        "all_equal": [line_of(4)] * 7,
        "all_distinct": [line_of(k, 8, y=0.3 * k) for k in range(9)],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_bits_match_the_plain_double_loop(self, name):
        trajs = self.CASES[name]
        assert asd(trajs).hex() == reference_asd(trajs).hex()

    def test_permutations_of_a_campaign_match(self):
        trajs = [line_of(k % 4, 5 + k % 3) for k in range(12)]
        for shift in range(len(trajs)):
            perm = trajs[shift:] + trajs[:shift]
            assert asd(perm).hex() == reference_asd(perm).hex()
            assert asd(perm[::-1]).hex() == reference_asd(perm[::-1]).hex()

    def test_each_pair_of_groups_is_computed_once(self, monkeypatch):
        calls = count_pairs(monkeypatch)
        # 3 groups of sizes 3, 2 and 1: 3 pairs between groups, and a pair
        # within each of the two groups that repeat
        asd(self.CASES["exact_duplicates"])
        assert len(calls) == 3 + 2
        calls.clear()
        asd(self.CASES["all_equal"])
        assert len(calls) == 1

    def test_unique_trajectories_take_no_memo_entry(self, monkeypatch):
        # every pair computed directly, as in the plain double loop, and no
        # memo held: 2,775 entries would take well over 200 kB. With one of
        # 74 distinct trajectories repeated, only the 74 pairs of groups that
        # involve the repeated one are kept
        distinct = [line_of(k, 81, y=0.01 * k) for k in range(75)]
        one_repeat = distinct[:74] + [distinct[37]]
        for trajs, pairs in ((distinct, 75 * 74 // 2), (one_repeat, 74 * 73 // 2 + 1)):
            asd(trajs)
            tracemalloc.start()
            try:
                asd(trajs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000
            with monkeypatch.context() as m:
                calls = count_pairs(m)
                assert asd(trajs).hex() == reference_asd(trajs).hex()
            assert len(calls) == pairs


@pytest.fixture(scope="module")
def sobol_campaigns():
    """A budget-75 Sobol campaign on each preset."""
    out = {}
    for name in PRESET_NAMES:
        scenario = load_preset(name)
        pairs = run_collecting(scenario, SobolSampler(), LatticePlanner(), 75)
        out[name] = (scenario, [(r, e) for r, e in pairs if not r.failed])
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_campaign_stats_of_each_preset_field_by_field(name, sobol_campaigns, monkeypatch):
    scenario, good = sobol_campaigns[name]
    episodes, scores = [e for _, e in good], [r.metrics for r, _ in good]
    # the ego repeats its path in these campaigns, so the groups are used
    ego = {tuple(metrics.agent_trajectory(e, scenario.ego.id)) for e in episodes}
    assert len(ego) < len(episodes)
    got = stats_of(episodes, scenario, scores)
    monkeypatch.setattr(metrics, "asd", reference_asd)
    want = stats_of(episodes, scenario, scores)
    for field in got.__dataclass_fields__:
        g, w = getattr(got, field), getattr(want, field)
        assert type(g) is type(w), field
        assert (g.hex() if isinstance(g, float) else g) == (
            w.hex() if isinstance(w, float) else w), field


GOOD_LINE = ('{"agents": {"ego": {"heading": 0.25, "speed": 3.0, "x": 1.5, "y": -0.0}, '
             '"npc": {"heading": -0.0, "speed": 0.0, "x": 20.0, "y": 3.5}}, "t": 1}')
# the trace line of TWO_LANE_YAML's initial state, as write_episode writes it
FIRST_LINE = ('{"agents": {"ego": {"heading": 0.0, "speed": 10.0, "x": 0.0, "y": 3.5}, '
              '"npc": {"heading": 0.0, "speed": 10.0, "x": 15.0, "y": 3.5}}, "t": 0}')
# GOOD_LINE with the npc moved onto the ego, which it overlaps
CRASH_LINE = GOOD_LINE.replace('"x": 20.0, "y": 3.5', '"x": 5.0, "y": 0.5')
# an episode whose trace is FIRST_LINE and CRASH_LINE: it ends at the
# collision at t=1
HEADER = json.dumps({"type": "header", "scenario_id": "two_lane", "dt": 0.1,
                     "goals": {"npc": [30.0, 3.5]},
                     "collision": {"t": 1, "pair": ["ego", "npc"]},
                     "failed": False, "failure_reason": ""}, sort_keys=True)
# the odd lines below end a trace after FIRST_LINE at step 0 or 1, with no
# overlap, as an episode that failed there ends
TRACE_HEADER = json.dumps({**json.loads(HEADER), "collision": None, "failed": True,
                           "failure_reason": "planner raised"}, sort_keys=True)

TRACE_LINES = {
    "valid": GOOD_LINE,
    "leading_whitespace": "  " + GOOD_LINE,
    "trailing_whitespace": GOOD_LINE + " \t",
    "blank": " \t ",
    "bom": "\ufeff" + GOOD_LINE,
    "trailing_garbage": GOOD_LINE + "x",
    "two_objects": GOOD_LINE + " " + GOOD_LINE,
    "two_objects_no_space": GOOD_LINE + GOOD_LINE,
    "bare_array": "[1, 2]",
    "bare_number": "5",
    "bare_string": '"agents"',
    "unterminated_string": '{"agents": {"ego',
    "missing_key": GOOD_LINE.replace('"speed": 3.0, ', ""),
    "missing_t": GOOD_LINE.replace(', "t": 1', ""),
    "nan": GOOD_LINE.replace("0.25", "NaN"),
    "infinite_t": GOOD_LINE.replace('"t": 1', '"t": 1e999'),
    "fractional_t": GOOD_LINE.replace('"t": 1', '"t": 0.7'),
    "float_t": GOOD_LINE.replace('"t": 1', '"t": 1.0'),
    "string_t": GOOD_LINE.replace('"t": 1', '"t": "0"'),
    "bool_t": GOOD_LINE.replace('"t": 1', '"t": true'),
    "negative_speed": GOOD_LINE.replace("3.0", "-3.0"),
    "string_value": GOOD_LINE.replace("1.5", '"1.5"'),
    "string_speed": GOOD_LINE.replace('"speed": 3.0', '"speed": "10.3"'),
    "bool_value": GOOD_LINE.replace('"x": 1.5', '"x": true'),
    "int_value": GOOD_LINE.replace('"x": 20.0', '"x": 20'),
    "agents_not_object": '{"agents": [], "t": 1}',
}


READABLE = {"valid", "leading_whitespace", "trailing_whitespace", "blank", "int_value"}
# lines on which the reference raised an error that named no file: json
# parses 1e999 as inf, which int() refuses, and a list has no .items()
MENDED = {"infinite_t": (OverflowError, "step is not an integer: inf"),
          "agents_not_object": (AttributeError, "'list' object has no attribute 'items'")}
# lines the reference read with a wrong step, through int(): 0.7 and "0" as
# 0, true as 1. The reader refuses a step that is not a JSON integer, as
# the writer refuses one that is not an int
STEP_MENDED = {"fractional_t": "0.7", "float_t": "1.0", "string_t": "'0'", "bool_t": "True"}
# lines the reference read through float(), which takes "1.5" as 1.5 and
# true as 1.0. The reader takes a value only as a JSON number, not a bool,
# the rule read_campaign_log applies to a record's numbers
VALUE_MENDED = {"string_value": "x is not a number: '1.5'",
                "string_speed": "speed is not a number: '10.3'",
                "bool_value": "x is not a number: True"}


def read_outcome(reader, path):
    try:
        return reader(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(TRACE_LINES))
def test_reader_matches_the_reference_on_odd_trace_lines(name, tmp_path):
    path = str(tmp_path / "ep.jsonl")
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n" + FIRST_LINE + "\n" + TRACE_LINES[name] + "\n")
    want = read_outcome(lambda p: reference_read_episode(p)[0], path)
    got = read_outcome(read_episode, path)
    if name in MENDED:
        reference_error, message = MENDED[name]
        assert want[0] is reference_error
        assert got == (InputError, f"{path}:3: {message}")
    elif name in STEP_MENDED:
        assert isinstance(want, Episode)
        assert got == (InputError, f"{path}:3: step is not an integer: {STEP_MENDED[name]}")
    elif name in VALUE_MENDED:
        assert isinstance(want, Episode)
        assert got == (InputError, f"{path}:3: {VALUE_MENDED[name]}")
    elif name in READABLE:
        assert isinstance(got, Episode)
        assert got == want
    else:
        # the reference raised the built-in ValueError, with the same message
        assert want[0] is ValueError
        assert got == (InputError, want[1])
        assert got[1].startswith(f"{path}:3: ")


def write_episode_file(tmp_path, header_fields):
    header = json.loads(HEADER)
    header.update(header_fields)
    path = tmp_path / "ep_0000.jsonl"
    path.write_text(json.dumps(header) + "\n" + FIRST_LINE + "\n" + CRASH_LINE + "\n")
    return str(path)


def not_the_crash(collision):
    """What the reader says of a header whose collision, as JSON, is not
    that of the episode of HEADER."""
    return (f"collision is {collision}; the simulator finds"
            ' {"pair": ["ego", "npc"], "t": 1} at the last step')


BAD_HEADERS = {
    # the collision must be the simulator's, as write_episode writes it
    "pair_not_a_list": ({"collision": {"t": 1, "pair": 5}},
                        not_the_crash('{"pair": 5, "t": 1}')),
    "pair_of_one": ({"collision": {"t": 1, "pair": ["ego"]}},
                    not_the_crash('{"pair": ["ego"], "t": 1}')),
    "pair_of_numbers": ({"collision": {"t": 1, "pair": [1, 2]}},
                        not_the_crash('{"pair": [1, 2], "t": 1}')),
    "pair_of_another_agent": ({"collision": {"t": 1, "pair": ["ghost", "npc"]}},
                              not_the_crash('{"pair": ["ghost", "npc"], "t": 1}')),
    "pair_of_one_agent_twice": ({"collision": {"t": 1, "pair": ["npc", "npc"]}},
                                not_the_crash('{"pair": ["npc", "npc"], "t": 1}')),
    "collision_after_the_trace": ({"collision": {"t": 999, "pair": ["ego", "npc"]}},
                                  not_the_crash('{"pair": ["ego", "npc"], "t": 999}')),
    "collision_before_the_last_step": ({"collision": {"t": 0, "pair": ["ego", "npc"]}},
                                       not_the_crash('{"pair": ["ego", "npc"], "t": 0}')),
    "collision_not_object": ({"collision": [2, "ego"]}, not_the_crash('[2, "ego"]')),
    "collision_t_missing": ({"collision": {"pair": ["ego", "npc"]}},
                            not_the_crash('{"pair": ["ego", "npc"]}')),
    "collision_t_not_a_number": ({"collision": {"t": "two", "pair": ["ego", "npc"]}},
                                 not_the_crash('{"pair": ["ego", "npc"], "t": "two"}')),
    "collision_t_fractional": ({"collision": {"t": 12.9, "pair": ["ego", "npc"]}},
                               not_the_crash('{"pair": ["ego", "npc"], "t": 12.9}')),
    "collision_t_bool": ({"collision": {"t": True, "pair": ["ego", "npc"]}},
                         not_the_crash('{"pair": ["ego", "npc"], "t": true}')),
    "collision_t_float": ({"collision": {"t": 1.0, "pair": ["ego", "npc"]}},
                          not_the_crash('{"pair": ["ego", "npc"], "t": 1.0}')),
    "collision_null_on_an_overlap": ({"collision": None}, not_the_crash("null")),
    "collision_empty": ({"collision": {}}, not_the_crash("{}")),
    # the simulator records no state after a failure, and stops at a collision
    "failed_on_a_collision": ({"failed": True, "failure_reason": "planner raised"},
                              "a failed episode ends before t=80 and not on a collision;"
                              " this one ends at t=1 on a collision"),
    "goal_of_one_number": ({"goals": {"npc": [1.0]}},
                           "goal of 'npc' is not two numbers: [1.0]"),
    "goal_of_three_numbers": ({"goals": {"npc": [1.0, 2.0, 3.0]}},
                              "goal of 'npc' is not two numbers: [1.0, 2.0, 3.0]"),
    "goal_not_a_list": ({"goals": {"npc": 4}}, "goal of 'npc' is not two numbers: 4"),
    "goal_not_finite": ({"goals": {"npc": [1.0, math.inf]}}, "non-finite point (1.0, inf)"),
    # goals and dt the reference read through float() or did not read
    "goal_of_a_bool": ({"goals": {"npc": [True, "90"]}}, "goal of 'npc' is not a number: True"),
    "goal_of_a_string": ({"goals": {"npc": [30.0, "90"]}},
                         "goal of 'npc' is not a number: '90'"),
    "dt_not_a_number": ({"dt": "fast"}, "dt is not a finite number: 'fast'"),
    "dt_bool": ({"dt": True}, "dt is not a finite number: True"),
    "dt_null": ({"dt": None}, "dt is not a finite number: None"),
    "dt_not_finite": ({"dt": math.inf}, "dt is not a finite number: inf"),
    "goals_not_object": ({"goals": [[1.0, 2.0]]}, "goals is not an object"),
    "failed_not_bool": ({"failed": "no"}, "failed is not a bool: 'no'"),
    "reason_not_string": ({"failure_reason": 7}, "failure_reason is not a string: 7"),
    "scenario_id_not_string": ({"scenario_id": None},
                               "scenario_id is not a string: None"),
}


class TestHeaderFields:
    @pytest.mark.parametrize("name", list(BAD_HEADERS))
    def test_bad_field_names_file_and_line_one(self, name, tmp_path):
        fields, message = BAD_HEADERS[name]
        path = write_episode_file(tmp_path, fields)
        with pytest.raises(InputError) as err:
            read_episode(path)
        assert str(err.value) == f"{path}:1: {message}"

    def test_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "ep.jsonl"
        path.write_text('["header"]\n' + GOOD_LINE + "\n")
        with pytest.raises(InputError) as err:
            read_episode(str(path))
        assert str(err.value) == f"{path}:1: first record is not a header"

    def test_valid_header_reads_as_the_reference(self, tmp_path):
        for fields in ({}, {"goals": {"npc": [30, 4]}}):
            path = write_episode_file(tmp_path, fields)
            assert read_episode(path) == reference_read_episode(path)[0]
        # a dt written as an int, of a scenario at sim.dt 1.0
        path = write_episode_file(tmp_path, {"dt": 1})
        at_one_second = load_scenario(TWO_LANE_YAML.replace("dt: 0.1", "dt: 1"), "two_lane")
        assert persist.read_episode(path, at_one_second) == reference_read_episode(path)[0]
        # the fields write_episode always writes may be missing: no
        # collision, and an episode that did not fail, here one that runs to
        # a horizon of 1 step
        path = tmp_path / "bare.jsonl"
        path.write_text('{"type": "header"}\n' + FIRST_LINE + "\n" + GOOD_LINE + "\n")
        one_step = load_scenario(TWO_LANE_YAML.replace("horizon_steps: 80", "horizon_steps: 1"),
                                 "two_lane")
        assert persist.read_episode(str(path), one_step) == reference_read_episode(str(path))[0]
        # a raw U+2028 in a string, which json.dumps escapes but an edit may
        # leave, is valid JSON on one line; str.splitlines, and so the
        # reference, breaks the line there
        reason = "planner\u2028raised"
        header = {**json.loads(TRACE_HEADER), "failure_reason": reason}
        path = tmp_path / "u2028.jsonl"
        path.write_text(json.dumps(header, ensure_ascii=False) + "\n" + FIRST_LINE + "\n",
                        encoding="utf-8")
        assert read_episode(str(path)).failure_reason == reason

    def test_replay_exits_2_naming_the_file(self, tmp_path, capsys):
        path = write_episode_file(tmp_path, {"collision": {"t": 1, "pair": 5}})
        (tmp_path / "scenario.yaml").write_text(TWO_LANE_YAML)
        assert cli.main(["replay", path]) == 2
        error = not_the_crash('{"pair": 5, "t": 1}')
        assert capsys.readouterr().err == f"error: {path}:1: {error}\n"


@pytest.fixture
def campaign_dir(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["run", "front", "--sampler", "sobol", "--budget", "5", "--out", out]) == 0
    capsys.readouterr()
    return str(tmp_path / "out" / "front_sobol")


class TestBadCampaignFiles:
    def truncate_fourth_record(self, campaign_dir):
        log = f"{campaign_dir}/campaign.jsonl"
        with open(log) as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[3] = lines[3][:21] + "\n"
        with open(log, "w") as fh:
            fh.writelines(lines)
        return log

    def test_campaign_log_error_names_file_and_line(self, campaign_dir):
        log = self.truncate_fourth_record(campaign_dir)
        with open(log) as fh:
            truncated = fh.read().splitlines()[3]
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(truncated)
        with pytest.raises(ValueError) as err:
            persist.read_campaign_log(log)
        assert str(err.value) == f"{log}:4: {want.value}"

    def test_record_that_is_not_an_object(self, campaign_dir):
        log = f"{campaign_dir}/campaign.jsonl"
        with open(log, "a") as fh:
            fh.write("\n[1, 2]\n")
        with pytest.raises(ValueError) as err:
            persist.read_campaign_log(log)
        assert str(err.value) == f"{log}:7: record is not a JSON object"

    def test_export_gp_and_report_name_the_log(self, campaign_dir, capsys):
        log = self.truncate_fourth_record(campaign_dir)
        message = str(pytest.raises(ValueError, persist.read_campaign_log, log).value)
        assert cli.main(["export-gp", campaign_dir]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert cli.main(["report", campaign_dir]) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping '{campaign_dir}': {message}\n"
            "error: no readable campaigns\n")

    @pytest.mark.parametrize("field, value, error", [
        ("u", None, "u is not a list of finite numbers: None"),
        ("u", 0.5, "u is not a list of finite numbers: 0.5"),
        ("u", ["a", 1.0], "u is not a list of finite numbers: ['a', 1.0]"),
        ("score", "-3.0", "score is not a finite number: '-3.0'"),
        # json writes these as NaN and Infinity, and reads them back
        ("u", [math.nan, 0.5], "u is not a list of finite numbers: [nan, 0.5]"),
        ("score", -math.inf, "score is not a finite number: -inf"),
        ("failed", "no", "failed is not a bool: 'no'"),
        ("episode_file", 5, "episode_file is not a string: 5"),
        # records that `run` does not write: report and export-gp used to
        # skip them without a word
        ("episode_file", "", "episode that did not fail has no episode_file"),
        ("score", None, "episode that did not fail has no score"),
        ("failed", True, "failed episode has a score: {score!r}"),
    ], ids=["no_u", "u_not_a_list", "u_not_numbers", "score_not_a_number", "u_nan",
            "score_infinite", "failed_not_a_bool", "episode_file_not_a_string",
            "no_episode_file", "no_score", "failed_with_a_score"])
    def test_export_gp_and_report_name_a_bad_record(
        self, campaign_dir, capsys, field, value, error
    ):
        log = f"{campaign_dir}/campaign.jsonl"
        with open(log) as fh:
            lines = fh.read().splitlines(keepends=True)
        record = json.loads(lines[2])
        assert not record["failed"] and record["score"] is not None
        error = error.format(score=record["score"])
        if value is None:
            del record[field]
        else:
            record[field] = value
        lines[2] = json.dumps(record) + "\n"
        with open(log, "w") as fh:
            fh.writelines(lines)
        assert cli.main(["export-gp", campaign_dir]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {log}:3: {error}\n")
        assert not os.path.exists(f"{campaign_dir}/gp_grid.csv")
        assert cli.main(["report", campaign_dir]) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping '{campaign_dir}': {log}:3: {error}\n"
            "error: no readable campaigns\n")

    @pytest.mark.parametrize("edit, error", [
        (lambda m: m.pop("sampler"), "sampler kind is not a string: None"),
        (lambda m: m.update(scenario_file=7), "scenario_file is not a string: 7"),
        (None, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=["no_sampler", "scenario_file_not_a_string", "invalid_json"])
    def test_report_names_a_bad_manifest(self, campaign_dir, capsys, edit, error):
        path = f"{campaign_dir}/manifest.json"
        with open(path) as fh:
            manifest = json.load(fh)
        with open(path, "w") as fh:
            if edit is None:
                fh.write("{" + json.dumps(manifest))
            else:
                edit(manifest)
                json.dump(manifest, fh)
        with pytest.raises(ValueError) as err:
            persist.read_manifest(path)
        assert str(err.value) == f"{path}: {error}"
        assert cli.main(["report", campaign_dir]) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping '{campaign_dir}': {path}: {error}\n"
            "error: no readable campaigns\n")

    def test_report_names_the_episode_with_a_bad_header(self, campaign_dir, capsys):
        path = f"{campaign_dir}/episodes/ep_0002.jsonl"
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["goals"] = {aid: [1.0] for aid in header["goals"]}
        lines[0] = json.dumps(header) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        aid = next(iter(header["goals"]))
        assert cli.main(["report", campaign_dir]) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping '{campaign_dir}': "
            f"{path}:1: goal of '{aid}' is not two numbers: [1.0]\n"
            "error: no readable campaigns\n")

    @pytest.mark.parametrize("cut, error", [
        (lambda lines: [lines[0].replace('"failed": false', '"failed": true')] + lines[1:],
         ":1: a failed episode ends before t=80 and not on a collision; this one ends at t=80"),
        # a failed episode that the simulator can write, here after t=40
        (lambda lines: [lines[0].replace('"failed": false', '"failed": true')] + lines[1:42],
         ": episode failed, but its campaign record says it did not"),
        # as writes cut short after the first step and after step 40 leave it
        (lambda lines: lines[:2],
         ":1: an episode that did not fail ends at t=80 or on a collision;"
         " this one ends at t=0"),
        (lambda lines: lines[:42],
         ":1: an episode that did not fail ends at t=80 or on a collision;"
         " this one ends at t=40"),
        (lambda lines: [lines[0]] + [re.sub(r'"t": \d+', '"t": 7', line) for line in lines[1:]],
         ":2: t=7 is not the trace's step 0"),
        # the ego 1 m ahead of where `front` starts it
        (lambda lines: [lines[0], lines[1].replace('"x": 0.0', '"x": 1.0', 1)] + lines[2:],
         ":2: the state of 'ego' at t=0 is not the scenario's initial state"),
    ], ids=["header_says_failed", "header_says_failed_before_the_horizon", "trace_of_one_step",
            "trace_cut_at_step_40", "every_step_renumbered", "ego_moved_at_step_0"])
    def test_report_names_an_episode_its_record_contradicts(
        self, campaign_dir, capsys, cut, error
    ):
        log = persist.read_campaign_log(f"{campaign_dir}/campaign.jsonl")
        assert not log[2]["failed"]
        path = f"{campaign_dir}/episodes/ep_0002.jsonl"
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        assert '"failed": false' in lines[0] and len(lines) > 2
        with open(path, "w") as fh:
            fh.writelines(cut(lines))
        assert cli.main(["report", campaign_dir]) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping '{campaign_dir}': {path}{error}\n"
            "error: no readable campaigns\n")
