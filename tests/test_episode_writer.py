"""`run`'s episode writer (`persist.EpisodeWriter`).

Where the process may run on 2 CPUs or more, `avstress run` forks one
writer process (a `fit_helper.Helper`) at a campaign's first episode, which
writes the episode files while the campaign goes on; the campaign's process
appends each `campaign.jsonl` line once the writer confirms the file, and
writes itself whatever the writer does not confirm. These tests check that
no process outlives `run` whichever way it ends, and that a campaign leaves
the files, stderr and exit code that the serial path leaves: each case runs
once on one CPU, where `run` writes in its own process, and once on all.
"""
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from avstress import cli, fit_helper, optimizer, persist
from conftest import (SRC, TuplePlanner, assert_same_tree, children, gone, needs_two_cpus,
                      proc_state, wait_until)

BUDGET = 8
# the CPUs a case runs on: one, where no writer starts, or all
CPUS = pytest.mark.parametrize("cpus", ["one", "all"])


@pytest.fixture
def seen(monkeypatch):
    """The test process's new children at the start of each episode, one
    set per episode."""
    before = children()
    seen = []
    simulate = optimizer.simulate_episode

    def recording(*args):
        seen.append(children() - before)
        return simulate(*args)

    monkeypatch.setattr(optimizer, "simulate_episode", recording)
    return seen


def on(cpus, monkeypatch):
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def run_front(tmp_path, budget=BUDGET):
    return cli.main(["run", "front", "--sampler", "sobol", "--budget", str(budget),
                     "--out", str(tmp_path / "out")])


def campaign_dir(tmp_path):
    return tmp_path / "out" / "front_sobol"


def assert_left(tmp_path, k, extra=()):
    """The campaign left episode files and log lines 0..k-1 (and `extra`
    in its episodes directory), and no stats.csv."""
    out_dir = campaign_dir(tmp_path)
    log = persist.read_campaign_log(str(out_dir / persist.CAMPAIGN_LOG))
    assert [rec["iter"] for rec in log] == list(range(k))
    files = [os.path.basename(persist.episode_file(i)) for i in range(k)]
    assert sorted(os.listdir(out_dir / persist.EPISODES_DIR)) == sorted([*files, *extra])
    assert not (out_dir / persist.STATS_CSV).exists()


def assert_writer_ran(cpus, seen):
    """No child before the first episode; on all CPUs where there are 2 or
    more, one writer from the second episode on, the same one throughout."""
    assert seen[0] == set()
    if cpus == "all" and len(os.sched_getaffinity(0)) >= 2:
        assert len(seen[1]) == 1 and all(pids == seen[1] for pids in seen[1:]), seen
    else:
        assert seen == [set()] * len(seen)


@CPUS
def test_no_child_left_after_run_returns(cpus, tmp_path, monkeypatch, capsys, seen):
    on(cpus, monkeypatch)
    assert run_front(tmp_path) == 0
    assert capsys.readouterr().err == ""
    assert_writer_ran(cpus, seen)
    assert children() - seen[0] == set()
    assert (campaign_dir(tmp_path) / persist.STATS_CSV).exists()


@CPUS
def test_programming_error_leaves_the_episodes_before_it(cpus, tmp_path, monkeypatch, capsys,
                                                         seen):
    real = optimizer.score_episode

    def score(episode, scenario):
        if len(seen) == 5:
            raise AssertionError("scoring broke at iteration 4")
        return real(episode, scenario)

    on(cpus, monkeypatch)
    monkeypatch.setattr(optimizer, "score_episode", score)
    assert run_front(tmp_path) == 3
    assert capsys.readouterr().err == "runtime error: scoring broke at iteration 4\n"
    assert_writer_ran(cpus, seen)
    assert_left(tmp_path, 4)
    assert children() - seen[0] == set()


def block_write(seen, tmp_path, k):
    """At the start of episode k, put a directory where its file goes, so
    that opening the file to write fails; returns that path."""
    path = campaign_dir(tmp_path) / persist.episode_file(k)
    simulate = optimizer.simulate_episode

    def blocking(*args):
        if len(seen) == k:
            path.mkdir()
        return simulate(*args)

    return path, blocking


def slow_first_write(monkeypatch):
    """Make the first episode's write take 0.3 s, in whichever process
    writes it: the campaign sends every later episode before the writer
    gets to the second. `_write_episode`, which the writer is sent by name,
    opens the file through `_writing`."""
    real = persist._writing

    def slow(call, *args, **kwargs):
        if call is open and args[0].endswith(persist.episode_file(0)):
            time.sleep(0.3)
        return real(call, *args, **kwargs)

    monkeypatch.setattr(persist, "_writing", slow)


@CPUS
@pytest.mark.parametrize("slow", [False, True], ids=["prompt", "slow"])
@pytest.mark.parametrize("k", [0, 3, BUDGET - 1])
def test_a_failed_write_ends_the_campaign_where_it_failed(k, slow, cpus, tmp_path, monkeypatch,
                                                          capsys, seen):
    # the campaign hears of the failure at a later episode or at its end,
    # but the writer writes nothing after it, and `run` leaves what the
    # serial loop leaves
    on(cpus, monkeypatch)
    if slow:
        slow_first_write(monkeypatch)
    path, blocking = block_write(seen, tmp_path, k)
    monkeypatch.setattr(optimizer, "simulate_episode", blocking)
    assert run_front(tmp_path) == 2
    assert capsys.readouterr().err == f"error: {path}: Is a directory\n"
    assert_left(tmp_path, k, [path.name])
    assert children() - seen[0] == set()


@CPUS
def test_a_failed_write_outranks_a_later_programming_error(cpus, tmp_path, monkeypatch, capsys,
                                                            seen):
    # the serial loop stops at the write, before the error: so does `run`,
    # whichever of the two the campaign's process meets first
    real = optimizer.score_episode

    def score(episode, scenario):
        if len(seen) == BUDGET:
            raise AssertionError("scoring broke at the last iteration")
        return real(episode, scenario)

    on(cpus, monkeypatch)
    path, blocking = block_write(seen, tmp_path, BUDGET - 2)
    monkeypatch.setattr(optimizer, "simulate_episode", blocking)
    monkeypatch.setattr(optimizer, "score_episode", score)
    assert run_front(tmp_path) == 2
    assert capsys.readouterr().err == f"error: {path}: Is a directory\n"
    assert_left(tmp_path, BUDGET - 2, [path.name])
    assert children() - seen[0] == set()


@CPUS
def test_an_error_that_does_not_pickle_exits_as_the_serial_one(cpus, tmp_path, monkeypatch,
                                                               capsys, seen):
    class LocalError(Exception):
        pass

    real = persist._writing

    def failing(call, *args, **kwargs):
        if call is open and args[0].endswith(persist.episode_file(2)):
            raise LocalError("episode 2 did not format")
        return real(call, *args, **kwargs)

    on(cpus, monkeypatch)
    # `_write_episode` calls it in the campaign's process, and in the writer
    # forked after this
    monkeypatch.setattr(persist, "_writing", failing)
    assert run_front(tmp_path) == 3
    assert capsys.readouterr().err == "runtime error: episode 2 did not format\n"
    assert_left(tmp_path, 2)
    assert children() - seen[0] == set()


def disturb_writer(seen, sig, state):
    """A `simulate_episode` that sends `sig` to the writer at the start of
    episode 4 and waits for it to reach `state`."""
    simulate = optimizer.simulate_episode

    def disturbing(*args):
        if len(seen) == 4:
            (pid,) = seen[-1]
            os.kill(pid, sig)
            assert wait_until(lambda: proc_state(pid) == state)
        return simulate(*args)

    return disturbing


@needs_two_cpus
def test_a_writer_that_died_leaves_the_tree_of_an_undisturbed_run(tmp_path, monkeypatch, capsys,
                                                                  seen):
    # the campaign writes what the dead writer did not confirm, episode 4
    # among them, and episode 5's write forks a new writer
    assert run_front(tmp_path / "undisturbed") == 0
    seen.clear()
    monkeypatch.setattr(optimizer, "simulate_episode", disturb_writer(seen, signal.SIGKILL, "Z"))
    assert run_front(tmp_path) == 0
    assert capsys.readouterr().err == ""
    assert seen[5] == set() and len(seen[6]) == 1 and seen[6] != seen[4]
    assert_same_tree(campaign_dir(tmp_path / "undisturbed"), campaign_dir(tmp_path))
    assert children() - seen[0] == set()


@needs_two_cpus
def test_a_stopped_writer_leaves_the_tree_of_an_undisturbed_run(tmp_path, monkeypatch, capsys,
                                                                seen):
    # the campaign sends episodes 4 to 7 to the stopped writer, which
    # confirms none of them; at the end it waits HELPER_EXIT_S for a
    # reply, kills the writer and writes them itself
    assert run_front(tmp_path / "undisturbed") == 0
    seen.clear()
    monkeypatch.setattr(fit_helper, "HELPER_EXIT_S", 0.3)
    monkeypatch.setattr(optimizer, "simulate_episode", disturb_writer(seen, signal.SIGSTOP, "T"))
    assert run_front(tmp_path) == 0
    assert capsys.readouterr().err == ""
    assert all(pids == seen[1] for pids in seen[1:]), seen
    assert_same_tree(campaign_dir(tmp_path / "undisturbed"), campaign_dir(tmp_path))
    assert children() - seen[0] == set()


@CPUS
def test_failed_episodes_warn_up_to_a_failed_write(cpus, tmp_path, monkeypatch, capsys, seen):
    # every episode fails and the write of episode 2 fails too: a serial
    # loop warns of episodes 0 and 1, then stops at the write, and so does
    # `run` where the writer runs and the campaign sends every episode
    # before the writer is past the first
    on(cpus, monkeypatch)
    monkeypatch.setattr(cli, "LatticePlanner", TuplePlanner)
    slow_first_write(monkeypatch)
    path, blocking = block_write(seen, tmp_path, 2)
    monkeypatch.setattr(optimizer, "simulate_episode", blocking)
    assert run_front(tmp_path, budget=6) == 2
    with open(campaign_dir(tmp_path) / persist.episode_file(0)) as fh:
        reason = json.loads(fh.readline())["failure_reason"]
    assert reason
    assert capsys.readouterr().err == (
        f"warning: episode 0 failed: {reason}\n"
        f"warning: episode 1 failed: {reason}\n"
        f"error: {path}: Is a directory\n"
    )
    assert_left(tmp_path, 2, [path.name])
    assert children() - seen[0] == set()


def sockets(pid):
    """The socket inodes that the fds of process `pid` hold."""
    found = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except FileNotFoundError:  # closed since the listing
            continue
        if target.startswith("socket:"):
            found.add(target)
    return found


@needs_two_cpus
def test_no_child_holds_a_pipe_end_of_the_campaign(tmp_path, monkeypatch, seen):
    # where the writer and the fit helper both run, neither holds the
    # campaign's end of its own pipe or of its sibling's, so each reads EOF
    # once the campaign's process is gone. The sockets this process held
    # before the run are left out: every child inherits them
    before = sockets(os.getpid())
    held = []
    simulate = optimizer.simulate_episode

    def recording(*args):
        # seen[-1] is the children at the start of the last episode
        if seen and len(seen[-1]) == 2 and not held:
            held.append((sockets(os.getpid()) - before, [sockets(pid) for pid in seen[-1]]))
        return simulate(*args)

    monkeypatch.setattr(optimizer, "simulate_episode", recording)
    assert cli.main(["run", "behind", "--sampler", "bo", "--budget", "4",
                     "--out", str(tmp_path / "out")]) == 0
    (campaign_ends, of_children), = held
    assert len(campaign_ends) == 2
    for sockets_of_child in of_children:
        assert len(sockets_of_child - before) == 1  # its end of its own pipe
        assert sockets_of_child & campaign_ends == set()


# runs a long Sobol `avstress run` that prints its writer's pid once, at
# its second episode, and keeps going until it is interrupted
PRINT_WRITER_SCRIPT = """
import os, sys
from avstress import cli, optimizer, persist

opened = []

class Recording(persist.EpisodeWriter):
    def __init__(self, *args):
        super().__init__(*args)
        opened.append(self)

persist.EpisodeWriter = Recording
simulate = optimizer.simulate_episode

def printing(*args):
    writer = opened[-1]
    if writer.helper.process is not None and not getattr(writer, "printed", False):
        writer.printed = True
        print(writer.helper.process.pid, flush=True)
    return simulate(*args)

optimizer.simulate_episode = printing
try:
    cli.main(["run", "front", "--sampler", "sobol", "--budget", "3000", "--out", sys.argv[1]])
except KeyboardInterrupt:
    children = [
        entry for entry in os.listdir("/proc") if entry.isdigit()
        and os.path.exists(f"/proc/{entry}/stat")
        and open(f"/proc/{entry}/stat").read().rpartition(")")[2].split()[1] == str(os.getpid())
    ]
    print("interrupted", len(children), flush=True)
"""


def start_printing_run(tmp_path, **kwargs):
    """The process of PRINT_WRITER_SCRIPT and its writer's pid."""
    proc = subprocess.Popen(
        [sys.executable, "-c", PRINT_WRITER_SCRIPT, str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, **kwargs,
    )
    line = proc.stdout.readline()
    if not line.strip().isdigit():
        proc.kill()
        raise AssertionError(proc.communicate(timeout=10)[1] or line)
    return proc, int(line)


def stop(proc, pid):
    # neither the run nor a writer that failed its test may outlive it
    proc.kill()
    if not gone(pid):
        os.kill(pid, signal.SIGKILL)
    proc.communicate(timeout=10)


@needs_two_cpus
def test_writer_exits_when_the_campaign_process_is_killed(tmp_path):
    proc, pid = start_printing_run(tmp_path)
    try:
        assert not gone(pid)
        proc.kill()
        proc.wait(timeout=10)
        assert wait_until(lambda: gone(pid), timeout=10)
    finally:
        stop(proc, pid)


@needs_two_cpus
def test_sigint_to_the_group_leaves_the_episodes_before_it(tmp_path):
    proc, pid = start_printing_run(tmp_path, start_new_session=True)
    try:
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        # the campaign's process caught it once its writer had exited; the
        # writer ignored it, so it printed no traceback of its own
        assert out.split() == ["interrupted", "0"], err
        assert "KeyboardInterrupt" not in err
        assert proc.returncode == 0
        assert gone(pid)
    finally:
        stop(proc, pid)
    # every episode sent before the interrupt was written, and its line logged
    out_dir = campaign_dir(tmp_path)
    log = persist.read_campaign_log(str(out_dir / persist.CAMPAIGN_LOG))
    assert log and [rec["iter"] for rec in log] == list(range(len(log)))
    for rec in log:
        assert (out_dir / rec["episode_file"]).stat().st_size > 0
