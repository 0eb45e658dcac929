"""`run`'s episode writer (`persist.EpisodeWriter`).

Where the process may run on 2 CPUs or more, `avstress run` forks one
writer process (a `fit_helper.Helper`) at a campaign's first episode, which
writes the episode files while the campaign goes on; the campaign's process
appends each `campaign.jsonl` line once the writer confirms the file, waits
for the writer once more than `persist.WRITER_BACKLOG` episodes are
unconfirmed, and writes itself whatever the writer does not confirm. These
tests check that no process outlives `run` whichever way it ends, that a
writer that dies or stops, or a stopped fit helper, neither hangs a
campaign nor changes its files, that the backlog stays within its bound,
and that a campaign leaves the files, stderr and exit code that the serial
path leaves: each such case runs once on one CPU, where `run` writes in its
own process, and once on all. A `run` whose process is killed is the
`[writer]` case of `test_fit_helper.py`'s kill test.
"""
import json
import os
import signal
import time

import pytest

from avstress import cli, fit_helper, optimizer, persist
from conftest import (TESTS, TuplePlanner, assert_same_tree, children, fresh_python,
                      interrupt_printing_child, needs_two_cpus, one_cpu, proc_state,
                      wait_until)

BUDGET = 8
CPUS = pytest.mark.parametrize("cpus", ["one", "all"], indirect=True)


@pytest.fixture
def cpus(request, monkeypatch):
    """The CPUs a case runs on: "one", where no writer starts, or "all"."""
    if request.param == "one":
        one_cpu(monkeypatch)
    return request.param


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


def run_front(tmp_path, budget=BUDGET, sampler="sobol"):
    return cli.main(["run", "front", "--sampler", sampler, "--budget", str(budget),
                     "--out", str(tmp_path / "out")])


def campaign_dir(tmp_path, sampler="sobol"):
    return tmp_path / "out" / f"front_{sampler}"


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
def test_no_child_left_after_run_returns(cpus, tmp_path, capsys, seen):
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


def slow_writes(monkeypatch, iterations, seconds=0.3):
    """Make the write of each episode file in `iterations` take `seconds`
    longer, in whichever process writes it. `_write_episode`, which the
    writer is sent by name, opens the file through `_writing`."""
    names = tuple(persist.episode_file(i) for i in iterations)
    real = persist._writing

    def slow(call, *args, **kwargs):
        if call is open and args[0].endswith(names):
            time.sleep(seconds)
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
    if slow:
        # the campaign waits for the first file at episode WRITER_BACKLOG
        slow_writes(monkeypatch, [0])
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
    # the writer, stopped at the start of episode 4, confirms no episode
    # from 4 on. By episode 4 + WRITER_BACKLOG's write at the latest the
    # campaign has waited HELPER_EXIT_S for a reply, killed the writer and
    # written the unconfirmed episodes itself; the next write forks a new
    # writer, which serves to the end
    budget = 12
    assert run_front(tmp_path / "undisturbed", budget) == 0
    seen.clear()
    monkeypatch.setattr(fit_helper, "HELPER_EXIT_S", 0.3)
    monkeypatch.setattr(optimizer, "simulate_episode", disturb_writer(seen, signal.SIGSTOP, "T"))
    assert run_front(tmp_path, budget) == 0
    assert capsys.readouterr().err == ""
    (stopped,) = seen[3]
    replaced = 4 + persist.WRITER_BACKLOG + 2
    assert len(seen[replaced]) == 1 and stopped not in seen[replaced], seen
    assert all(pids == seen[replaced] for pids in seen[replaced:]), seen
    assert_same_tree(campaign_dir(tmp_path / "undisturbed"), campaign_dir(tmp_path))
    assert children() - seen[0] == set()


# an `avstress run` of `front` into argv[1] with the sampler argv[2] at the
# budget argv[3] and HELPER_EXIT_S at 0.3 s. A Sobol run's writer is stopped
# at the start of episode 5, a GP-UCB run's fit helper each time it is
# forked. After what `run` prints, prints its exit code and the number of
# children left
STOP_HELPER_SCRIPT = """
import os, signal, sys
from avstress import cli, fit_helper, optimizer
from conftest import children, proc_state, wait_until

fit_helper.HELPER_EXIT_S = 0.3
out, sampler, budget = sys.argv[1:]

def stop(pid):
    os.kill(pid, signal.SIGSTOP)
    assert wait_until(lambda: proc_state(pid) == "T")

if sampler == "sobol":
    simulate = optimizer.simulate_episode
    started = []

    def stopping(*args):
        if len(started) == 5:
            (pid,) = children()  # the writer
            stop(pid)
        started.append(None)
        return simulate(*args)

    optimizer.simulate_episode = stopping
else:
    class Stopped(optimizer.Helper):  # the fit helper's class
        def _start(self):
            super()._start()
            stop(self.process.pid)

    optimizer.Helper = Stopped
code = cli.main(["run", "front", "--sampler", sampler, "--budget", budget, "--out", out])
print(code, len(children()), flush=True)
"""


@needs_two_cpus
@pytest.mark.parametrize("sampler, budget", [("sobol", 40), ("bo", 12)], ids=["writer", "fit"])
def test_a_helper_stopped_mid_run_does_not_hang_it(sampler, budget, tmp_path):
    # a campaign many times WRITER_BACKLOG long must not fill a stopped
    # writer's pipe and block in a send, and a fit must not wait for good
    # for a stopped fit helper's starts. A hung run raises TimeoutExpired,
    # and the runner kills it with its stopped helper
    assert run_front(tmp_path / "undisturbed", budget, sampler) == 0
    with fresh_python("-c", STOP_HELPER_SCRIPT, str(tmp_path / "out"), sampler, str(budget),
                      path=[TESTS]) as proc:
        out, err = proc.communicate(timeout=30)
    assert (proc.returncode, err) == (0, "")
    assert out.splitlines() == [str(campaign_dir(tmp_path, sampler)), "0 0"]
    assert_same_tree(campaign_dir(tmp_path / "undisturbed", sampler),
                     campaign_dir(tmp_path, sampler))


@needs_two_cpus
def test_the_backlog_never_passes_its_bound(tmp_path, monkeypatch):
    # every write is far slower than an episode, so the writer falls
    # behind at once; the campaign waits for it rather than queue more
    backlogs = []

    class Recording(persist.EpisodeWriter):
        def __init__(self, *args):
            super().__init__(*args)
            send = self.helper.send

            def recording(*work):
                backlogs.append(len(self.pending))
                return send(*work)

            self.helper.send = recording

    monkeypatch.setattr(persist, "EpisodeWriter", Recording)
    slow_writes(monkeypatch, range(BUDGET), seconds=0.05)
    assert run_front(tmp_path) == 0
    assert len(backlogs) == BUDGET
    assert max(backlogs) == persist.WRITER_BACKLOG + 1, backlogs


@CPUS
def test_failed_episodes_warn_up_to_a_failed_write(cpus, tmp_path, monkeypatch, capsys, seen):
    # every episode fails and the write of episode 2 fails too: a serial
    # loop warns of episodes 0 and 1, then stops at the write, and so does
    # `run` where the writer runs and its first write is slow, so that the
    # campaign waits for it with the next episodes sent
    monkeypatch.setattr(cli, "LatticePlanner", TuplePlanner)
    slow_writes(monkeypatch, [0])
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


@needs_two_cpus
def test_sigint_to_the_group_leaves_the_episodes_before_it(tmp_path):
    interrupt_printing_child("writer", tmp_path)
    # every episode sent before the interrupt was written, and its line logged
    out_dir = campaign_dir(tmp_path)
    log = persist.read_campaign_log(str(out_dir / persist.CAMPAIGN_LOG))
    assert log and [rec["iter"] for rec in log] == list(range(len(log)))
    for rec in log:
        assert (out_dir / rec["episode_file"]).stat().st_size > 0
