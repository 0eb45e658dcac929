"""The GP fit's helper process (`fit_helper.Helper`).

Inside a campaign, and where the process may run on at least 2 CPUs, one
forked helper runs the odd-numbered L-BFGS-B starts of every fit. These
tests check that it changes no bit, that no process outlives the campaign
whichever way it ends, and that a helper that raises, dies or replies
after HELPER_EXIT_S leaves the campaign as a serial loop would have left
it: such a helper is gone after its fit, and the next fit forks a new one.
"""
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from avstress import cli, fit_helper, optimizer, surrogate
from avstress.fit_helper import Helper
from avstress.optimizer import GpUcbSampler, SobolSampler, run_campaign
from avstress.planner import LatticePlanner
from avstress.scenario import load_preset
from conftest import (SRC, assert_same_tree, children, gone, needs_two_cpus, proc_state,
                      wait_until)


@pytest.fixture
def opened(monkeypatch):
    """The fit helpers that campaigns open during the test, in order."""
    helpers = []

    class Recording(Helper):
        def __init__(self):
            super().__init__()
            helpers.append(self)

    monkeypatch.setattr(optimizer, "Helper", Recording)
    return helpers


def helper_pid(helpers):
    """The pid of the last helper's process, None where it has none."""
    helper = helpers[-1] if helpers else None
    return None if helper is None or helper.process is None else helper.process.pid


def serial(monkeypatch):
    """Let the process look like it may run on one CPU: no helper starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def campaign_files(tmp_path, name, budget=20):
    out = tmp_path / name
    assert cli.main(["run", "behind", "--sampler", "bo", "--budget", str(budget),
                     "--out", str(out)]) == 0
    return out / "behind_bo"


@needs_two_cpus
class TestLifecycle:
    def test_no_child_left_after_the_campaign_returns(self, opened):
        before = children()
        pids = set()
        records = run_campaign(load_preset("behind"), GpUcbSampler(), LatticePlanner(), 5,
                               episode_sink=lambda r, e: pids.add(helper_pid(opened)))
        assert len(records) == 5
        pids.discard(None)
        assert len(pids) == 1  # forked at the first fit, kept for the others
        assert len(opened) == 1 and opened[0].process is None
        assert children() - before == set()
        assert all(proc_state(pid) is None for pid in pids)

    def test_no_child_left_after_the_campaign_raises(self, opened):
        before = children()
        pids = []

        def sink(record, episode):
            pids.append(helper_pid(opened))
            if record.iteration == 3:
                raise RuntimeError("sink failed")

        with pytest.raises(RuntimeError, match="sink failed"):
            run_campaign(load_preset("behind"), GpUcbSampler(), LatticePlanner(), 6,
                         episode_sink=sink)
        assert pids[-1] is not None
        assert len(opened) == 1 and opened[0].process is None
        assert children() - before == set()
        assert proc_state(pids[-1]) is None

    def test_sobol_campaign_starts_no_helper(self, opened):
        pids = set()
        run_campaign(load_preset("behind"), SobolSampler(), LatticePlanner(), 3,
                     episode_sink=lambda r, e: pids.add(helper_pid(opened)))
        assert pids == {None}


# runs a BO campaign that prints its helper's pid once and keeps going
PRINT_HELPER_SCRIPT = """
import os, sys
from avstress import optimizer
from avstress.optimizer import GpUcbSampler, run_campaign
from avstress.planner import LatticePlanner
from avstress.scenario import load_preset

printed, opened = [], []

class Recording(optimizer.Helper):
    def __init__(self):
        super().__init__()
        opened.append(self)

optimizer.Helper = Recording

def sink(record, episode):
    helper = opened[-1]
    if not printed and helper.process is not None:
        printed.append(helper.process.pid)
        print(helper.process.pid, flush=True)

try:
    run_campaign(load_preset("behind"), GpUcbSampler(), LatticePlanner(), 400,
                 episode_sink=sink)
except KeyboardInterrupt:
    children = [
        entry for entry in os.listdir("/proc") if entry.isdigit()
        and os.path.exists(f"/proc/{entry}/stat")
        and open(f"/proc/{entry}/stat").read().rpartition(")")[2].split()[1] == str(os.getpid())
    ]
    print("interrupted", len(children), flush=True)
"""


def kill_if_left(pid):
    # a helper that failed its test must not outlive it
    if not gone(pid):
        os.kill(pid, signal.SIGKILL)


def start_printing_campaign(**kwargs):
    proc = subprocess.Popen(
        [sys.executable, "-c", PRINT_HELPER_SCRIPT], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": SRC}, **kwargs,
    )
    line = proc.stdout.readline()
    assert line.strip().isdigit(), proc.stderr.read() if proc.poll() is not None else line
    return proc, int(line)


@needs_two_cpus
class TestSignals:
    def test_helper_exits_when_the_campaign_process_is_killed(self):
        proc, pid = start_printing_campaign()
        try:
            assert not gone(pid)
            proc.kill()
            proc.wait(timeout=10)
            assert wait_until(lambda: gone(pid), timeout=10)
        finally:
            proc.kill()
            # before reading: a helper left alive holds the output pipes open
            kill_if_left(pid)
            proc.communicate(timeout=10)

    def test_sigint_to_the_group_is_one_keyboard_interrupt_in_the_parent(self):
        proc, pid = start_printing_campaign(start_new_session=True)
        try:
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            # the campaign's process caught it and had no child left; the
            # helper ignored it, so it printed no traceback of its own
            assert out.split() == ["interrupted", "0"], err
            assert "KeyboardInterrupt" not in err
            assert proc.returncode == 0
            assert gone(pid)
        finally:
            proc.kill()
            kill_if_left(pid)
            proc.wait(timeout=10)


@needs_two_cpus
class TestHelperFailure:
    def test_killed_helper_leaves_the_campaign_files_unchanged(
        self, tmp_path, monkeypatch, opened
    ):
        undisturbed = campaign_files(tmp_path, "undisturbed")
        fit, lbfgsb = surrogate.fit, surrogate._lbfgsb
        after = []  # the helper's pid after each fit, None where there is none
        killed_mid_fit = []

        def kill_helper():
            pid = helper_pid(opened)
            os.kill(pid, signal.SIGKILL)
            assert wait_until(lambda: proc_state(pid) == "Z")

        def fit_killing_before_the_fifth(X, y, helper=None):
            if len(after) == 4:  # between two fits: the next send finds no reader
                kill_helper()
            model = fit(X, y, helper=helper)
            after.append(helper_pid(opened))
            return model

        def lbfgsb_killing_in_the_tenth(*args):
            # mid-fit, once: no reply comes. The job sent to the helper is
            # `_run_starts`, pickled by name, so the hook sits in the runs it
            # calls; the helper's forked copy of `after` never reaches 9
            if len(after) == 9 and not killed_mid_fit:
                killed_mid_fit.append(True)
                kill_helper()
            return lbfgsb(*args)

        monkeypatch.setattr(surrogate, "fit", fit_killing_before_the_fifth)
        monkeypatch.setattr(surrogate, "_lbfgsb", lbfgsb_killing_in_the_tenth)
        disturbed = campaign_files(tmp_path, "disturbed")
        # each death was seen in the fit it hit, whose starts all ran here,
        # and a fresh helper was forked at the next fit
        first, second, third = after[0], after[5], after[10]
        assert len(after) == 18 and None not in (first, second, third)
        assert after == [first] * 4 + [None] + [second] * 4 + [None] + [third] * 8
        assert len({first, second, third}) == 3
        assert_same_tree(undisturbed, disturbed)

    def test_a_late_reply_leaves_the_records_of_an_undisturbed_campaign(
        self, monkeypatch, opened
    ):
        # the first fit's helper replies long after HELPER_EXIT_S: the fit
        # runs every start here, the helper is killed, and the next fit
        # forks a new one, which serves to the end
        scenario = load_preset("behind")
        undisturbed = run_campaign(scenario, GpUcbSampler(), LatticePlanner(), 10)
        n, _ = self.first_fit_starts(
            monkeypatch, run_campaign, scenario, GpUcbSampler(), LatticePlanner(), 10)
        campaign = os.getpid()
        fit, fit_pairs = surrogate.fit, surrogate.fit_pairs
        after = []  # the helper's pid after each fit, None where there is none

        def lagging(X):
            # patched before the fork, so the helper's `_run_starts` calls
            # it too, and only the helper sleeps
            if os.getpid() != campaign and len(X) == n:
                time.sleep(3.0)
            return fit_pairs(X)

        def recording(X, y, helper=None):
            model = fit(X, y, helper=helper)
            after.append(helper_pid(opened))
            return model

        monkeypatch.setattr(fit_helper, "HELPER_EXIT_S", 0.3)
        monkeypatch.setattr(surrogate, "fit_pairs", lagging)
        monkeypatch.setattr(surrogate, "fit", recording)
        before = children()
        records = run_campaign(scenario, GpUcbSampler(), LatticePlanner(), 10)
        assert len(after) > 2 and after[0] is None and after[1] is not None
        assert after[1:] == [after[1]] * (len(after) - 1)
        assert records == undisturbed
        assert children() - before == set()

    @staticmethod
    def first_fit_starts(monkeypatch, run, *args):
        """(n, starts): the point count and the 8 starts of the first fit
        that `run(*args)` makes."""
        seen = []
        multistart = surrogate._multistart

        def recording(X, z, lo, hi, starts, helper=None):
            seen.append((len(X), starts))
            return multistart(X, z, lo, hi, starts, helper)

        with monkeypatch.context() as m:
            m.setattr(surrogate, "_multistart", recording)
            run(*args)
        return seen[0]

    @staticmethod
    def fail_at(monkeypatch, n, starts, failing, error=np.linalg.LinAlgError):
        """Make `_factor` raise `error` naming the start, at the first
        evaluation of each start in `failing` of a fit on n points: in such
        a fit, it is the only one at that start's noise variance."""
        factor = surrogate._factor
        d = starts.shape[1] - 2
        noise = {math.exp(2.0 * starts[j][d + 1]): j for j in failing}

        def failing_factor(K, noise_variance):
            if len(K) == n and noise_variance in noise:
                raise error(f"start {noise[noise_variance]}")
            return factor(K, noise_variance)

        monkeypatch.setattr(surrogate, "_factor", failing_factor)

    @pytest.mark.parametrize(
        "failing, raised", [({3}, 3), ({1, 2}, 1), ({2, 5}, 2), ({5, 6}, 5), ({7}, 7)]
    )
    def test_a_failing_start_raises_what_the_serial_loop_raises(
        self, failing, raised, monkeypatch
    ):
        rng = np.random.default_rng(5)
        X, y = rng.random((12, 2)), rng.random(12)
        X10, y10 = rng.random((10, 2)), rng.random(10)
        expected = surrogate.fit(X10, y10)
        self.fail_at(monkeypatch, *self.first_fit_starts(monkeypatch, surrogate.fit, X, y), failing)
        with pytest.raises(np.linalg.LinAlgError) as serial_error:
            surrogate.fit(X, y)
        assert str(serial_error.value) == f"start {raised}"
        before = children()
        with Helper() as helper:
            with pytest.raises(np.linalg.LinAlgError) as helper_error:
                surrogate.fit(X, y, helper=helper)
            # the helper's starts raised, so it exited and was joined before
            # the fit raised; the next fit forks a new one
            assert (helper.process, helper.sent, children() - before) == (None, 1, set())
            model = surrogate.fit(X10, y10, helper=helper)
            assert helper.process is not None and helper.sent == 2
        assert str(helper_error.value) == str(serial_error.value)
        assert model.params == expected.params
        assert model.alpha.tobytes() == expected.alpha.tobytes()

    def test_an_error_that_does_not_pickle_is_raised_as_it_was(self, monkeypatch, capfd):
        class LocalError(Exception):
            pass

        rng = np.random.default_rng(6)
        X, y = rng.random((12, 2)), rng.random(12)
        starts = self.first_fit_starts(monkeypatch, surrogate.fit, X, y)
        self.fail_at(monkeypatch, *starts, {3}, LocalError)
        before = children()
        with Helper() as helper:
            # the helper sends back no error, only that its starts failed;
            # this process then runs the starts and raises the error itself
            with pytest.raises(LocalError, match="start 3"):
                surrogate.fit(X, y, helper=helper)
            # the helper exited after its starts raised; the next fit forks
            # a new one
            assert (helper.process, helper.sent, children() - before) == (None, 1, set())
            surrogate.fit(X[:10], y[:10], helper=helper)
            assert helper.process is not None and helper.sent == 2
        # the helper exited quietly
        assert "Traceback" not in capfd.readouterr().err

    def test_campaign_raises_the_serial_error_and_leaves_no_child(self, monkeypatch, opened):
        scenario = load_preset("behind")
        first = self.first_fit_starts(
            monkeypatch, run_campaign, scenario, GpUcbSampler(), LatticePlanner(), 6)
        self.fail_at(monkeypatch, *first, {3})
        before = children()
        errors = []
        for helper in (False, True):
            with monkeypatch.context() as m:
                if not helper:
                    serial(m)
                with pytest.raises(np.linalg.LinAlgError) as error:
                    run_campaign(scenario, GpUcbSampler(), LatticePlanner(), 6)
            errors.append(str(error.value))
        assert errors == ["start 3", "start 3"]
        assert opened and all(helper.process is None for helper in opened)
        assert children() - before == set()


@needs_two_cpus
def test_runs_over_both_processes_count_every_serial_evaluation(monkeypatch, opened):
    # the helper's evaluations are not counted in this process, but each
    # run it returns carries its count
    scenario = load_preset("behind")
    multistart = surrogate._multistart
    nfev, evaluations = [0, 0], [0]

    def summing(side):
        def wrapped(*args):
            runs = multistart(*args)
            nfev[side] += sum(run.nfev for run in runs)
            return runs

        return wrapped

    lml = surrogate.log_marginal_likelihood

    def counted(*args):
        evaluations[0] += 1
        return lml(*args)

    with monkeypatch.context() as m:
        serial(m)
        m.setattr(surrogate, "_multistart", summing(0))
        m.setattr(surrogate, "log_marginal_likelihood", counted)
        serial_records = run_campaign(scenario, GpUcbSampler(), LatticePlanner(), 12)
    pids = set()
    monkeypatch.setattr(surrogate, "_multistart", summing(1))
    records = run_campaign(scenario, GpUcbSampler(), LatticePlanner(), 12,
                           episode_sink=lambda r, e: pids.add(helper_pid(opened)))
    assert len(pids - {None}) == 1
    assert nfev == [evaluations[0], evaluations[0]]
    assert [r.prompt for r in records] == [r.prompt for r in serial_records]


def test_a_platform_without_sched_getaffinity_runs_fits_serially(
    tmp_path, monkeypatch, opened
):
    # macOS and Windows have no os.sched_getaffinity: the helper takes such
    # a platform for one CPU, and the campaign is the pinned one
    with monkeypatch.context() as m:
        serial(m)
        pinned = campaign_files(tmp_path, "pinned")
    monkeypatch.delattr(os, "sched_getaffinity")
    unknown = campaign_files(tmp_path, "unknown")
    # no fit sent its starts, so no helper process was forked
    assert [(helper.sent, helper.process) for helper in opened] == [(0, None), (0, None)]
    assert_same_tree(pinned, unknown)


# runs a GP-UCB and a Sobol `avstress run` in a fresh interpreter, on one
# CPU if its argument is 1, and prints, after their output, whether it
# loaded multiprocessing, which only the start of a helper or of an episode
# writer imports. The Sobol campaign's planner raises at every 23rd replan,
# so some of its episodes fail and stderr has their warnings
PINNED_RUN_SCRIPT = """
import os, sys
import avstress.cli
from avstress.planner import LatticePlanner
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

class SometimesRaisingPlanner(LatticePlanner):
    calls = 0

    def plan(self, world, scenario):
        self.calls += 1
        if self.calls % 23 == 0:
            raise RuntimeError("planner raised")
        return super().plan(world, scenario)

argv = ["run", "behind", "--sampler", "bo", "--budget", "12", "--out", "out"]
assert avstress.cli.main(argv) == 0
avstress.cli.LatticePlanner = SometimesRaisingPlanner
argv = ["run", "front", "--sampler", "sobol", "--budget", "12", "--out", "out"]
assert avstress.cli.main(argv) == 0
print("multiprocessing" in sys.modules)
"""


def test_campaign_on_one_cpu_equals_the_campaign_on_all(tmp_path):
    runs = []
    for pin in ("1", "0"):
        os.mkdir(tmp_path / pin)
        proc = subprocess.run(
            [sys.executable, "-c", PINNED_RUN_SCRIPT, pin], cwd=tmp_path / pin,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        *out, loaded = proc.stdout.splitlines()
        runs.append((out, proc.stderr, loaded))
    # pinned to one CPU no process starts; unpinned, the episode writer and
    # the fit helper do where they can
    assert [loaded for *_, loaded in runs] == ["False", str(len(os.sched_getaffinity(0)) >= 2)]
    assert runs[0][0] == [os.path.join("out", "behind_bo"), os.path.join("out", "front_sobol")]
    assert runs[0][1].count("warning: episode") >= 3
    assert runs[0][:2] == runs[1][:2]
    assert_same_tree(tmp_path / "1", tmp_path / "0")


def test_campaign_and_grid_on_one_blas_thread_equal_the_default(tmp_path):
    # the OPENBLAS_NUM_THREADS variable, at 1 or unset (OpenBLAS's default,
    # one thread per core), changes no bit of a campaign with 10 GP-UCB steps
    # or of its grid. It does not show that the GP pins one thread: at this
    # size OpenBLAS does not split its work. TestBlasThreads in
    # test_surrogate.py and TestBlasThreadScope in test_optimizer.py do
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        out = str(tmp_path / name)
        for argv in (["run", "behind", "--sampler", "bo", "--budget", "12", "--out", out],
                     ["export-gp", os.path.join(out, "behind_bo"), "--resolution", "33"]):
            proc = subprocess.run([sys.executable, "-m", "avstress.cli", *argv],
                                  capture_output=True, text=True, env={**env, **threads},
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "one" / "behind_bo" / "gp_grid.csv").exists()
    assert_same_tree(tmp_path / "one", tmp_path / "default")
