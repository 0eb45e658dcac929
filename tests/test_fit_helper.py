"""The GP fit's helper process (`fit_helper.FitHelper`).

Inside a campaign, and where the process may run on at least 2 CPUs, one
forked helper runs the odd-numbered L-BFGS-B starts of every fit. These
tests check that it changes no bit, that no process outlives the campaign
whichever way it ends, and that a helper that raises or dies leaves the
campaign as a serial loop would have left it.
"""
import filecmp
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from avstress import cli, optimizer, surrogate
from avstress.fit_helper import FitHelper
from avstress.optimizer import GpUcbSampler, SobolSampler, run_campaign
from avstress.planner import LatticePlanner
from avstress.scenario import load_preset

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
needs_two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the helper runs only on 2 CPUs or more"
)


def proc_state(pid):
    """The state letter of /proc/<pid>/stat, or None once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


def gone(pid):
    # a zombie has exited; only its parent, or init once it is orphaned,
    # can remove its entry
    return proc_state(pid) in (None, "Z")


def children(pid=None):
    """Pids whose parent is `pid` (this process by default), zombies too."""
    pid = os.getpid() if pid is None else pid
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                if int(fh.read().rpartition(")")[2].split()[1]) == pid:
                    found.add(int(entry))
        except (FileNotFoundError, ProcessLookupError):
            pass
    return found


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.fixture
def opened(monkeypatch):
    """The FitHelpers that campaigns open during the test, in order."""
    helpers = []

    class Recording(FitHelper):
        def __init__(self):
            super().__init__()
            helpers.append(self)

    monkeypatch.setattr(optimizer, "FitHelper", Recording)
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


def assert_same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    assert not (cmp.left_only or cmp.right_only or cmp.funny_files), cmp.report()
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    assert (mismatch, errors) == ([], [])
    for sub in cmp.common_dirs:
        assert_same_tree(a / sub, b / sub)


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

class Recording(optimizer.FitHelper):
    def __init__(self):
        super().__init__()
        opened.append(self)

optimizer.FitHelper = Recording

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
        with FitHelper() as helper:
            with pytest.raises(np.linalg.LinAlgError) as helper_error:
                surrogate.fit(X, y, helper=helper)
            pid = helper.process.pid
            # the reply was read before the fit raised: nothing is left in
            # the pipe, and the next fit reads its own reply
            assert not helper.conn.poll()
            model = surrogate.fit(X10, y10, helper=helper)
            assert (helper.process.pid, helper.fits) == (pid, 2)
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
        with FitHelper() as helper:
            # the helper sends back no error, only that its starts failed;
            # this process then runs the starts and raises the error itself
            with pytest.raises(LocalError, match="start 3"):
                surrogate.fit(X, y, helper=helper)
            pid = helper.process.pid
            # the same helper serves the next fit
            assert not helper.conn.poll()
            surrogate.fit(X[:10], y[:10], helper=helper)
            assert (helper.process.pid, helper.fits) == (pid, 2)
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
    assert [(helper.fits, helper.process) for helper in opened] == [(0, None), (0, None)]
    assert_same_tree(pinned, unknown)


# runs `avstress run` in a fresh interpreter, optionally on one CPU, and
# says whether it loaded multiprocessing, which only a helper's start imports
PINNED_RUN_SCRIPT = """
import contextlib, io, os, sys
import avstress.cli
out, pin = sys.argv[1], sys.argv[2] == "1"
if pin:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
with contextlib.redirect_stdout(io.StringIO()):
    assert avstress.cli.main(["run", "behind", "--sampler", "bo", "--budget", "12",
                              "--out", out]) == 0
print("multiprocessing" in sys.modules)
"""


def test_campaign_on_one_cpu_equals_the_campaign_on_all(tmp_path):
    loaded = []
    for pin in ("1", "0"):
        proc = subprocess.run(
            [sys.executable, "-c", PINNED_RUN_SCRIPT, str(tmp_path / pin), pin],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded.append(proc.stdout.strip())
    # pinned to one CPU no helper starts; unpinned one does where it can
    assert loaded == ["False", str(len(os.sched_getaffinity(0)) >= 2)]
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
