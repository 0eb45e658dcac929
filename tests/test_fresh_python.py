"""The runner of every fresh interpreter that a test starts
(`conftest.fresh_python`): however its block exits, no process of its
session and no open pipe outlives it."""
import gc
import os
import signal
import subprocess
import warnings

import pytest

from conftest import fresh_python, gone, wait_until

# forks a child that sleeps with its output on /dev/null, so that it holds
# no pipe of the runner's and only a kill of the session ends it; prints
# the child's pid and sleeps too
FORKING_SCRIPT = """
import os, time
pid = os.fork()
if pid == 0:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
else:
    print(pid, flush=True)
time.sleep(60)
"""


def test_a_timed_out_block_leaves_no_process_and_no_open_pipe():
    with pytest.raises(subprocess.TimeoutExpired):
        with fresh_python("-c", FORKING_SCRIPT) as proc:
            pids = [proc.pid, int(proc.stdout.readline())]
            proc.communicate(timeout=0.5)
    try:
        assert wait_until(lambda: all(gone(pid) for pid in pids), timeout=5)
    finally:
        for pid in pids:
            if not gone(pid):
                os.kill(pid, signal.SIGKILL)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del proc
        gc.collect()
    assert caught == []
