"""The helper processes of a campaign: the GP fit's and the episode writer's.

`Helper` is the one helper class. A helper is a child process that runs
module-level functions in the order the campaign's process sends them, and
replies to each whether it raised. It starts no process where the campaign
may use only one CPU (or cannot tell), and the campaign does whatever its
helper does not confirm: work that raised, work sent to a helper that died
or did not reply within HELPER_EXIT_S. No exception crosses the pipe, so
the campaign's process raises what a serial loop raises. A helper exits
after work that raised, one whose reply did not come is killed, and the
next `send` forks a new one.

A fit's 8 L-BFGS-B starts are independent (Rasmussen & Williams 2006,
section 5.4). `optimizer.run_campaign` opens the campaign's fit helper and
passes it to every proposal: `GpUcbSampler` hands it to each fit, and
`SobolSampler` ignores it. The helper runs the odd-numbered starts while
the campaign's process runs the even-numbered ones; the runs are merged in
start order, so the fit picks the start that one process would. The static
split is balanced: over the 98 fits of a 3-agent, budget-100 campaign the
larger half took 3.74 s of 7.04 s of serial start time. Threads would not
do: the likelihood is Python over small arrays and holds the GIL. A fit
outside a campaign (`export-gp`) runs all 8 starts in its own process.
`persist.EpisodeWriter` holds the other helper, which writes `run`'s
episode files.

A helper is forked (`multiprocessing`'s `fork` context) at its first
`send`, so a campaign that fits no GP starts no fit helper, and it serves
the campaign's later work. So the fork is paid once per campaign, and the
imports never: a fresh interpreter takes most of a second to import numpy,
scipy and the GP, which `spawn` or `forkserver` would pay in every
campaign, and a fresh process per fit cost more CPU in the campaign's
process than it saved. Being a fork, a helper runs the code as it was at
its fork: it sees monkeypatches made before then, but not later ones. This
module imports neither numpy nor scipy, so a campaign can open its helper
before it knows whether it will fit a GP.

The campaign's process closes a child's end of the pipe once it has forked
the child, and every child that `multiprocessing` forks closes the
campaign's end of every helper pipe open at its fork, its own and a
sibling's alike (`multiprocessing.util.register_after_fork`). So the
campaign's process holds the only other end of each pipe, and a helper
whose campaign's process is gone reads EOF.
"""
from __future__ import annotations

import os
import pickle
import signal
from typing import Any, Callable, Tuple

# seconds the campaign's process waits for each reply of a helper, the fit's
# and the episode writer's alike
HELPER_EXIT_S = 5.0


def _child(conn) -> None:
    """A helper's process: ignore SIGINT, which the campaign's process
    handles; then for each (number, work, args) received reply (number,
    True, work(*args)), or (number, False, None) and return if the work
    raised. Return too at EOF or once the campaign's end is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    try:
        while True:
            number, work, args = pickle.loads(conn.recv_bytes())
            try:
                result = work(*args)
            except Exception:
                conn.send((number, False, None))
                return
            conn.send((number, True, result))
    except (EOFError, OSError):
        return


class Helper:
    """A child process of a campaign, forked by the first `send`, and the
    campaign's end of its pipe to it. Leaving its `with` block closes it."""

    def __init__(self):
        self.process = self.conn = None
        self.sent = 0  # the number of the last work sent, echoed in its reply
        self.replied = 0  # the number of the last reply received

    def __enter__(self):
        return self

    def __exit__(self, *_) -> None:
        self.close()

    def send(self, work: Callable, *args) -> bool:
        """Have the helper run `work(*args)`, `work` a module-level function,
        which pickles by name; False, and nothing sent, where the process
        may run on one CPU only (or the platform cannot tell) or the helper
        is gone."""
        if self.process is None:
            affinity = getattr(os, "sched_getaffinity", None)
            if affinity is None or len(affinity(0)) < 2:
                return False
            self._start()
        self.sent += 1
        try:
            # what conn.send sends, without multiprocessing's pickler class,
            # which takes 40% longer on an episode's trace
            self.conn.send_bytes(pickle.dumps((self.sent, work, args), pickle.HIGHEST_PROTOCOL))
        except OSError:
            self.close()
            return False
        return True

    def receive(self) -> Tuple[bool, Any]:
        """(ok, result) of the oldest work sent and not replied to: (True,
        what it returned), or (False, None) where it raised, or the helper
        died or did not reply within HELPER_EXIT_S. After a False the helper
        is closed, and the next `send` forks a new one."""
        try:
            if self.conn.poll(HELPER_EXIT_S):
                number, ok, result = self.conn.recv()
                if number != self.replied + 1:
                    raise RuntimeError(f"helper replied to work {number}, not {self.replied + 1}")
                self.replied = number
                if ok:
                    return True, result
        except (EOFError, OSError):
            pass
        self.close()
        return False, None

    def _start(self) -> None:
        import multiprocessing
        from multiprocessing.util import register_after_fork

        ctx = multiprocessing.get_context("fork")
        conn, child_end = ctx.Pipe()
        # every child multiprocessing forks from now on closes this end
        register_after_fork(conn, type(conn).close)
        process = ctx.Process(target=_child, args=(child_end,), daemon=True)
        # SIGINT stays blocked from the fork until the child ignores it
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            process.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child_end.close()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self.process, self.conn, self.replied = process, conn, self.sent

    def close(self) -> None:
        """Close the pipe, kill the child and join it. By then the child has
        replied to all its work, or it cannot be trusted to: its work raised,
        its reply did not come in time, a send failed or the campaign's
        process raised."""
        if self.process is None:
            return
        self.conn.close()
        self.process.kill()
        self.process.join()
        self.process = self.conn = None
