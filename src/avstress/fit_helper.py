"""The helper process that runs half of each GP fit's starts in a campaign.

A fit's 8 L-BFGS-B starts are independent (Rasmussen & Williams 2006,
section 5.4). `optimizer.run_campaign` opens the campaign's one `FitHelper`
and passes it to every proposal: `GpUcbSampler` hands it to each fit, and
`SobolSampler` ignores it. Where the process may run on at least 2 CPUs,
the helper runs the odd-numbered starts while the campaign's process runs
the even-numbered ones; the runs are merged in start order, so the fit
picks the start that one process would. The static split is balanced: over
the 98 fits of a 3-agent, budget-100 campaign the larger half took 3.74 s
of 7.04 s of serial start time. Threads would not do: the likelihood is
Python over small arrays and holds the GIL.

The helper is forked (`multiprocessing`'s `fork` context) at the campaign's
first `send`, so a campaign that fits no GP starts no process, and it
serves the campaign's later fits. So the fork is paid once per campaign,
and the imports never: a fresh interpreter takes most of a second to import
numpy, scipy and the GP, which `spawn` or `forkserver` would pay in every
campaign, and a fresh process per fit cost more CPU in the campaign's
process than it saved. Being a fork, the helper runs the code as it was at
the campaign's first fit: it sees monkeypatches made before then, but not
later ones. A fit outside a campaign (`export-gp`) runs all 8 starts in its
own process.

The helper replies with the work's result, or None if it raised, so no
exception crosses the pipe: the fit then reruns the starts in its own
process, which raises what a serial loop raises. This module imports
neither numpy nor scipy, so a campaign can open its helper before it knows
whether it will fit a GP.
"""
from __future__ import annotations

import os
import signal
from typing import Any, Callable

# seconds a fit helper has to exit once its pipe is closed: an idle one
# exits at once
HELPER_EXIT_S = 5.0


def _serve(conn, parent_end) -> None:
    """The helper's loop: for each (fit number, work, args) it receives,
    send back (fit number, work(*args)), or (fit number, None) if the work
    raised. It closes its copy of the campaign's end of the pipe, or the
    pipe would never report EOF, ignores SIGINT, which the campaign's
    process handles, and returns at EOF or once the campaign's end is
    gone."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    while True:
        try:
            fit_number, work, args = conn.recv()
        except EOFError:
            return
        try:
            result = work(*args)
        except Exception:
            result = None
        try:
            conn.send((fit_number, result))
        except OSError:  # the campaign's end is gone
            return


class FitHelper:
    """The helper process of one campaign and the campaign's end of its
    pipe; forked by the first `send`, and again after the last one died.
    Leaving its `with` block closes it: an exception, an interrupt among
    them, may have left the helper in the middle of a fit, so it is then
    killed."""

    def __init__(self):
        self.process = None
        self.conn = None
        self.fits = 0  # the number of the last fit sent, echoed in the reply

    def __enter__(self) -> FitHelper:
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.close(kill=exc_type is not None)

    def send(self, work: Callable, *args) -> bool:
        """Have the helper run `work(*args)`, a module-level function;
        False, and nothing sent, where the process may run on one CPU only
        (or the platform cannot tell) or the helper is gone."""
        if self.process is None:
            affinity = getattr(os, "sched_getaffinity", None)
            if affinity is None or len(affinity(0)) < 2:
                return False
            self._start()
        self.fits += 1
        try:
            self.conn.send((self.fits, work, args))
        except OSError:
            self.close(kill=True)
            return False
        return True

    def receive(self) -> Any:
        """The result of the work last sent, or None if it raised or the
        helper died before it replied."""
        try:
            fit_number, result = self.conn.recv()
        except (EOFError, OSError):
            self.close(kill=True)
            return None
        if fit_number != self.fits:
            raise RuntimeError(f"fit helper replied for fit {fit_number}, not {self.fits}")
        return result

    def _start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        conn, child_end = ctx.Pipe()
        process = ctx.Process(target=_serve, args=(child_end, conn), daemon=True)
        # SIGINT stays blocked from the fork until the helper ignores it
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child_end.close()
        self.process, self.conn = process, conn

    def close(self, kill: bool = False) -> None:
        """Close the pipe and join the helper, which then exits at EOF;
        `kill` it first where it may be in the middle of a fit. A helper
        still there after HELPER_EXIT_S is killed, so that a fault in it
        cannot hang the campaign."""
        if self.process is None:
            return
        self.conn.close()
        if kill:
            self.process.kill()
        self.process.join(HELPER_EXIT_S)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.process = self.conn = None
