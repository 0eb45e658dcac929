"""The helper processes of a campaign: the GP fit's and the episode writer's.

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

The fit helper is forked (`multiprocessing`'s `fork` context) at the
campaign's first `send`, so a campaign that fits no GP starts no process,
and it serves the campaign's later fits. So the fork is paid once per
campaign, and the imports never: a fresh interpreter takes most of a second
to import numpy, scipy and the GP, which `spawn` or `forkserver` would pay
in every campaign, and a fresh process per fit cost more CPU in the
campaign's process than it saved. Being a fork, the helper runs the code as
it was at the campaign's first fit: it sees monkeypatches made before then,
but not later ones. A fit outside a campaign (`export-gp`) runs all 8
starts in its own process.

The fit helper replies with the work's result, or None if it raised, so no
exception crosses the pipe: the fit then reruns the starts in its own
process, which raises what a serial loop raises. This module imports
neither numpy nor scipy, so a campaign can open its helper before it knows
whether it will fit a GP.

`Helper` is what the fit helper shares with `persist.EpisodeWriter`, the
process that writes `run`'s episode files: the rule that no process starts
where the campaign may use only one CPU (or cannot tell), the fork with
SIGINT blocked until the child ignores it, and the close, kill and join.
The campaign's process closes a child's end of the pipe once it has forked
the child. Each child closes the campaign's end of every helper pipe open
at its fork, its own and a sibling's alike (the writer's, in a fit helper
forked after it), and keeps only its own end of its own pipe. So the
campaign's process holds the only other end of each pipe, and a helper
whose campaign's process is gone reads EOF.
"""
from __future__ import annotations

import os
import signal
from typing import Any, Callable

# seconds a helper has to exit once its pipe is closed: an idle one exits
# at once
HELPER_EXIT_S = 5.0


def _child(serve: Callable, conn) -> None:
    """A helper's process: close the campaign's ends of the helper pipes,
    ignore SIGINT, which the campaign's process handles, and serve `conn`."""
    for end in Helper.campaign_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    serve(conn)


class Helper:
    """A child process of a campaign and the campaign's end of its pipe to
    it; `started` forks the child. Leaving its `with` block closes it: an
    exception, an interrupt among them, may have left the child in the
    middle of its work, so it is then killed. A subclass's `_serve(conn)`
    is the child's work; it runs in the child alone."""

    # the campaign's ends of the pipes of every helper that has a process:
    # a forked child holds copies of all of them, whichever object opened
    # them, so the set is the process's, not one helper's
    campaign_ends: set = set()

    def __init__(self):
        self.process = None
        self.conn = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.close(kill=exc_type is not None)

    def _serve(self, conn) -> None:
        raise NotImplementedError

    def started(self) -> bool:
        """Whether the child runs, forked now if it has not been: False
        where the process may run on one CPU only, or the platform cannot
        tell."""
        if self.process is None:
            affinity = getattr(os, "sched_getaffinity", None)
            if affinity is None or len(affinity(0)) < 2:
                return False
            self._start()
        return True

    def _start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        conn, child_end = ctx.Pipe()
        process = ctx.Process(target=_child, args=(self._serve, child_end), daemon=True)
        Helper.campaign_ends.add(conn)
        # SIGINT stays blocked from the fork until the child ignores it
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            process.start()
        except BaseException:
            Helper.campaign_ends.discard(conn)
            conn.close()
            raise
        finally:
            child_end.close()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self.process, self.conn = process, conn

    def close(self, kill: bool = False) -> None:
        """Close the pipe and join the child, which then exits at EOF;
        `kill` it first where it may be in the middle of its work. A child
        still there after HELPER_EXIT_S is killed, so that a fault in it
        cannot hang the campaign."""
        if self.process is None:
            return
        Helper.campaign_ends.discard(self.conn)
        self.conn.close()
        if kill:
            self.process.kill()
        self.process.join(HELPER_EXIT_S)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.process = self.conn = None


class FitHelper(Helper):
    """The fit helper of one campaign; forked by the first `send`, and
    again after the last one died."""

    def __init__(self):
        super().__init__()
        self.fits = 0  # the number of the last fit sent, echoed in the reply

    def send(self, work: Callable, *args) -> bool:
        """Have the helper run `work(*args)`, a module-level function;
        False, and nothing sent, where the process may run on one CPU only
        (or the platform cannot tell) or the helper is gone."""
        if not self.started():
            return False
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

    def _serve(self, conn) -> None:
        """The helper's loop: for each (fit number, work, args) it receives,
        send back (fit number, work(*args)), or (fit number, None) if the
        work raised. It returns at EOF or once the campaign's end is gone."""
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
