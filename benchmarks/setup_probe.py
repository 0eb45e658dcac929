"""Start `avstress run` in a fresh interpreter and stop it at its first episode.

Usage: python3 setup_probe.py <src dir> run <avstress run arguments...>

Prints the monotonic clock at the moment the first episode would start; the
caller subtracts the time it started this process to get the set-up time
(interpreter start, imports, argument parsing, scenario load, manifest).
"""
import sys
import time

sys.path.insert(0, sys.argv[1])
from avstress import cli, optimizer  # noqa: E402


def _first_episode(*args, **kwargs):
    print(time.monotonic(), flush=True)
    raise SystemExit(0)


optimizer.simulate_episode = _first_episode
sys.exit(cli.main(sys.argv[2:]))
