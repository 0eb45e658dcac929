#!/usr/bin/env bash
# Usage: .github/no-process-left.sh CMD [ARG...]
#
# Runs CMD in a session of its own and exits with its status. If a process
# of that session, such as a helper process that a test or a campaign left
# behind, is still alive once CMD has exited, it prints and kills them and
# exits 1. A command started with & in a non-interactive shell ignores
# SIGINT; put `env --default-signal=INT` in front of one that needs it.
setsid "$@" &
pid=$!
status=0; wait "$pid" || status=$?
left=$(ps -s "$pid" -o pid= || true)
if [ -n "$left" ]; then
  echo "processes left running after: $*"
  ps -s "$pid" -o pid,args
  kill -9 $left
  exit 1
fi
exit "$status"
