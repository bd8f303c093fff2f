"""Run one command from a small process; print its wall time, exit code, peak RSS.

    python3 -S perfbench/launch.py PROGRAM [ARG ...]

The cli workload starts every plapreg command through this script.  Linux
charges a child's peak RSS with the resident set of the process it was
spawned from, so a command spawned straight from the workload process
(numpy, scipy and the reference kernel loaded) would report that process's
memory as its own.  This script imports only os, sys, time and json, so
the figure it reports is the command's.  stdin and stdout of the command
go to /dev/null; stderr passes through.
"""

import json
import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    devnull = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    print(json.dumps({"s": seconds, "rc": os.waitstatus_to_exitcode(status),
                      "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
