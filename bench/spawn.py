"""Run one command; record its exit code, wall time and peak memory.

    python3 bench/spawn.py RESULT_FILE CMD...

The command inherits this process's standard streams. The result is
written to RESULT_FILE as {"exit_code", "wall_s", "maxrss_kb"}, where
``maxrss_kb`` is the largest resident set of the command and the children
it waited for, from ``wait4``.

``run.py`` starts every command through this small process because Linux
starts a child's peak resident set at the peak of the process that spawned
it, and ``run.py`` grows as it checks reports.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_file, cmd = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(
            {"exit_code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
