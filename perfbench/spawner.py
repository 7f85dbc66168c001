"""Small launcher that runs the benchmark's child processes.

Linux keeps a process's peak RSS across ``exec``, and a child spawned
from a large parent starts out with the parent's resident pages counted.
The harness holds the corpus and its manifest in memory, so a child it
spawned directly would report the harness's footprint as its own peak.
The harness starts this launcher before it builds anything, and every
measured child is spawned from here instead.

Each child is also bracketed by :func:`calibrate`, a fixed pure-Python
loop whose time tracks the host's speed, so the harness can express the
child's wall time at a reference speed.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stderr":
path}``; one JSON reply per stdout line, ``{"status": exit code, "wall":
seconds, "calibration": mean loop seconds before and after the child,
"maxrss_kb": peak RSS of that child from wait4}``.
"""

import json
import os
import subprocess
import sys
import time

CALIBRATION_LOOPS = 1_500_000


def calibrate() -> float:
    """Seconds one fixed, interpreter-bound loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        before = calibrate()
        with open(request["stderr"], "ab") as errors:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=errors)
            _, wait_status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = status = os.waitstatus_to_exitcode(wait_status)
        reply = {"status": status, "wall": wall, "calibration": (before + calibrate()) / 2,
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
