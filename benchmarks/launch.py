"""Runs the benchmark's commands and reports their wall time and peak memory.

run.py starts this script once and sends it one JSON request per line.  The
commands start from here rather than from run.py because on Linux a child's
peak resident set includes the peak of the process that started it.  This
process imports nothing beyond the standard library and stays small, so the
peak it reports is the command's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


class CommandFailed(RuntimeError):
    """A command the benchmark cannot do without (set-up, launcher, import) failed."""


def run(args: list[str], env: dict[str, str], cwd: str, timeout: float, stderr: str) -> list:
    """Run one process; returns [exit code, wall seconds, peak RSS in MB, stderr tail].

    The process's standard error goes to the file named by `stderr`.
    """
    with open(stderr, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode(errors="replace").strip().splitlines()[-3:]
    return [proc.returncode, wall, usage.ru_maxrss / 1024.0, " | ".join(tail)]


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
