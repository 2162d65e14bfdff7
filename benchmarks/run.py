"""Benchmark of mixar's `fit`, `select` and `forecast` commands.

    python3 benchmarks/run.py --workload fit-B --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout.  The workload's inputs are built
from --seed with `mixar simulate` (and a short `mixar fit` for forecast-B)
three times; `setup_s` is the median of those set-ups.  Then whole rounds of
the workload's commands run, each as a fresh `python -m mixar.cli` process
with PYTHONPATH=src, while --seconds have not passed, and every round's outputs are
checked against references computed apart from the program.  With --trace 1
the same commands run in this process instead, once plain and once with
wrappers around each module's public functions, and the per-layer metrics
are printed (see trace_run.py).  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from launch import CommandFailed  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUPS = 3
COMMAND_TIMEOUT = 120.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process that starts each command (see launch.py)."""

    def __init__(self, work: Path):
        self.stderr = work / "stderr.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, args: list[str]) -> tuple[int, float, float, str]:
        """Run one process; returns (exit code, wall seconds, peak RSS in MB, stderr tail)."""
        request = {"args": args, "env": child_env(), "cwd": str(ROOT), "timeout": COMMAND_TIMEOUT,
                   "stderr": str(self.stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise CommandFailed("the command launcher exited")
        return tuple(json.loads(reply))


def run_command(launcher: Launcher, cmd: Command) -> tuple[int, float, float, str]:
    cmd.out.mkdir(parents=True, exist_ok=True)
    return launcher.run([sys.executable, "-m", "mixar.cli", *cmd.argv])


def set_up(launcher: Launcher, workload, work: Path) -> tuple[Path, float, list[str]]:
    """Build the inputs SETUPS times.

    Returns the inputs directory, the median set-up time and the check
    messages: identical set-ups must write byte-identical data files.
    """
    times = []
    dirs = []
    for i in range(SETUPS):
        d = work / f"setup{i}"
        total = 0.0
        for cmd in workload.setup_commands(d):
            code, wall, _, err = run_command(launcher, cmd)
            if code != 0:
                raise CommandFailed(f"set-up command {cmd.label} exited {code}: {err}")
            total += wall
        times.append(total)
        dirs.append(d)
    fails = [
        f"set-up output {p.name} differs between identical set-ups"
        for p in sorted(dirs[0].glob("*.csv"))
        if any((d / p.name).read_bytes() != p.read_bytes() for d in dirs[1:])
    ]
    return dirs[0], statistics.median(times), fails


def timed_rounds(launcher: Launcher, workload, inputs: Path, work: Path, seconds: float) -> dict:
    """Whole rounds of fresh-process commands; a new round starts while time is left."""
    start = time.perf_counter()
    round_times, round_rss, fails = [], [], []
    attempted = failed = 0
    while True:
        commands = workload.round_commands(inputs, work / "round")
        total, rss = 0.0, 0.0
        ok = True
        for cmd in commands:
            code, wall, peak, err = run_command(launcher, cmd)
            attempted += 1
            total += wall
            rss = max(rss, peak)
            if code != 0:
                failed += 1
                ok = False
                fails.append(f"{cmd.label} exited {code}: {err}")
        if ok:
            fails += workload.check(inputs, commands)
        round_times.append(total)
        round_rss.append(rss)
        if time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "fails": fails,
        "metrics": {
            "round_s": metric(statistics.median(round_times), "s"),
            "peak_rss_mb": metric(statistics.median(round_rss), "MB"),
        },
        "log": "round times " + " ".join(f"{t:.3f}" for t in round_times) + " s",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mixar" / "cli.py").is_file():
        print(f"error: no mixar sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out"))
    try:
        with Launcher(work) as launcher:
            inputs, setup_s, setup_fails = set_up(launcher, workload, work)
            if args.trace:
                from trace_run import traced_rounds

                run = traced_rounds(workload, inputs, work, args.seconds, SRC, launcher.run)
            else:
                run = timed_rounds(launcher, workload, inputs, work, args.seconds)
                run["metrics"] = {"setup_s": metric(setup_s, "s"), **run["metrics"]}
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload}: set-up {setup_s:.3f} s, {run['log']}", file=sys.stderr)
    fails = setup_fails + run["fails"]
    for message in fails:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
