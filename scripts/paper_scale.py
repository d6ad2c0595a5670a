#!/usr/bin/env python3
"""Wall clock, CPU time and peak RSS of the paper-scale CLI commands.

Usage, from the repository root::

    PYTHONPATH=src python3 scripts/paper_scale.py [--repeat K]

Each command runs K times (default 1), each time in a fresh child process
that imports ``tokenwalk.cli`` and calls ``main``, as the ``tokenwalk``
console script does, with its outputs in a temporary directory.  The script
prints one line per run: the command and its ``--method`` (or ``--preset``),
its wall clock in seconds (spawn to exit), the child's CPU seconds (user plus
system, ``ru_utime + ru_stime``) and its peak resident set size in MiB
(``ru_maxrss``), both from ``os.wait4``.  A command that exits nonzero
stops the script.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

COMMANDS = (
    ("privacy", "--family", "erdos-renyi", "--n", "1024", "--q", "0.02",
     "--steps", "262144", "--method", "exact"),
    ("calibrate", "--family", "complete", "--n", "2048", "--steps", "524288",
     "--method", "exact", "--target-eps", "1"),
    # The CLI's default method.
    ("calibrate", "--family", "complete", "--n", "2048", "--steps", "524288",
     "--method", "closed", "--target-eps", "1"),
    # The preset's own size: n = 2048, 256 epochs.
    ("sgd", "--preset", "fig2", "--synthetic"),
)

LAUNCH = "import sys; from tokenwalk.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(args: tuple[str, ...]) -> tuple[float, float, float]:
    """Run one CLI command in a child process; return (wall s, CPU s, peak RSS MiB)."""
    with tempfile.TemporaryDirectory(prefix="paper_scale_") as out:
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, *args, "--out", out], stdout=subprocess.DEVNULL
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode != 0:
        sys.exit(f"{' '.join(args)}: exit status {child.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0  # Linux reports KiB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs per command")
    args = parser.parse_args()
    print(f"{'command':<18} {'wall s':>8} {'cpu s':>8} {'peak MiB':>8}")
    for command in COMMANDS:
        flag = "--preset" if "--preset" in command else "--method"
        label = f"{command[0]} {command[command.index(flag) + 1]}"
        for _ in range(max(1, args.repeat)):
            wall, cpu, rss = run_once(command)
            print(f"{label:<18} {wall:>8.3f} {cpu:>8.3f} {rss:>8.1f}", flush=True)


if __name__ == "__main__":
    main()
