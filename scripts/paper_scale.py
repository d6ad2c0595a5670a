#!/usr/bin/env python3
"""Wall clock, CPU time and peak RSS of the paper-scale CLI commands.

Usage::

    python3 scripts/paper_scale.py [--repeat K]

Each command runs K times (default 1), each time in a fresh child process
that imports ``tokenwalk.cli`` and calls ``main``, as the ``tokenwalk``
console script does, with its outputs in a temporary directory.  The child
finds ``tokenwalk`` in the ``src`` directory of the checkout that holds this
script, put first on its ``PYTHONPATH``, so a row always measures that
checkout's code.  The script prints one line per run: the command's label
(its name, its ``--method`` or ``--preset``, and what else sets it apart
from the other rows), its wall clock in seconds (spawn to exit), the child's
CPU seconds (user plus system, ``ru_utime + ru_stime``) and its peak resident
set size in MiB (``ru_maxrss``), both from ``os.wait4``.  A command that
exits nonzero stops the script.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

_PRIVACY_ER = ("privacy", "--family", "erdos-renyi", "--n", "1024", "--q", "0.02",
               "--steps", "262144", "--method", "exact")

# (label, CLI arguments without --out)
COMMANDS = (
    # Edge text and graph hash over 2 096 128 edges.
    ("graph complete", ("graph", "--family", "complete", "--n", "2048")),
    ("privacy exact", _PRIVACY_ER),
    # Each seed draws its own graph and runs its own eigensolve.
    ("privacy exact 3 seeds", (*_PRIVACY_ER, "--seeds", "0,1,2")),
    ("calibrate exact", ("calibrate", "--family", "complete", "--n", "2048", "--steps", "524288",
                         "--method", "exact", "--target-eps", "1")),
    # The CLI's default method.
    ("calibrate closed", ("calibrate", "--family", "complete", "--n", "2048", "--steps", "524288",
                          "--method", "closed", "--target-eps", "1")),
    # Hop distances stay alive across the eigensolve.
    ("calibrate exact ER d=2", ("calibrate", "--family", "erdos-renyi", "--n", "1024", "--q", "0.02",
                                "--statistic", "mean_at_distance", "--distance", "2", "--steps", "262144",
                                "--method", "exact", "--target-eps", "1")),
    # The preset's own size: n = 2048, 256 epochs.
    ("sgd fig2", ("sgd", "--preset", "fig2", "--synthetic")),
)

LAUNCH = "import sys; from tokenwalk.cli import main; sys.exit(main(sys.argv[1:]))"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_once(args: tuple[str, ...]) -> tuple[float, float, float]:
    """Run one CLI command in a child process; return (wall s, CPU s, peak RSS MiB)."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    with tempfile.TemporaryDirectory(prefix="paper_scale_") as out:
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, *args, "--out", out], stdout=subprocess.DEVNULL, env=env
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
    print(f"{'command':<24} {'wall s':>8} {'cpu s':>8} {'peak MiB':>8}")
    for label, command in COMMANDS:
        for _ in range(max(1, args.repeat)):
            wall, cpu, rss = run_once(command)
            print(f"{label:<24} {wall:>8.3f} {cpu:>8.3f} {rss:>8.1f}", flush=True)


if __name__ == "__main__":
    main()
