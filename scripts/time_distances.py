#!/usr/bin/env python3
"""Time all-pairs hop distances on a fixed table of graphs.

Usage, from the repository root::

    PYTHONPATH=src python3 scripts/time_distances.py [--repeat K]

For each graph the script builds it once, then calls
``graphs.shortest_path_distances`` K times (default 3) and prints the family,
n, edge count m, the fastest of the K wall-clock times in seconds, and the
SHA-256 of the distances' bytes as int64, whatever integer type the
function returns.  Equal hashes across two checkouts mean equal distances.
"""

from __future__ import annotations

import argparse
import hashlib
import time

import numpy as np

from tokenwalk.graphs import GraphSpec, generate, shortest_path_distances

TABLE = (
    ("erdos_renyi", GraphSpec(family="erdos_renyi", n=320, q=0.06, seed=0)),
    ("erdos_renyi", GraphSpec(family="erdos_renyi", n=1024, q=0.02, seed=0)),
    ("ring", GraphSpec(family="ring", n=256)),
    ("ring", GraphSpec(family="ring", n=1024)),
    ("complete", GraphSpec(family="complete", n=512)),
    ("grid2d 32x32", GraphSpec(family="grid2d", rows=32, cols=32)),
    ("hypercube 10", GraphSpec(family="hypercube", dim=10)),
    ("star", GraphSpec(family="star", n=1024)),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timed calls per graph")
    args = parser.parse_args()
    print(f"{'family':<14} {'n':>5} {'m':>7} {'seconds':>9}  sha256")
    for name, spec in TABLE:
        g = generate(spec)
        best = float("inf")
        for _ in range(max(1, args.repeat)):
            t0 = time.perf_counter()
            dist = shortest_path_distances(g)
            best = min(best, time.perf_counter() - t0)
        digest = hashlib.sha256(dist.astype(np.int64).tobytes()).hexdigest()
        print(f"{name:<14} {g.n:>5} {len(g.edges):>7} {best:>9.4f}  {digest}")


if __name__ == "__main__":
    main()
