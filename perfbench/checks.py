"""Output checks for the benchmark workloads.

Each workload kind has an ``extract`` function that reads the values the
reference file stores from one run's output directory, and a ``check``
function that returns a list of problems (empty when the outputs are right).
Checks compare numbers, never bytes, and ignore every hash field: hash values
identify inputs, they are not results.

Invariants hold at any seed.  Reference values (``reference.json``, written by
``make_reference.py``) exist for the seeds listed there; accountant outputs
must match them to a relative 1e-8, which a kernel change of ~1e-11 absolute
passes and a kernel scaled by (1 + 1e-6) fails.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

RTOL = 1e-8
N_CELLS = 64
ALPHA_GRID = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
SGD_ALGORITHMS = ("rw_dpsgd", "local_dpsgd", "central_dpsgd")


def _close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=RTOL, abs_tol=1e-15)


def _read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines if line]


def read_pairwise(path: Path) -> list[list[float | None]]:
    """Pairwise CSV as rows of floats; empty cells (the diagonal) are None."""
    return [[float(c) if c else None for c in row] for row in _read_rows(path)]


def read_buckets(path: Path) -> list[list[float]]:
    """``distance_mean.csv`` as ``[distance, mean, std, count]`` rows."""
    rows = _read_rows(path)
    if rows[0] != ["distance", "mean", "std", "count"]:
        raise ValueError(f"{path.name}: unexpected header {rows[0]}")
    return [[int(r[0]), float(r[1]), float(r[2]), int(r[3])] for r in rows[1:]]


def cell_positions(n: int) -> list[tuple[int, int]]:
    """The fixed off-diagonal cells compared against the reference."""
    rng = random.Random(n)
    cells: set[tuple[int, int]] = set()
    while len(cells) < N_CELLS:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            cells.add((u, v))
    return sorted(cells)


# --------------------------------------------------------------------------- #
# privacy
# --------------------------------------------------------------------------- #


def extract_privacy(out: Path, seed: int) -> dict:
    eps = read_pairwise(out / f"pairwise_seed{seed}.csv")
    buckets = read_buckets(out / "distance_mean.csv")
    return {
        "edges": buckets[0][3] // 2,
        "buckets": buckets,
        "cells": [[u, v, eps[u][v]] for u, v in cell_positions(len(eps))],
    }


def check_privacy(out: Path, seed: int, n: int, ref: dict | None) -> list[str]:
    problems: list[str] = []
    eps = read_pairwise(out / f"pairwise_seed{seed}.csv")
    buckets = read_buckets(out / "distance_mean.csv")

    if len(eps) != n or any(len(row) != n for row in eps):
        return [f"pairwise matrix is not {n} x {n}"]
    total, count = 0.0, 0
    for u in range(n):
        row = eps[u]
        if row[u] is not None:
            problems.append(f"diagonal cell ({u},{u}) is not empty")
        for v in range(n):
            x = row[v]
            if v == u:
                continue
            if x is None or not math.isfinite(x) or x < 0.0:
                problems.append(f"cell ({u},{v}) = {x!r} is not finite and nonnegative")
            elif v > u and not math.isclose(x, eps[v][u], rel_tol=1e-12):
                problems.append(f"cells ({u},{v}) and ({v},{u}) differ: {x!r} vs {eps[v][u]!r}")
            else:
                total += x
                count += 1
        if len(problems) > 5:
            return problems

    if buckets[0][0] != 1 or any(b[0] <= a[0] for a, b in zip(buckets, buckets[1:])):
        problems.append("distance buckets do not start at 1 and increase")
    if sum(b[3] for b in buckets) != n * (n - 1):
        problems.append("distance bucket counts do not sum to n(n-1)")
    bucket_mean = sum(b[1] * b[3] for b in buckets) / n / (n - 1)
    if not math.isclose(bucket_mean, total / count, rel_tol=1e-9):
        problems.append(f"distance buckets average {bucket_mean!r}, pairwise matrix {total / count!r}")

    if ref is None:
        return problems
    if buckets[0][3] != 2 * ref["edges"]:
        problems.append(f"{buckets[0][3] // 2} edges, reference {ref['edges']}")
    if len(buckets) != len(ref["buckets"]):
        problems.append(f"{len(buckets)} distance buckets, reference {len(ref['buckets'])}")
    for got, want in zip(buckets, ref["buckets"]):
        if got[0] != want[0] or got[3] != want[3] or not (_close(got[1], want[1]) and _close(got[2], want[2])):
            problems.append(f"distance bucket {got} differs from reference {want}")
    for u, v, want in ref["cells"]:
        if not _close(eps[u][v], want):
            problems.append(f"cell ({u},{v}) = {eps[u][v]!r}, reference {want!r}")
    return problems


# --------------------------------------------------------------------------- #
# calibrate
# --------------------------------------------------------------------------- #

CALIBRATION_KEYS = ("sigma2", "epsilon", "alpha", "rdp_statistic", "gap_limited")


def extract_calibrate(out: Path, seed: int) -> dict:
    cal = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    return {k: cal[k] for k in CALIBRATION_KEYS}


def check_calibrate(out: Path, seed: int, n: int, ref: dict | None) -> list[str]:
    cal = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    sigma2, eps, alpha, rdp = cal["sigma2"], cal["epsilon"], cal["alpha"], cal["rdp_statistic"]
    if not all(math.isfinite(x) and x > 0.0 for x in (sigma2, eps, rdp)):
        problems.append(f"non-finite or non-positive calibration {cal}")
        return problems
    if eps > cal["target_eps"]:
        problems.append(f"calibrated epsilon {eps!r} exceeds the target {cal['target_eps']!r}")
    if alpha not in ALPHA_GRID:
        problems.append(f"alpha {alpha!r} is not on the grid {ALPHA_GRID}")
    elif sigma2 < 2.0 * alpha * (alpha - 1.0) * (1.0 - 1e-12):
        problems.append(f"sigma2 {sigma2!r} is below the gate at alpha {alpha!r}")
    converted = rdp + math.log(1.0 / cal["delta"]) / (alpha - 1.0)
    if not math.isclose(converted, eps, rel_tol=1e-12):
        problems.append(f"epsilon {eps!r} is not the conversion {converted!r} of the RDP statistic")
    if ref is None:
        return problems
    for key in CALIBRATION_KEYS:
        want, got = ref[key], cal[key]
        same = got == want if isinstance(want, bool) else _close(got, want)
        if not same:
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


# --------------------------------------------------------------------------- #
# sgd
# --------------------------------------------------------------------------- #

SGD_KEYS = ("final_objective", "final_accuracy", "sigma2_rw", "sigma2_local")


def extract_sgd(out: Path, seed: int) -> dict:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return {"runs": [{"algorithm": r["algorithm"], **{k: r[k] for k in SGD_KEYS}} for r in summary["runs"]]}


def check_sgd(out: Path, seed: int, n: int, ref: dict | None) -> list[str]:
    runs = json.loads((out / "summary.json").read_text(encoding="utf-8"))["runs"]
    problems: list[str] = []
    if tuple(r["algorithm"] for r in runs) != SGD_ALGORITHMS:
        return [f"summary runs {[r['algorithm'] for r in runs]}, expected {list(SGD_ALGORITHMS)}"]
    for r in runs:
        if not all(math.isfinite(r[k]) for k in SGD_KEYS):
            problems.append(f"{r['algorithm']}: non-finite result {r}")
        elif not 0.0 <= r["final_accuracy"] <= 1.0:
            problems.append(f"{r['algorithm']}: accuracy {r['final_accuracy']!r} outside [0, 1]")
    if ref is None or problems:
        return problems
    for got, want in zip(runs, ref["runs"]):
        for key in SGD_KEYS:
            if not _close(got[key], want[key]):
                problems.append(f"{got['algorithm']}: {key} = {got[key]!r}, reference {want[key]!r}")
    return problems


KINDS = {
    "privacy": (extract_privacy, check_privacy),
    "calibrate": (extract_calibrate, check_calibrate),
    "sgd": (extract_sgd, check_sgd),
}


def check_outputs(kind: str, out: Path, seed: int, n: int, ref: dict | None) -> list[str]:
    """Problems with one run's outputs; a missing or unreadable file is one."""
    manifest = out / "manifest.json"
    if not manifest.exists():
        return ["manifest.json was not written"]
    missing = [f for f in json.loads(manifest.read_text(encoding="utf-8"))["files"] if not (out / f).exists()]
    if missing:
        return [f"manifest lists missing files {missing}"]
    try:
        return KINDS[kind][1](out, seed, n, ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
