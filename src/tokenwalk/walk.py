"""Token random-walk simulation.

The token is inherently serial: one node holds it per step.  Sampling uses a
counter-based Philox stream keyed by the seed, so trajectories are bitwise
reproducible and independent replicas can be launched from spawned seeds
without coordination.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TokenwalkError
from .ioutil import atomic_write_bytes, dump_json, write_rows_csv
from .transition import HASH_VERSION, TransitionMatrix

__all__ = [
    "Trajectory",
    "NodeView",
    "simulate",
    "visit_counts",
    "view_of",
    "save_trajectory_csv",
    "save_trajectory_binary",
    "load_trajectory_binary",
    "TRAJECTORY_MAGIC",
]

TRAJECTORY_MAGIC = b"TWLK0001"


@dataclass(frozen=True)
class Trajectory:
    """A realized walk v_0, ..., v_T (length ``steps + 1``).

    `noise_only[t]` marks update opportunities (t < T) where the visited
    node had exhausted its contribution cap; the optimizer then injects noise
    without a gradient.  Burn-in steps are not flagged -- they carry no update
    at all and are recorded via `burn_in`.
    """

    nodes: np.ndarray
    n: int
    seed: int
    w_hash: str
    burn_in: int = 0
    contribution_cap: int | None = None
    noise_only: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return self.nodes.shape[0] - 1


@dataclass(frozen=True)
class NodeView:
    """What node `owner` observes: its visit times and forwarding targets.

    `events` holds ``(t, successor)`` pairs, successor ``None`` for a final
    visit at t = T (the token stops there).
    """

    owner: int
    events: tuple[tuple[int, int | None], ...]


def _philox_key(seed) -> int:
    """Flatten a seed (int or SeedSequence) into a 128-bit Philox key."""
    if isinstance(seed, np.random.SeedSequence):
        words = seed.generate_state(2, dtype=np.uint64)
        return int(words[0]) | (int(words[1]) << 64)
    return int(seed) % (1 << 128)


def simulate(
    w: TransitionMatrix,
    v0: int,
    steps: int,
    seed,
    *,
    contribution_cap: int | None = None,
    burn_in: int = 0,
) -> Trajectory:
    """Run the token for `steps` transitions starting at `v0`.

    Each move inverts the CDF of the current row against one uniform from a
    Philox stream keyed by `seed` (an int, or a ``numpy.random.SeedSequence``
    for spawned replicas).  Zero-probability targets are never selected, so
    consecutive nodes always lie in the support of W.  Entries must be
    nonnegative and rows must sum to 1 (to 1e-9).
    """
    n = w.n
    if not 0 <= v0 < n:
        raise TokenwalkError(f"start node {v0} outside range 0..{n - 1}")
    if steps < 0:
        raise TokenwalkError(f"steps must be nonnegative, got {steps}")
    if burn_in < 0 or burn_in > steps:
        raise TokenwalkError(f"burn_in must be in [0, steps], got {burn_in}")
    if contribution_cap is not None and contribution_cap < 0:
        raise TokenwalkError(f"contribution_cap must be >= 0, got {contribution_cap}")
    row_sums = w.w.sum(axis=1)
    if np.any(w.w < 0.0) or not np.allclose(row_sums, 1.0, atol=1e-9, rtol=0.0):
        raise TokenwalkError("simulate requires a row-stochastic matrix")

    # Each row's CDF over its support only, stepped by `bisect` with no NumPy
    # call per step.  The last support cell's CDF is 1.0, so a uniform in the
    # row-sum rounding gap never lands on a zero-mass cell.
    support = [np.flatnonzero(row > 0.0) for row in w.w]
    targets = [array("q", cols.astype(np.int64).tobytes()) for cols in support]
    cdfs = [array("d", np.append(cum[cols[:-1]], 1.0).tobytes())
            for cum, cols in zip(np.cumsum(w.w, axis=1), support)]

    key = _philox_key(seed)
    rng = np.random.Generator(np.random.Philox(key=key))
    path = [v0]
    cur = v0
    for u in rng.random(steps).tolist():
        cur = targets[cur][bisect_right(cdfs[cur], u)]
        path.append(cur)
    nodes = np.array(path, dtype=np.int64)

    noise_only = np.zeros(steps + 1, dtype=bool)
    if contribution_cap is not None:
        # A visit is over the cap when its node already had `contribution_cap`
        # visits since burn-in: its 0-based rank among that node's visits,
        # read off one stable sort by node.
        visits = nodes[burn_in:steps]
        order = np.argsort(visits, kind="stable")
        counts = np.bincount(visits, minlength=n)
        first = np.cumsum(counts) - counts  # where each node's visits start in `order`
        rank = np.empty_like(order)
        rank[order] = np.arange(visits.size) - first[visits[order]]
        noise_only[burn_in:steps] = rank >= contribution_cap

    nodes.setflags(write=False)
    noise_only.setflags(write=False)
    return Trajectory(
        nodes=nodes,
        n=n,
        seed=key,
        w_hash=w.content_hash(),
        burn_in=burn_in,
        contribution_cap=contribution_cap,
        noise_only=noise_only,
    )


def visit_counts(traj: Trajectory) -> np.ndarray:
    """Visits per node over the whole trajectory; sums to steps + 1."""
    return np.bincount(traj.nodes, minlength=traj.n)


def view_of(traj: Trajectory, v: int) -> NodeView:
    """The visit/forward events observable by node `v`."""
    if not 0 <= v < traj.n:
        raise TokenwalkError(f"node {v} outside range 0..{traj.n - 1}")
    times = np.flatnonzero(traj.nodes == v)
    events = tuple(
        (int(t), int(traj.nodes[t + 1]) if t < traj.steps else None) for t in times
    )
    return NodeView(owner=v, events=events)


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #


def _sidecar(traj: Trajectory) -> dict:
    return {
        "n": traj.n,
        "steps": traj.steps,
        "seed": traj.seed if traj.seed.bit_length() <= 63 else str(traj.seed),
        "w_hash": traj.w_hash,
        "hash_version": HASH_VERSION,
        "burn_in": traj.burn_in,
        "contribution_cap": traj.contribution_cap,
    }


def save_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """(t, node) rows plus a JSON sidecar with walk metadata."""
    path = Path(path)
    write_rows_csv(path, ["t", "node"], [(t, int(v)) for t, v in enumerate(traj.nodes)])
    dump_json(path.with_suffix(path.suffix + ".json"), _sidecar(traj))


def save_trajectory_binary(traj: Trajectory, path: str | Path) -> None:
    """8-byte magic header followed by the node sequence as little-endian u32."""
    payload = TRAJECTORY_MAGIC + traj.nodes.astype("<u4").tobytes()
    path = Path(path)
    atomic_write_bytes(path, payload)
    dump_json(path.with_suffix(path.suffix + ".json"), _sidecar(traj))


def load_trajectory_binary(path: str | Path) -> np.ndarray:
    """Read back a binary trajectory; returns the node id sequence."""
    data = Path(path).read_bytes()
    if len(data) < len(TRAJECTORY_MAGIC) or data[: len(TRAJECTORY_MAGIC)] != TRAJECTORY_MAGIC:
        raise TokenwalkError(f"{path}: missing {TRAJECTORY_MAGIC!r} header")
    body = data[len(TRAJECTORY_MAGIC) :]
    if len(body) % 4 != 0:
        raise TokenwalkError(f"{path}: truncated u32 payload ({len(body)} bytes)")
    return np.frombuffer(body, dtype="<u4").astype(np.int64)
