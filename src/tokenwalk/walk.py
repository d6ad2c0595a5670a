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

import numpy as np

from .errors import TokenwalkError
from .transition import TransitionMatrix

__all__ = ["Trajectory", "simulate"]

#: Uniforms drawn per block of the walk; 32 KiB of doubles.
_UNIFORM_BLOCK = 4096


@dataclass(frozen=True)
class Trajectory:
    """A realized walk v_0, ..., v_T (length ``steps + 1``) as read-only int64 `nodes`.

    `nodes` is a view of the buffer that :func:`simulate` filled step by
    step, not a copy of it.  `w_hash` is the walked chain's ``content_hash``;
    its size and the seed are the caller's, who passed them to :func:`simulate`.
    """

    nodes: np.ndarray
    w_hash: str

    @property
    def steps(self) -> int:
        return self.nodes.shape[0] - 1


def _philox_key(seed) -> int:
    """Flatten a seed (int or SeedSequence) into a 128-bit Philox key."""
    if isinstance(seed, np.random.SeedSequence):
        words = seed.generate_state(2, dtype=np.uint64)
        return int(words[0]) | (int(words[1]) << 64)
    return int(seed) % (1 << 128)


def _reuse(rows: list, row: array) -> array:
    """The last array in `rows` if its values equal `row`'s, else `row`."""
    return rows[-1] if rows and memoryview(rows[-1]) == memoryview(row) else row


def simulate(w: TransitionMatrix, v0: int, steps: int, seed) -> Trajectory:
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
    row_sums = w.w.sum(axis=1)
    if w.w.min() < 0.0 or not np.allclose(row_sums, 1.0, atol=1e-9, rtol=0.0):
        raise TokenwalkError("simulate requires a row-stochastic matrix")

    # `path` is the run's one array sized by `steps` and becomes `nodes` with no
    # copy.  Uniforms are drawn one block at a time, so the loop holds at most
    # `_UNIFORM_BLOCK` of them, and its NumPy buffer stays under the 128 KiB mmap
    # threshold that `tokenwalk.cli` fixes.
    gen = np.random.Generator(np.random.Philox(key=_philox_key(seed)))
    path = array("q", [v0]) * (steps + 1)

    # Each row's CDF over its support only, stepped by `bisect` with no NumPy
    # call per step.  The last support cell's CDF is 1.0, so a uniform in the
    # row-sum rounding gap never lands on a zero-mass cell.  `cumsum` adds in
    # order, so the support's sums are bitwise those of a full-row `cumsum`
    # (the zeros it skips are exact).  Targets are C shorts (int16) where every
    # node fits, else C ints.  A row of either table equal to the row before
    # it reuses that array, so a run of equal rows is kept once: all CDF rows
    # of a Hamilton chain on a regular graph, all target rows of a chain whose
    # rows share one support.  Equal rows apart from each other keep their own
    # arrays, and nothing is kept per row to find them.
    code = "h" if n <= 1 << 15 else "i"
    targets, cdfs = [], []
    for row in w.w:
        cols = np.flatnonzero(row > 0.0)
        targets.append(_reuse(targets, array(code, cols.astype(code).tobytes())))
        cdfs.append(_reuse(cdfs, array("d", np.append(np.cumsum(row[cols[:-1]]), 1.0).tobytes())))

    cur = v0
    for start in range(0, steps, _UNIFORM_BLOCK):
        # Unnamed, a block's list is freed before the next one is drawn.
        for t, u in enumerate(gen.random(min(_UNIFORM_BLOCK, steps - start)).tolist(), start + 1):
            cur = targets[cur][bisect_right(cdfs[cur], u)]
            path[t] = cur
    del targets, cdfs
    nodes = np.frombuffer(path, dtype=np.int64)
    nodes.setflags(write=False)
    return Trajectory(nodes=nodes, w_hash=w.content_hash())

