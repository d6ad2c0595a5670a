"""Transition matrices for random walks on undirected graphs.

Every chain is symmetric and doubly stochastic, supported on the graph's
edges (plus the diagonal), so its stationary law is uniform.  Within the
library, only the builders here make a :class:`TransitionMatrix`.  The primary
construction assigns each edge the weight ``1 / max(deg(u), deg(v))`` and
soaks the per-row residual into the diagonal, which is symmetric and doubly
stochastic on any connected graph.  Lazy-walk variants mix in self-loops with
weight ``kappa``.  :func:`validate` checks the rule on any matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import TransitionError
from .graphs import Graph
from .ioutil import new_sha256

__all__ = [
    "HASH_VERSION",
    "TransitionMatrix",
    "ValidationReport",
    "hamilton_weighting",
    "with_self_loops",
    "blend_self_loops",
    "validate",
]

# Absolute tolerance on stochasticity sums; dense double-precision arithmetic
# keeps row-sum drift under ~n*eps even at n=4096.
DEFAULT_ATOL = 1e-12

#: Scheme of :meth:`TransitionMatrix.content_hash`, recorded next to every
#: stored chain hash.  Version 1 hashed 17-digit decimal strings.
HASH_VERSION = 2

_HASH_CACHE_KEY = "content_hash"

# Edges per block of `hamilton_weighting`'s scatter.
_EDGE_BLOCK = 1 << 16


@dataclass(frozen=True)
class TransitionMatrix:
    """A dense transition matrix, symmetric and doubly stochastic as the
    builders make it (:func:`validate` checks that).

    The array is treated as immutable after construction.  `_cache` holds the
    spectral decomposition and the content hash once computed (see
    :mod:`tokenwalk.spectral`); no privacy kernel is cached on the chain.
    """

    w: np.ndarray
    _cache: dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise TransitionError(f"transition matrix must be square, got shape {w.shape}")
        object.__setattr__(self, "w", w)
        w.setflags(write=False)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def content_hash(self) -> str:
        """SHA-256 of ``"{n}|"`` and the entries as little-endian doubles.

        Identifies the chain bit for bit (scheme :data:`HASH_VERSION`);
        computed once and kept in `_cache`.  The entries are hashed in place
        (a little-endian C-contiguous ``w`` is not copied).
        """
        digest = self._cache.get(_HASH_CACHE_KEY)
        if digest is None:
            h = new_sha256(f"{self.n}|".encode())
            h.update(np.ascontiguousarray(self.w, dtype="<f8"))
            digest = h.hexdigest()
            self._cache[_HASH_CACHE_KEY] = digest
        return digest


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`.

    Human-readable `failures` and the worst violation of each checked
    property: row or column sum error, asymmetry, the smallest entry, and
    the largest mass off the graph's support (0.0 when no graph was given).
    `ok` holds when nothing failed.
    """

    failures: tuple[str, ...]
    max_row_sum_error: float
    max_asymmetry: float
    min_entry: float
    max_off_support: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise TransitionError("; ".join(self.failures))


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #


def hamilton_weighting(graph: Graph) -> TransitionMatrix:
    """Edge weight ``1 / max(deg(u), deg(v))``, residual mass on the diagonal.

    Doubly stochastic and symmetric on any connected graph.  On a regular
    graph the diagonal holds only each row's rounding residual (0 or a few ulp).
    """
    n = graph.n
    deg = graph.degrees
    w = np.zeros((n, n), dtype=float)
    # Edge blocks keep the index and weight temporaries at a few MB whatever m:
    # unblocked, at complete n = 2048 they lift calibrate's peak RSS above
    # that of `eigh` (210 against 196 MB).
    for start in range(0, len(graph.edges), _EDGE_BLOCK):
        u, v = graph.edges[start : start + _EDGE_BLOCK].T
        w[u, v] = w[v, u] = 1.0 / np.maximum(deg[u], deg[v])
    residual = 1.0 - w.sum(axis=1)
    # Residuals are nonnegative: each row sums to sum_v 1/max(d_u, d_v) <= 1.
    np.fill_diagonal(w, np.maximum(residual, 0.0))
    return TransitionMatrix(w=w)


def with_self_loops(graph: Graph, kappa: float) -> TransitionMatrix:
    """Lazy uniform walk ``(1 - kappa) * A / d + kappa * I`` on a d-regular graph.

    Raises
    ------
    TransitionError
        If the graph is not regular or `kappa` is outside ``[0, 1)`` -- the
        uniform-neighbor step is only stochastic for constant degree.
    """
    if not 0.0 <= kappa < 1.0:
        raise TransitionError(f"kappa must be in [0, 1), got {kappa}")
    deg = graph.degrees
    if not np.all(deg == deg[0]):
        raise TransitionError(
            "with_self_loops requires a regular graph "
            f"(degrees range {deg.min()}..{deg.max()}); use blend_self_loops instead"
        )
    d = float(deg[0])
    w = graph.adjacency_matrix() * ((1.0 - kappa) / d)
    np.fill_diagonal(w, kappa)
    return TransitionMatrix(w=w)


def blend_self_loops(tm: TransitionMatrix, kappa: float) -> TransitionMatrix:
    """Mix an existing chain with staying put: ``(1 - kappa) * W + kappa * I``.

    Works on any chain (irregular graphs included) and preserves symmetry and
    double stochasticity.
    """
    if not 0.0 <= kappa < 1.0:
        raise TransitionError(f"kappa must be in [0, 1), got {kappa}")
    w = (1.0 - kappa) * tm.w + kappa * np.eye(tm.n)
    return TransitionMatrix(w=w)


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #


def validate(tm: TransitionMatrix, graph: Graph | None = None) -> ValidationReport:
    """Check finiteness, symmetry, row and column sums, nonnegativity and support,
    each to within :data:`DEFAULT_ATOL`.

    Never raises: every violation is packed into the report so callers decide
    (the CLI maps a failed report to a config error, tests inspect messages).
    When `graph` is given, off-diagonal mass outside its edge set is a
    failure.  Periodicity is not checked: a bipartite chain is well defined,
    and the accountant treats its eigenvalue -1 exactly.  One n x n scratch
    array serves both the asymmetry and the support check.
    """
    w = tm.w
    n = tm.n
    failures: list[str] = []
    if not np.isfinite(w).all():
        i, j = np.unravel_index(np.argmin(np.isfinite(w)), w.shape)
        failures.append(f"entry W[{i},{j}] = {float(w[i, j])} is not finite")
    with np.errstate(invalid="ignore"):  # inf - inf and inf + -inf, reported above
        scratch = np.subtract(w, w.T)
        rows, cols = w.sum(axis=1), w.sum(axis=0)

    np.abs(scratch, out=scratch)
    asym = float(scratch.max(initial=0.0))  # initial: a 0 x 0 chain has no violation
    if not asym <= DEFAULT_ATOL:  # written so that NaN fails, here and for the row sums
        i, j = np.unravel_index(np.argmax(scratch), w.shape)
        failures.append(f"not symmetric: |W[{i},{j}] - W[{j},{i}]| = {asym:.3g}")

    row_dev, col_dev = np.abs(rows - 1.0), np.abs(cols - 1.0)
    row_err, col_err = float(row_dev.max(initial=0.0)), float(col_dev.max(initial=0.0))
    if not row_err <= DEFAULT_ATOL:
        i = int(np.argmax(row_dev))
        failures.append(f"row {i} sums to {float(rows[i])!r} (violation {row_err:.3g})")
    elif col_err > DEFAULT_ATOL:
        j = int(np.argmax(col_dev))
        failures.append(f"column {j} sums to {float(cols[j])!r} (violation {col_err:.3g})")

    min_entry = float(w.min()) if n else 0.0
    if min_entry < -DEFAULT_ATOL:
        i, j = np.unravel_index(np.argmin(w), w.shape)
        failures.append(f"negative entry W[{i},{j}] = {min_entry:.3g}")

    off_support = 0.0
    if graph is not None and graph.n != n:
        failures.append(f"graph has {graph.n} nodes but matrix is {n}x{n}")
    elif graph is not None:
        np.abs(w, out=scratch)
        u, v = graph.edges.T
        scratch[u, v] = scratch[v, u] = 0.0
        np.fill_diagonal(scratch, 0.0)
        off_support = float(scratch.max(initial=0.0))
        if off_support > DEFAULT_ATOL:
            i, j = np.unravel_index(np.argmax(scratch), w.shape)
            failures.append(
                f"mass {off_support:.3g} at non-edge ({i},{j}) outside graph support"
            )

    return ValidationReport(
        failures=tuple(failures),
        max_row_sum_error=max(row_err, col_err),
        max_asymmetry=asym,
        min_entry=min_entry,
        max_off_support=off_support,
    )
