"""Graph construction: synthetic families and edge-list ingestion.

All graphs are simple, undirected, connected, with node ids exactly
``0..n-1``.  Random families retry generation with derived sub-seeds until a
connected draw is found (bounded retry count, recorded on the result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import GraphError
from .ioutil import dump_json, sha256_of_text

__all__ = [
    "Graph",
    "GraphSpec",
    "generate",
    "load_edge_list",
    "shortest_path_distances",
    "hop_levels",
    "save_edge_list",
    "default_geometric_radius",
    "MAX_CONNECTIVITY_RETRIES",
]

# Random families are redrawn with fresh sub-seeds at most this many times.
MAX_CONNECTIVITY_RETRIES = 100

# BFS processes as many sources at once as keep each level's (source, node)
# expansion under this many elements (a few MB of int64 temporaries).
_BFS_BLOCK_ELEMENTS = 1 << 18

RANDOM_FAMILIES = frozenset({"erdos_renyi", "geometric", "sbm"})
FAMILIES = frozenset(
    {
        "complete",
        "ring",
        "star",
        "grid2d",
        "hypercube",
        "erdos_renyi",
        "geometric",
        "sbm",
        "edge_list",
    }
)


# --------------------------------------------------------------------------- #
# Types
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class Graph:
    """A connected simple undirected graph on nodes ``0..n-1``.

    Attributes
    ----------
    n : int
        Node count (>= 2).
    edges : ndarray of shape (m, 2), int64, read-only
        Unordered pairs as rows ``u < v``, sorted lexicographically, no
        self-edges, no duplicates.
    positions : ndarray of shape (n, 2), optional
        Euclidean node positions (geometric family only).
    family, seed, retries :
        Provenance of the construction, recorded for export sidecars.
    """

    n: int
    edges: np.ndarray
    positions: np.ndarray | None = None
    family: str | None = None
    seed: int | None = None
    retries: int = 0

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector."""
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix."""
        a = np.zeros((self.n, self.n), dtype=float)
        u, v = self.edges.T
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a

    def content_hash(self) -> str:
        """Stable hash of (n, edge set); identifies the topology."""
        payload = f"{self.n}|" + ";".join(f"{u},{v}" for u, v in self.edges.tolist())
        return sha256_of_text(payload)


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of a graph to generate.

    Family-specific parameters: ``grid2d(rows, cols)``, ``hypercube(dim)``,
    ``erdos_renyi(n, q)``, ``geometric(n, radius)``,
    ``sbm(cluster_sizes, prob_matrix)``, ``edge_list(path)``.  ``seed`` feeds
    the RNG of random families and is ignored by deterministic ones.
    """

    family: str
    n: int | None = None
    rows: int | None = None
    cols: int | None = None
    dim: int | None = None
    q: float | None = None
    radius: float | None = None
    cluster_sizes: tuple[int, ...] | None = None
    prob_matrix: tuple[tuple[float, ...], ...] | None = None
    path: str | None = None
    seed: int | None = None


# --------------------------------------------------------------------------- #
# Internal helpers
# --------------------------------------------------------------------------- #


def _csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of `edges` both ways: u's neighbours are ``nbr[indptr[u]:indptr[u+1]]``,
    sorted when `edges` is canonical (the stable sort takes the ``(v, u)`` half first)."""
    src = np.concatenate([edges[:, 1], edges[:, 0]])
    dst = np.concatenate([edges[:, 0], edges[:, 1]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def _prefer_pull(deg_sum: int, pairs: int, rows: int, n: int) -> bool:
    """Cost rule of :func:`hop_levels`, in units of one bitset byte gathered.

    A push level costs ~64 units per neighbour of the frontier (about eight
    int64 passes); a pull level costs one unit per byte of the adjacency
    bitsets it gathers (``pairs`` rows of ``n/8`` bytes) and ~8 per cell of the
    block it unpacks and masks.  The weights are measured ratios (~25 ns per
    neighbour, ~0.4 ns per bitset byte, ~3.5 ns per cell on a 2-core Xeon).
    """
    return 64 * deg_sum > pairs * -(-n // 8) + 8 * rows * n


def _packed_adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    """Adjacency bitsets: row u holds bit v (``np.packbits`` order) for each
    neighbour v, padded to whole uint64 words so rows OR together 8 bytes at a time."""
    adj = np.zeros((n, -(-n // 64) * 64), dtype=bool)
    u, v = edges.T
    adj[u, v] = True
    adj[v, u] = True
    return np.packbits(adj, axis=1).view(np.uint64)


def hop_levels(n: int, edges: np.ndarray, sources) -> np.ndarray:
    """Hop distance from each of `sources` to every node, by level-synchronous BFS.

    `edges` is an ``(m, 2)`` array of undirected pairs on nodes ``0..n-1``.
    Returns an int64 array of shape ``(len(sources), n)`` with -1 for nodes a
    source does not reach.  Sources are expanded together in blocks, each
    level as one array of (source, node) frontier pairs sorted by source.

    Each level picks one of two directions (Beamer, Asanovic & Patterson,
    SC 2012).  *Push* lists every neighbour of every frontier pair through
    the CSR and keeps the unvisited ones, once each: its work is the
    frontier's degree sum, which is small on rings, grids and early levels.
    *Pull* ORs the adjacency bitsets of each source's frontier nodes with one
    ``np.bitwise_or.reduceat`` over the sorted pairs, masks visited cells and
    takes ``np.nonzero``: its work is one bitset per pair plus one cell per
    node of each source, which is far less than the degree sum on dense
    levels, where most neighbours are already visited.  :func:`_prefer_pull`
    weighs the two; rings and large grids never pull, complete graphs pull
    from the first level.  Both directions give the same levels, so the
    choice changes only the time.  The pull step uses integer bit operations,
    not a BLAS frontier product: a threaded float matmul of this size was
    seen to take 100x its usual time in some processes.
    """
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    deg = np.bincount(edges.ravel(), minlength=n)
    csr = packed = None  # each built at the first level that needs it
    levels = np.full((sources.shape[0], n), -1, dtype=np.int64)
    block = max(1, _BFS_BLOCK_ELEMENTS // max(1, 2 * edges.shape[0]))
    for start in range(0, sources.shape[0], block):
        lv = levels[start : start + block]
        row = np.arange(lv.shape[0])
        node = sources[start : start + block]
        lv[row, node] = 0
        depth = 0
        while row.size:
            depth += 1
            counts = deg[node]
            deg_sum = int(counts.sum())
            if _prefer_pull(deg_sum, row.size, lv.shape[0], n):
                if packed is None:
                    packed = _packed_adjacency(n, edges)
                starts = np.flatnonzero(np.concatenate([[True], row[1:] != row[:-1]]))
                reach = np.bitwise_or.reduceat(packed[node], starts, axis=0)
                fresh = np.unpackbits(reach.view(np.uint8), axis=1, count=n).view(bool)
                src = row[starts]
                hit, node = np.nonzero(fresh & (lv[src] < 0))
                row = src[hit]
            else:
                if csr is None:
                    csr = _csr(n, edges)
                indptr, nbr = csr
                first = np.cumsum(counts) - counts
                pos = np.arange(deg_sum) + np.repeat(indptr[node] - first, counts)
                row, node = np.repeat(row, counts), nbr[pos]
                fresh = lv[row, node] < 0
                row, node = row[fresh], node[fresh]
                # Keep one copy of each (source, node): a cell keeps one of the stamps written to it.
                stamp = -2 - np.arange(row.size)
                lv[row, node] = stamp
                keep = lv[row, node] == stamp
                row, node = row[keep], node[keep]
            lv[row, node] = depth
    return levels


def _finalize(
    n: int,
    edges: np.ndarray | list[tuple[int, int]],
    *,
    family: str | None,
    seed: int | None,
    retries: int = 0,
    positions: np.ndarray | None = None,
) -> Graph:
    if n < 2:
        raise GraphError(f"need at least 2 nodes, got n={n}")
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)  # a copy: the caller's array stays writable
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        u, v = edges[np.argmax(loops)]
        raise GraphError(f"self-edge rejected: ({u}, {v})")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    outside = (lo < 0) | (hi >= n)
    if outside.any():
        u, v = edges[np.argmax(outside)]
        raise GraphError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
    key = lo * n + hi
    # The family builders emit canonical rows (u < v, sorted, no repeats).
    if np.any(key[1:] <= key[:-1]) or not np.array_equal(lo, edges[:, 0]):
        key = np.sort(key)
        key = key[np.concatenate([[True], key[1:] != key[:-1]])]  # drop repeats, as np.unique would
        edges = np.column_stack([key // n, key % n])
    edges.setflags(write=False)
    if np.any(hop_levels(n, edges, [0])[0] < 0):
        raise GraphError(f"graph with n={n} is not connected")
    return Graph(
        n=n, edges=edges, positions=positions, family=family, seed=seed, retries=retries
    )


def default_geometric_radius(n: int) -> float:
    """Connectivity-threshold radius sqrt(2 ln n / n), scaled by 1.1."""
    return 1.1 * math.sqrt(2.0 * math.log(n) / n)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphError(message)


def _need_n(spec: GraphSpec) -> int:
    _require(spec.n is not None, f"family '{spec.family}' requires n")
    return int(spec.n)  # type: ignore[arg-type]


# --------------------------------------------------------------------------- #
# Family builders (one connected attempt each; random ones may raise)
# --------------------------------------------------------------------------- #


def _complete(n: int) -> np.ndarray:
    return np.column_stack(np.triu_indices(n, k=1))


def _ring(n: int) -> np.ndarray:
    _require(n >= 3, "ring requires n >= 3")
    u = np.arange(n - 1)
    return np.insert(np.column_stack([u, u + 1]), 1, [0, n - 1], axis=0)  # (0, n-1) sorts second


def _star(n: int) -> np.ndarray:
    _require(n >= 3, "star requires n >= 3")
    leaves = np.arange(1, n)
    return np.column_stack([np.zeros_like(leaves), leaves])


def _grid2d(rows: int, cols: int) -> np.ndarray:
    _require(rows >= 1 and cols >= 1 and rows * cols >= 2, "grid2d needs rows*cols >= 2")
    u = np.arange(rows * cols)
    # Each node's right then lower neighbour, so the rows come out sorted.
    v = np.column_stack([u + 1, u + cols]).ravel()
    keep = np.column_stack([u % cols < cols - 1, u < (rows - 1) * cols]).ravel()
    return np.column_stack([np.repeat(u, 2)[keep], v[keep]])


def _hypercube(dim: int) -> np.ndarray:
    _require(dim >= 1, "hypercube requires dim >= 1")
    u = np.repeat(np.arange(1 << dim), dim)
    v = u ^ np.tile(1 << np.arange(dim), 1 << dim)
    keep = u < v
    return np.column_stack([u[keep], v[keep]])


def _erdos_renyi(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < q
    return np.column_stack([iu[mask], ju[mask]])


def _geometric(
    n: int, radius: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    pos = rng.random((n, 2))
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu, ju = np.triu_indices(n, k=1)
    mask = dist[iu, ju] <= radius
    return np.column_stack([iu[mask], ju[mask]]), pos


def _sbm(
    cluster_sizes: tuple[int, ...],
    prob_matrix: tuple[tuple[float, ...], ...],
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    sizes = [int(s) for s in cluster_sizes]
    _require(all(s > 0 for s in sizes), "sbm cluster sizes must be positive")
    k = len(sizes)
    p = np.asarray(prob_matrix, dtype=float)
    _require(p.shape == (k, k), "sbm prob_matrix shape must match cluster count")
    _require(np.allclose(p, p.T), "sbm prob_matrix must be symmetric")
    _require(bool(np.all((p >= 0.0) & (p <= 1.0))), "sbm probabilities must be in [0,1]")
    n = sum(sizes)
    membership = np.repeat(np.arange(k), sizes)
    iu, ju = np.triu_indices(n, k=1)
    probs = p[membership[iu], membership[ju]]
    mask = rng.random(iu.shape[0]) < probs
    return n, np.column_stack([iu[mask], ju[mask]])


# --------------------------------------------------------------------------- #
# Public operations
# --------------------------------------------------------------------------- #


def generate(spec: GraphSpec) -> Graph:
    """Build a connected graph from `spec`.

    Deterministic families are built directly.  Random families draw with
    sub-seeds derived from ``spec.seed`` and retry on disconnected draws, up to
    :data:`MAX_CONNECTIVITY_RETRIES` attempts; the retry count is recorded on
    the returned graph.
    """
    fam = spec.family
    if fam not in FAMILIES:
        raise GraphError(f"unknown graph family '{fam}' (expected one of {sorted(FAMILIES)})")

    if fam == "edge_list":
        _require(spec.path is not None, "edge_list family requires path")
        g, _ = load_edge_list(spec.path)  # type: ignore[arg-type]
        return g

    if fam == "complete":
        n = _need_n(spec)
        return _finalize(n, _complete(n), family=fam, seed=spec.seed)
    if fam == "ring":
        n = _need_n(spec)
        return _finalize(n, _ring(n), family=fam, seed=spec.seed)
    if fam == "star":
        n = _need_n(spec)
        return _finalize(n, _star(n), family=fam, seed=spec.seed)
    if fam == "grid2d":
        _require(spec.rows is not None and spec.cols is not None, "grid2d requires rows and cols")
        rows, cols = int(spec.rows), int(spec.cols)  # type: ignore[arg-type]
        return _finalize(rows * cols, _grid2d(rows, cols), family=fam, seed=spec.seed)
    if fam == "hypercube":
        if spec.dim is not None:
            dim = int(spec.dim)
        else:
            n = _need_n(spec)
            dim = round(math.log2(n)) if n > 0 else 0
            _require(n >= 2 and (1 << dim) == n, "hypercube requires dim, or n a power of 2")
        return _finalize(1 << dim, _hypercube(dim), family=fam, seed=spec.seed)

    # Random families: rejection-sample connected draws with derived sub-seeds.
    root = np.random.SeedSequence(spec.seed if spec.seed is not None else 0)
    children = root.spawn(MAX_CONNECTIVITY_RETRIES)
    last_error: GraphError | None = None
    for attempt in range(MAX_CONNECTIVITY_RETRIES):
        rng = np.random.default_rng(children[attempt])
        positions: np.ndarray | None = None
        try:
            if fam == "erdos_renyi":
                n = _need_n(spec)
                _require(spec.q is not None and 0.0 < spec.q <= 1.0, "erdos_renyi requires q in (0,1]")
                edges = _erdos_renyi(n, float(spec.q), rng)  # type: ignore[arg-type]
            elif fam == "geometric":
                n = _need_n(spec)
                radius = spec.radius if spec.radius is not None else default_geometric_radius(n)
                _require(0.0 < radius <= math.sqrt(2.0), "geometric requires radius in (0, sqrt(2)]")
                edges, positions = _geometric(n, float(radius), rng)
            else:  # sbm
                _require(
                    spec.cluster_sizes is not None and spec.prob_matrix is not None,
                    "sbm requires cluster_sizes and prob_matrix",
                )
                n, edges = _sbm(spec.cluster_sizes, spec.prob_matrix, rng)  # type: ignore[arg-type]
            return _finalize(
                n,
                edges,
                family=fam,
                seed=spec.seed,
                retries=attempt,
                positions=positions,
            )
        except GraphError as exc:
            if "not connected" in str(exc):
                last_error = exc
                continue
            raise
    raise GraphError(
        f"no connected draw for family '{fam}' within {MAX_CONNECTIVITY_RETRIES} retries "
        f"(last error: {last_error})"
    )


def load_edge_list(path: str | Path) -> tuple[Graph, dict[int, int]]:
    """Parse a whitespace-separated `u v` edge-list file.

    Lines starting with ``#`` are comments.  Node ids are remapped to a dense
    ``0..n-1`` range in first-appearance order; the original->dense mapping is
    returned alongside the graph.  Self-edges and malformed lines are rejected
    with the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise GraphError(f"edge-list file not found: {path}")
    mapping: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []

    def dense(orig: int) -> int:
        if orig not in mapping:
            mapping[orig] = len(mapping)
        return mapping[orig]

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'u v', got {stripped!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(f"{path}:{lineno}: non-integer node id in {stripped!r}") from None
            if a == b:
                raise GraphError(f"{path}:{lineno}: self-edge rejected: {a} {b}")
            pairs.append((dense(a), dense(b)))
    if len(mapping) < 2:
        raise GraphError(f"{path}: fewer than 2 nodes in edge list")
    g = _finalize(len(mapping), pairs, family="edge_list", seed=None)
    return g, mapping


def shortest_path_distances(g: Graph) -> np.ndarray:
    """All-pairs hop distances by BFS from every node.

    Returns a symmetric integer matrix with zero diagonal.
    """
    return hop_levels(g.n, g.edges, np.arange(g.n))


def save_edge_list(g: Graph, path: str | Path) -> None:
    """Write `u v` lines plus a JSON sidecar with provenance metadata."""
    path = Path(path)
    lines = [f"{u} {v}" for u, v in g.edges.tolist()]
    from .ioutil import atomic_write_text

    atomic_write_text(path, "\n".join(lines) + "\n")
    sidecar = {
        "n": g.n,
        "family": g.family,
        "seed": g.seed,
        "retries": g.retries,
        "edge_count": len(g.edges),
        "hash": g.content_hash(),
    }
    dump_json(path.with_suffix(path.suffix + ".json"), sidecar)
