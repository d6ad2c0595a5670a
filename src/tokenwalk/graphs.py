"""Graph construction: synthetic families and edge-list ingestion.

All graphs are simple, undirected, connected, with node ids exactly
``0..n-1`` and edges as canonical rows ``u < v``, sorted, without repeats.
The family builders emit that form and generated edges are used as built;
only edge lists read from a file are checked (:func:`load_edge_list`).
Connectivity is checked where it can fail: random families redraw with
derived sub-seeds until a draw is connected (bounded retry count, recorded on
the result), and an edge list must be connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import GraphError
from .ioutil import new_sha256

__all__ = [
    "Graph",
    "GraphSpec",
    "generate",
    "load_edge_list",
    "shortest_path_distances",
    "hop_levels",
    "default_geometric_radius",
    "MAX_CONNECTIVITY_RETRIES",
]

# Random families are redrawn with fresh sub-seeds at most this many times.
MAX_CONNECTIVITY_RETRIES = 100

# BFS processes as many sources at once as keep each level's (source, node)
# expansion under this many elements (a few MB of int64 temporaries).
_BFS_BLOCK_ELEMENTS = 1 << 18

# Edges per block of :meth:`Graph.edge_lines`: not one Python string per edge,
# and each block's buffers (the ints' tuple, the text and its hash form, a few
# tens of kB each) stay under the 128 KiB mmap threshold that tokenwalk.cli
# fixes, so they are reused from the heap instead of being mapped and faulted
# in anew for every block.
_EDGE_TEXT_BLOCK = 1 << 12

# Edge-list text to hash text: "u v\n" lines become "u,v;" items.
_HASH_TEXT = str.maketrans(" \n", ",;")

RANDOM_FAMILIES = frozenset({"erdos_renyi", "geometric", "sbm"})


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
        """Stable hash of (n, edge set); identifies the topology.

        It is the SHA-256 of ``"{n}|u,v;u,v;..."``: the :meth:`edge_lines`
        text with ``,`` for each space and ``;`` between lines.  Computed
        once, by the first read of :meth:`edge_lines` to its end.
        """
        if "_content_hash" not in self.__dict__:
            for _ in self.edge_lines():
                pass
        return self.__dict__["_content_hash"]

    def edge_lines(self) -> Iterator[str]:
        """The edges as ``"u v\\n"`` lines, in blocks of ``_EDGE_TEXT_BLOCK``
        edges with one ``%``-format per block; until :meth:`content_hash` is
        known, the same text also feeds it."""
        h = None if "_content_hash" in self.__dict__ else new_sha256(f"{self.n}|".encode())
        sep = b""
        for start in range(0, len(self.edges), _EDGE_TEXT_BLOCK):
            block = self.edges[start : start + _EDGE_TEXT_BLOCK]
            text = "%d %d\n" * len(block) % tuple(block.ravel().tolist())
            if h is not None:  # the block's last newline becomes the next block's ";"
                h.update(sep)
                h.update(text[:-1].translate(_HASH_TEXT).encode())
                sep = b";"
            yield text
        if h is not None:
            self.__dict__["_content_hash"] = h.hexdigest()


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
    gathered = np.empty((0, 0), dtype=np.uint64)
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
                if gathered.shape[0] < node.size:
                    gathered = np.empty((node.size, packed.shape[1]), dtype=packed.dtype)
                # The frontier's bitsets go into one buffer that grows and is reused: a
                # fresh gather per level (n^2/8 bytes on a complete graph) would sit
                # above the mmap threshold that tokenwalk.cli fixes and be faulted in
                # anew.  mode="clip" writes `out` directly (node ids are in range).
                bitsets = np.take(packed, node, axis=0, out=gathered[: node.size], mode="clip")
                starts = np.flatnonzero(np.concatenate([[True], row[1:] != row[:-1]]))
                reach = np.bitwise_or.reduceat(bitsets, starts, axis=0)
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


def default_geometric_radius(n: int) -> float:
    """Connectivity-threshold radius sqrt(2 ln n / n), scaled by 1.1."""
    return 1.1 * math.sqrt(2.0 * math.log(n) / n)


def _connected(n: int, edges: np.ndarray) -> bool:
    return bool(np.all(hop_levels(n, edges, [0])[0] >= 0))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphError(message)


def _need_n(spec: GraphSpec) -> int:
    _require(spec.n is not None, f"family '{spec.family}' requires n")
    return int(spec.n)  # type: ignore[arg-type]


Built = tuple[int, np.ndarray, "np.ndarray | None"]  # (n, edges, positions)


# --------------------------------------------------------------------------- #
# Family builders: (spec, rng) -> (n, edges, positions), with canonical rows
# (u < v, sorted, no repeats).  `rng` is None for deterministic families, whose
# graphs must be connected by construction: `generate` does not check them.
# --------------------------------------------------------------------------- #


def _complete(spec: GraphSpec, rng: None) -> Built:
    n = _need_n(spec)
    return n, np.column_stack(np.triu_indices(n, k=1)), None


def _ring(spec: GraphSpec, rng: None) -> Built:
    n = _need_n(spec)
    _require(n >= 3, "ring requires n >= 3")
    u = np.arange(n - 1)
    # The wrap-around edge (0, n-1) sorts second.
    return n, np.insert(np.column_stack([u, u + 1]), 1, [0, n - 1], axis=0), None


def _star(spec: GraphSpec, rng: None) -> Built:
    n = _need_n(spec)
    _require(n >= 3, "star requires n >= 3")
    leaves = np.arange(1, n)
    return n, np.column_stack([np.zeros_like(leaves), leaves]), None


def _grid2d(spec: GraphSpec, rng: None) -> Built:
    _require(spec.rows is not None and spec.cols is not None, "grid2d requires rows and cols")
    rows, cols = int(spec.rows), int(spec.cols)  # type: ignore[arg-type]
    _require(rows >= 1 and cols >= 1 and rows * cols >= 2, "grid2d needs rows*cols >= 2")
    u = np.arange(rows * cols)
    # Each node's right then lower neighbour, so the rows come out sorted.
    v = np.column_stack([u + 1, u + cols]).ravel()
    keep = np.column_stack([u % cols < cols - 1, u < (rows - 1) * cols]).ravel()
    return rows * cols, np.column_stack([np.repeat(u, 2)[keep], v[keep]]), None


def _hypercube(spec: GraphSpec, rng: None) -> Built:
    if spec.dim is not None:
        dim = int(spec.dim)
    else:
        n = _need_n(spec)
        dim = round(math.log2(n)) if n > 0 else 0
        _require(n >= 2 and (1 << dim) == n, "hypercube requires dim, or n a power of 2")
    _require(dim >= 1, "hypercube requires dim >= 1")
    u = np.repeat(np.arange(1 << dim), dim)
    v = u ^ np.tile(1 << np.arange(dim), 1 << dim)
    keep = u < v
    return 1 << dim, np.column_stack([u[keep], v[keep]]), None


def _erdos_renyi(spec: GraphSpec, rng: np.random.Generator) -> Built:
    n = _need_n(spec)
    _require(spec.q is not None and 0.0 < spec.q <= 1.0, "erdos_renyi requires q in (0,1]")
    iu, ju = np.triu_indices(n, k=1)
    # Select by index: the pair-sized mask is freed before the edge rows are
    # allocated, so the rows, which outlive the call, do not pin the heap above it.
    keep = np.flatnonzero(rng.random(iu.shape[0]) < float(spec.q))  # type: ignore[arg-type]
    return n, np.column_stack([iu[keep], ju[keep]]), None


def _geometric(spec: GraphSpec, rng: np.random.Generator) -> Built:
    n = _need_n(spec)
    _require(n >= 2, "geometric requires n >= 2")  # before the default radius takes log(n)
    radius = spec.radius if spec.radius is not None else default_geometric_radius(n)
    _require(0.0 < radius <= math.sqrt(2.0), "geometric requires radius in (0, sqrt(2)]")
    pos = rng.random((n, 2))
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu, ju = np.triu_indices(n, k=1)
    keep = np.flatnonzero(dist[iu, ju] <= float(radius))
    return n, np.column_stack([iu[keep], ju[keep]]), pos


def _sbm(spec: GraphSpec, rng: np.random.Generator) -> Built:
    _require(
        spec.cluster_sizes is not None and spec.prob_matrix is not None,
        "sbm requires cluster_sizes and prob_matrix",
    )
    sizes = [int(s) for s in spec.cluster_sizes]  # type: ignore[union-attr]
    _require(all(s > 0 for s in sizes), "sbm cluster sizes must be positive")
    k = len(sizes)
    _require(len(spec.prob_matrix) == k and all(np.shape(row) == (k,) for row in spec.prob_matrix),
             f"sbm prob_matrix must be {k} x {k}, one row of {k} per cluster")
    p = np.asarray(spec.prob_matrix, dtype=float)
    _require(bool(np.all((p >= 0.0) & (p <= 1.0))), "sbm probabilities must be in [0,1]")  # false for NaN
    _require(np.allclose(p, p.T), "sbm prob_matrix must be symmetric")
    n = sum(sizes)
    membership = np.repeat(np.arange(k), sizes)
    iu, ju = np.triu_indices(n, k=1)
    probs = p[membership[iu], membership[ju]]
    keep = np.flatnonzero(rng.random(iu.shape[0]) < probs)
    return n, np.column_stack([iu[keep], ju[keep]]), None


_BUILDERS = {
    "complete": _complete,
    "ring": _ring,
    "star": _star,
    "grid2d": _grid2d,
    "hypercube": _hypercube,
    "erdos_renyi": _erdos_renyi,
    "geometric": _geometric,
    "sbm": _sbm,
}


# --------------------------------------------------------------------------- #
# Public operations
# --------------------------------------------------------------------------- #


def generate(spec: GraphSpec) -> Graph:
    """Build a connected graph from `spec`.

    Deterministic families are built once; they are connected by
    construction.  Random families draw attempt k from the k-th child of
    ``SeedSequence(spec.seed or 0)`` until a draw is connected, at most
    :data:`MAX_CONNECTIVITY_RETRIES` times, and record the redraws on the
    graph.  Builder edges are canonical and used as built; only ``edge_list``
    input is checked, by :func:`load_edge_list`.
    """
    fam = spec.family
    _require(spec.seed is None or spec.seed >= 0, f"seed must be nonnegative, got {spec.seed}")
    if fam == "edge_list":
        _require(spec.path is not None, "edge_list family requires path")
        return load_edge_list(spec.path)[0]  # type: ignore[arg-type]
    build = _BUILDERS.get(fam)
    if build is None:
        expected = sorted([*_BUILDERS, "edge_list"])
        raise GraphError(f"unknown graph family '{fam}' (expected one of {expected})")
    rngs = [None]
    if fam in RANDOM_FAMILIES:
        children = np.random.SeedSequence(spec.seed or 0).spawn(MAX_CONNECTIVITY_RETRIES)
        rngs = map(np.random.default_rng, children)
    for attempt, rng in enumerate(rngs):
        n, edges, positions = build(spec, rng)
        _require(n >= 2, f"need at least 2 nodes, got n={n}")
        if rng is None or _connected(n, edges):
            edges.setflags(write=False)
            return Graph(n, edges, positions, family=fam, seed=spec.seed, retries=attempt)
    raise GraphError(
        f"no connected draw for family '{fam}' within {MAX_CONNECTIVITY_RETRIES} retries"
    )


def load_edge_list(path: str | Path) -> tuple[Graph, dict[int, int]]:
    """Parse a whitespace-separated `u v` edge-list file.

    Lines starting with ``#`` are comments.  Node ids are remapped to a dense
    ``0..n-1`` range in first-appearance order; the original->dense mapping is
    returned alongside the graph.  Malformed lines, non-integer ids and
    self-edges are rejected with the offending line number.  This is the one
    path where edges come from outside the program, so it is the one that
    canonicalises them (rows ``u < v``, sorted, repeats merged) and rejects a
    disconnected graph.
    """
    path = Path(path)
    if not path.is_file():
        raise GraphError(f"edge-list file not found: {path}")
    mapping: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    try:
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
                for orig in (a, b):
                    mapping.setdefault(orig, len(mapping))
                pairs.append((mapping[a], mapping[b]))
    except UnicodeDecodeError:
        raise GraphError(f"{path}: not UTF-8 text") from None
    n = len(mapping)
    if n < 2:
        raise GraphError(f"{path}: fewer than 2 nodes in edge list")
    uv = np.array(pairs, dtype=np.int64)
    key = np.sort(uv.min(axis=1) * n + uv.max(axis=1))
    key = key[np.concatenate([[True], key[1:] != key[:-1]])]  # dedupe; np.unique loads numpy.ma
    edges = np.column_stack([key // n, key % n])
    edges.setflags(write=False)
    if not _connected(n, edges):
        raise GraphError(f"graph with n={n} is not connected")
    return Graph(n, edges, family="edge_list"), mapping


def shortest_path_distances(g: Graph) -> np.ndarray:
    """All-pairs hop distances by BFS from every node.

    Returns a symmetric ``(n, n)`` matrix with zero diagonal, of dtype
    ``np.min_scalar_type(-n)``: the narrowest signed integer type that holds
    -n, and so every level 0..n-1 (int8 up to n = 128, int16 up to n = 32768).
    Kept beside a caller's n x n eigensolve, it costs 1 or 2 bytes a cell up
    to n = 32768, not int64's 8.
    """
    return hop_levels(g.n, g.edges, np.arange(g.n)).astype(np.min_scalar_type(-g.n))

