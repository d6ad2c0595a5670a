"""Graph construction: families, determinism, ingestion, distances."""

from __future__ import annotations

import hashlib
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse.csgraph import shortest_path

from tokenwalk import cli, graphs
from tokenwalk.errors import GraphError
from tokenwalk.graphs import Graph, GraphSpec, generate


_SBM_P = ((0.5, 0.05, 0.05), (0.05, 0.5, 0.05), (0.05, 0.05, 0.5))
_SMALL_SBMS = [
    GraphSpec(family="sbm", cluster_sizes=(9, 7, 5), prob_matrix=_SBM_P, seed=s) for s in range(4)
]


# --------------------------------------------------------------------------- #
# Deterministic families
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "spec, n, n_edges",
    [
        (GraphSpec(family="complete", n=6), 6, 15),
        (GraphSpec(family="ring", n=8), 8, 8),
        (GraphSpec(family="star", n=9), 9, 8),
        (GraphSpec(family="grid2d", rows=3, cols=4), 12, 17),
        (GraphSpec(family="hypercube", dim=4), 16, 32),
        (GraphSpec(family="hypercube", n=16), 16, 32),
    ],
)
def test_family_sizes(spec, n, n_edges):
    g = generate(spec)
    assert g.n == n
    assert len(g.edges) == n_edges


def test_edges_canonical_sorted():
    g = generate(GraphSpec(family="complete", n=5))
    e = g.edges
    assert e.shape == (10, 2) and e.dtype == np.int64
    assert not e.flags.writeable
    assert np.all(e[:, 0] < e[:, 1])
    assert np.array_equal(e, e[np.lexsort((e[:, 1], e[:, 0]))])
    assert len(np.unique(e, axis=0)) == len(e)


@pytest.mark.parametrize(
    "spec",
    [
        GraphSpec(family="complete", n=7),
        GraphSpec(family="ring", n=3),
        GraphSpec(family="ring", n=10),
        GraphSpec(family="star", n=6),
        GraphSpec(family="grid2d", rows=1, cols=5),
        GraphSpec(family="grid2d", rows=4, cols=1),
        GraphSpec(family="grid2d", rows=3, cols=4),
        GraphSpec(family="hypercube", dim=4),
        GraphSpec(family="erdos_renyi", n=30, q=0.2, seed=4),
        *[GraphSpec(family="geometric", n=30, radius=0.25, seed=s) for s in range(4)],
        *_SMALL_SBMS,
    ],
)
def test_canonical_builders_are_not_resorted(monkeypatch, spec):
    # The builders emit canonical rows, so `generate` neither deduplicates
    # them nor sorts them, connectivity BFS included.  Deterministic families
    # are not checked for connectivity at run time; this checks them.
    def refuse(*args, **kwargs):
        raise AssertionError("canonical edges were sorted again")

    for name in ("unique", "lexsort", "sort"):
        monkeypatch.setattr(np, name, refuse)
    g = generate(spec)
    monkeypatch.undo()
    e = g.edges
    assert e.dtype == np.int64 and not e.flags.writeable
    assert e.min() >= 0 and e.max() < g.n
    assert not np.any(e[:, 0] == e[:, 1])
    assert np.all(e[:, 0] < e[:, 1])
    assert np.array_equal(e, np.unique(e, axis=0))
    assert _connected(g)


def test_generate_peak_memory_is_about_the_edges(traced_peak):
    # The builder's index arrays and the edge rows; no canonicalising copies.
    g = generate(GraphSpec(family="complete", n=512))
    assert traced_peak(generate, GraphSpec(family="complete", n=512)) <= 2.5 * g.edges.nbytes


def test_complete_connectivity_check_builds_no_csr(monkeypatch):
    # Every level of a complete graph pulls, so the push CSR is never built.
    def refuse(*args):
        raise AssertionError("CSR built")

    g = generate(GraphSpec(family="complete", n=64))
    monkeypatch.setattr(graphs, "_csr", refuse)
    assert graphs._connected(g.n, g.edges)
    assert len(g.edges) == 64 * 63 // 2


def test_degrees():
    star = generate(GraphSpec(family="star", n=9))
    assert star.degrees[0] == 8
    assert np.all(star.degrees[1:] == 1)
    cube = generate(GraphSpec(family="hypercube", dim=4))
    assert np.all(cube.degrees == 4)
    grid = generate(GraphSpec(family="grid2d", rows=3, cols=3))
    assert grid.degrees[0] == 2  # corner
    assert grid.degrees[4] == 4  # center
    # handshake lemma
    assert int(grid.degrees.sum()) == 2 * len(grid.edges)


def test_neighbors_match_edges():
    g = generate(GraphSpec(family="ring", n=5))
    a = g.adjacency_matrix()
    assert np.flatnonzero(a[0]).tolist() == [1, 4]
    assert np.flatnonzero(a[2]).tolist() == [1, 3]
    assert np.array_equal(a, a.T)
    assert a.trace() == 0.0


def test_hypercube_n_must_be_power_of_two():
    with pytest.raises(GraphError):
        generate(GraphSpec(family="hypercube", n=12))


def test_ring_and_star_minimum_size():
    with pytest.raises(GraphError):
        generate(GraphSpec(family="ring", n=2))
    with pytest.raises(GraphError):
        generate(GraphSpec(family="star", n=2))


def test_unknown_family():
    with pytest.raises(GraphError, match="unknown graph family"):
        generate(GraphSpec(family="smallworld", n=8))


def test_bipartiteness():
    # A connected graph is bipartite exactly when its simple random walk has
    # eigenvalue -1, the least eigenvalue of D^-1/2 A D^-1/2.
    def bipartite(spec: GraphSpec) -> bool:
        a = generate(spec).adjacency_matrix()
        s = 1.0 / np.sqrt(a.sum(axis=1))
        return bool(np.isclose(np.linalg.eigvalsh(s[:, None] * a * s)[0], -1.0))

    assert bipartite(GraphSpec(family="ring", n=8))
    assert not bipartite(GraphSpec(family="ring", n=5))
    assert bipartite(GraphSpec(family="hypercube", dim=3))
    assert bipartite(GraphSpec(family="star", n=6))
    assert not bipartite(GraphSpec(family="complete", n=4))


# --------------------------------------------------------------------------- #
# Random families
# --------------------------------------------------------------------------- #


def _adjacency_sets(g: Graph) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _connected(g: Graph) -> bool:
    adj = _adjacency_sets(g)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


@pytest.mark.parametrize(
    "spec",
    [
        GraphSpec(family="erdos_renyi", n=32, q=0.3, seed=7),
        GraphSpec(family="geometric", n=40, seed=2),
        GraphSpec(
            family="sbm",
            cluster_sizes=(10, 10, 8),
            prob_matrix=((0.5, 0.1, 0.1), (0.1, 0.5, 0.1), (0.1, 0.1, 0.5)),
            seed=0,
        ),
    ],
)
def test_random_families_connected_and_deterministic(spec):
    g1 = generate(spec)
    g2 = generate(spec)
    assert _connected(g1)
    assert np.array_equal(g1.edges, g2.edges)
    assert g1.retries == g2.retries
    assert g1.content_hash() == g2.content_hash()


_DIGEST_SPECS = [
    GraphSpec(family="complete", n=9),
    GraphSpec(family="ring", n=10),
    GraphSpec(family="star", n=7),
    GraphSpec(family="grid2d", rows=3, cols=5),
    GraphSpec(family="hypercube", dim=4),
    *[GraphSpec(family="erdos_renyi", n=40, q=0.08, seed=s) for s in range(4)],
    *[GraphSpec(family="geometric", n=30, radius=0.25, seed=s) for s in range(4)],
    GraphSpec(family="geometric", n=40, seed=2),
    *_SMALL_SBMS,
]


def test_graph_draws_pinned():
    # Seeds are part of every experiment's identity: a change in how a family
    # draws, or in which sub-seed a redraw uses, changes this digest.
    h = hashlib.sha256()
    retries = []
    for spec in _DIGEST_SPECS:
        g = generate(spec)
        retries.append(g.retries)
        h.update(f"{g.n}|{g.retries}|".encode())
        h.update(g.edges.astype("<i8").tobytes())
        h.update(b"-" if g.positions is None else g.positions.astype("<f8").tobytes())
    assert any(retries)
    assert h.hexdigest() == "c8eb037467f50ff60b487f608e8ff7412178c8010f0e260a333ab7d748eab599"


def test_different_seeds_differ():
    a = generate(GraphSpec(family="erdos_renyi", n=32, q=0.3, seed=1))
    b = generate(GraphSpec(family="erdos_renyi", n=32, q=0.3, seed=2))
    assert not np.array_equal(a.edges, b.edges)


def test_geometric_positions_recorded():
    g = generate(GraphSpec(family="geometric", n=30, seed=5))
    assert g.positions is not None
    assert g.positions.shape == (30, 2)
    assert np.all((g.positions >= 0.0) & (g.positions <= 1.0))
    # every edge is within the default radius
    r = graphs.default_geometric_radius(30)
    for u, v in g.edges:
        assert np.linalg.norm(g.positions[u] - g.positions[v]) <= r + 1e-12


def test_hopeless_density_exhausts_retries():
    # ~20 expected edges on 200 nodes cannot be connected; all draws fail.
    with pytest.raises(GraphError, match="retries"):
        generate(GraphSpec(family="erdos_renyi", n=200, q=0.001, seed=0))


def test_sbm_parameter_validation():
    with pytest.raises(GraphError):
        generate(
            GraphSpec(
                family="sbm",
                cluster_sizes=(5, 5),
                prob_matrix=((0.5, 0.2), (0.3, 0.5)),  # asymmetric
                seed=0,
            )
        )
    with pytest.raises(GraphError):
        generate(
            GraphSpec(family="sbm", cluster_sizes=(5, 5), prob_matrix=((1.5, 0.2), (0.2, 0.5)), seed=0)
        )


@pytest.mark.parametrize("prob_matrix", [((1.0, 0.5), (0.5,)), ((1.0, 0.5),), ((1.0, 0.5), (0.5, 1.0, 0.5)),
                                         ((1.0, 0.5), 0.5)], ids=["short-row", "one-row", "long-row", "scalar-row"])
def test_sbm_refuses_a_misshapen_prob_matrix_before_reading_it(prob_matrix):
    # A ragged matrix once escaped np.asarray as a ValueError.
    with pytest.raises(GraphError, match=r"sbm prob_matrix must be 2 x 2, one row of 2 per cluster"):
        generate(GraphSpec(family="sbm", cluster_sizes=(2, 2), prob_matrix=prob_matrix, seed=0))


@pytest.mark.parametrize("n", [0, -1, 1])
def test_geometric_refuses_fewer_than_two_nodes_before_the_default_radius(n):
    with pytest.raises(GraphError, match="geometric requires n >= 2"):
        generate(GraphSpec(family="geometric", n=n, seed=0))


@pytest.mark.parametrize("family", ["erdos_renyi", "ring"])
def test_generate_refuses_a_negative_seed(family):
    with pytest.raises(GraphError, match="seed must be nonnegative, got -1"):
        generate(GraphSpec(family=family, n=8, q=0.5, seed=-1))


def test_erdos_renyi_q_validation():
    with pytest.raises(GraphError):
        generate(GraphSpec(family="erdos_renyi", n=16, q=0.0, seed=0))
    with pytest.raises(GraphError):
        generate(GraphSpec(family="erdos_renyi", n=16, q=1.5, seed=0))


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=50))
def test_er_invariants(scale, seed):
    n = 4 * scale
    g = generate(GraphSpec(family="erdos_renyi", n=n, q=0.5, seed=seed))
    assert _connected(g)
    assert int(g.degrees.sum()) == 2 * len(g.edges)
    adj = _adjacency_sets(g)
    for u, v in g.edges.tolist():
        assert v in adj[u] and u in adj[v]


# --------------------------------------------------------------------------- #
# Edge-list ingestion and export
# --------------------------------------------------------------------------- #


def test_load_edge_list_remaps_dense(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# a comment\n10 20\n\n20 30\n10 30\n")
    g, mapping = graphs.load_edge_list(p)
    assert g.n == 3
    assert mapping == {10: 0, 20: 1, 30: 2}
    assert np.array_equal(g.edges, [[0, 1], [0, 2], [1, 2]])


@pytest.mark.parametrize(
    "text",
    ["0 1\n0 2\n1 2\n", "0 1\n2 0\n1 2\n", "0 1\n1 2\n2 0\n1 0\n"],
    ids=["canonical", "one-row-flipped", "unsorted-repeated"],
)
def test_load_edge_list_canonicalises_read_only(tmp_path, text):
    # Ids appear in order 0, 1, 2, so the rows reach the canonicaliser as written.
    p = tmp_path / "edges.txt"
    p.write_text(text)
    g, mapping = graphs.load_edge_list(p)
    assert mapping == {0: 0, 1: 1, 2: 2}
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_load_edge_list_merges_duplicate_and_reversed_pairs(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 0\n1 2\n")
    g, _ = graphs.load_edge_list(p)
    assert np.array_equal(g.edges, [[0, 1], [1, 2]])


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("1 2 3\n", ":1:"),
        ("1 x\n", ":1:"),
        ("1 1\n", "self-edge"),
        ("# only comments\n", "fewer than 2"),
        ("0 1\n2 3\n", "not connected"),
    ],
)
def test_load_edge_list_errors(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(GraphError, match=fragment):
        graphs.load_edge_list(p)


def test_load_edge_list_missing_file(tmp_path):
    with pytest.raises(GraphError, match="not found"):
        graphs.load_edge_list(tmp_path / "nope.txt")


def test_save_load_round_trip(tmp_path):
    g = generate(GraphSpec(family="erdos_renyi", n=20, q=0.4, seed=9))
    argv = ["graph", "--family", "erdos-renyi", "--n", "20", "--q", "0.4", "--seed", "9", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    path = tmp_path / "edges.txt"
    back, mapping = graphs.load_edge_list(path)
    assert back.n == g.n
    # loading relabels by first appearance; the mapping recovers the topology
    relabel = np.array([mapping[u] for u in range(g.n)])
    relabeled = np.sort(relabel[g.edges], axis=1)
    assert np.array_equal(np.unique(relabeled, axis=0), back.edges)
    sidecar = json.loads((tmp_path / "edges.txt.json").read_text())
    assert sidecar["n"] == g.n
    assert sidecar["edge_count"] == len(g.edges)
    assert sidecar["hash"] == g.content_hash()
    assert sidecar["seed"] == 9


def test_generate_from_edge_list(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0 1\n1 2\n2 0\n")
    g = generate(GraphSpec(family="edge_list", path=str(p)))
    assert g.n == 3 and len(g.edges) == 3


# --------------------------------------------------------------------------- #
# Distances
# --------------------------------------------------------------------------- #


def test_shortest_path_hand_values():
    ring = generate(GraphSpec(family="ring", n=8))
    d = graphs.shortest_path_distances(ring)
    assert d[0, 3] == 3 and d[0, 4] == 4 and d[0, 5] == 3
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)


@pytest.mark.parametrize(
    "spec",
    [
        GraphSpec(family="grid2d", rows=4, cols=5),
        GraphSpec(family="erdos_renyi", n=30, q=0.15, seed=4),
        GraphSpec(family="hypercube", dim=4),
        GraphSpec(family="ring", n=9),
        GraphSpec(family="star", n=7),
        GraphSpec(family="complete", n=6),
        GraphSpec(
            family="sbm",
            cluster_sizes=(10, 10, 8),
            prob_matrix=((0.5, 0.1, 0.1), (0.1, 0.5, 0.1), (0.1, 0.1, 0.5)),
            seed=0,
        ),
        GraphSpec(family="geometric", n=40, seed=2),
        GraphSpec(family="edge_list"),
    ],
)
def test_shortest_path_matches_scipy(spec, tmp_path):
    if spec.family == "edge_list":
        # two triangles joined by a path, ids out of order
        p = tmp_path / "edges.txt"
        p.write_text("5 3\n3 9\n9 5\n9 2\n2 7\n7 4\n4 8\n8 7\n")
        spec = GraphSpec(family="edge_list", path=str(p))
    g = generate(spec)
    ours = graphs.shortest_path_distances(g)
    ref = shortest_path(g.adjacency_matrix(), method="D", unweighted=True)
    assert np.array_equal(ours, ref.astype(np.int64))


@pytest.mark.parametrize("n", [128, 129])  # the last int8 size, the first int16 one
@pytest.mark.parametrize("family", ["ring", "erdos_renyi", "complete"])
def test_shortest_path_distances_take_the_narrowest_type_holding_n(family, n):
    g = generate(GraphSpec(family=family, n=n, q=0.05 if family == "erdos_renyi" else None, seed=0))
    d = graphs.shortest_path_distances(g)
    assert d.dtype == np.min_scalar_type(-n) == (np.int8 if n == 128 else np.int16)
    assert np.array_equal(d, graphs.hop_levels(n, g.edges, np.arange(n)))


def test_hop_levels_blocks_and_unreached(monkeypatch):
    g = generate(GraphSpec(family="erdos_renyi", n=30, q=0.15, seed=4))
    whole = graphs.shortest_path_distances(g)
    # a budget below 2m forces one source per block
    monkeypatch.setattr(graphs, "_BFS_BLOCK_ELEMENTS", 8)
    assert np.array_equal(graphs.shortest_path_distances(g), whole)
    levels = graphs.hop_levels(5, np.array([[0, 1], [2, 3], [3, 4]]), [0, 4])
    assert levels.tolist() == [[0, 1, -1, -1, -1], [-1, -1, 2, 1, 0]]


def _deque_levels(n, edges, sources):
    """Reference: one plain queue BFS per source over Python adjacency lists."""
    adj = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for s in sources:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        out.append(level)
    return np.array(out, dtype=np.int64).reshape(len(out), n)


def _levels_each_way(monkeypatch, n, edges, sources):
    """hop_levels with the cost rule, then forced all-push, then forced all-pull."""
    rule = graphs._prefer_pull
    runs = []
    for choose in (rule, lambda *_: False, lambda *_: True):
        monkeypatch.setattr(graphs, "_prefer_pull", choose)
        runs.append(graphs.hop_levels(n, edges, sources))
    monkeypatch.setattr(graphs, "_prefer_pull", rule)
    return runs


_SBM3 = GraphSpec(
    family="sbm",
    cluster_sizes=(60, 50, 40),
    prob_matrix=((0.3, 0.01, 0.01), (0.01, 0.3, 0.01), (0.01, 0.01, 0.3)),
    seed=1,
)


# Under the cost rule the ring pushes at every level; the others pull on
# their dense levels (the star only at the hub's).
@pytest.mark.parametrize(
    "spec, sources",
    [
        (GraphSpec(family="star", n=300), [0]),
        (GraphSpec(family="star", n=300), [7]),
        (GraphSpec(family="complete", n=300), [0, 299, 150]),
        (GraphSpec(family="ring", n=301), [0, 1, 150, 151, 300]),
        (GraphSpec(family="grid2d", rows=17, cols=19), [0, 18, 161, 322]),
        (GraphSpec(family="hypercube", dim=8), [0, 255, 85]),
        (GraphSpec(family="erdos_renyi", n=320, q=0.06, seed=0), [0, 1, 2, 100, 319]),
        (_SBM3, [0, 60, 110, 149]),
    ],
)
@pytest.mark.parametrize("budget", [None, 1])
def test_hop_levels_matches_queue_bfs(monkeypatch, spec, sources, budget):
    g = generate(spec)
    if budget is not None:  # one source per block
        monkeypatch.setattr(graphs, "_BFS_BLOCK_ELEMENTS", budget)
    ref = _deque_levels(g.n, g.edges, sources)
    for levels in _levels_each_way(monkeypatch, g.n, g.edges, sources):
        assert levels.dtype == np.int64
        assert np.array_equal(levels, ref)


@pytest.mark.parametrize(
    "spec",
    [
        GraphSpec(family="complete", n=300),
        GraphSpec(family="ring", n=301),
        GraphSpec(family="hypercube", dim=8),
        GraphSpec(family="erdos_renyi", n=320, q=0.06, seed=0),
        _SBM3,
    ],
)
def test_all_pairs_same_in_every_direction(monkeypatch, spec):
    g = generate(spec)
    rule, push, pull = _levels_each_way(monkeypatch, g.n, g.edges, np.arange(g.n))
    assert np.array_equal(rule, push) and np.array_equal(rule, pull)
    assert np.array_equal(rule, rule.T)


def test_cost_rule_keeps_sparse_graphs_on_push(monkeypatch):
    chosen = []
    rule = graphs._prefer_pull

    def recording_rule(*args):
        chosen.append(rule(*args))
        return chosen[-1]

    monkeypatch.setattr(graphs, "_prefer_pull", recording_rule)
    for spec in (GraphSpec(family="ring", n=301), GraphSpec(family="grid2d", rows=32, cols=32)):
        graphs.shortest_path_distances(generate(spec))
    assert chosen and not any(chosen)
    graphs.shortest_path_distances(generate(GraphSpec(family="complete", n=64)))
    assert any(chosen)


@pytest.mark.parametrize("budget", [None, 1])
def test_hop_levels_disconnected_every_direction(monkeypatch, budget):
    # components {0,1,2,3} (a path), {4,5,6} (a triangle), {7..10} (a star), 11 isolated
    edges = np.array([[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [4, 6], [7, 8], [7, 9], [7, 10]])
    sources = [3, 11, 5, 9, 0, 3]
    if budget is not None:
        monkeypatch.setattr(graphs, "_BFS_BLOCK_ELEMENTS", budget)
    ref = _deque_levels(12, edges, sources)
    assert ref[1].tolist() == [-1] * 11 + [0]
    for levels in _levels_each_way(monkeypatch, 12, edges, sources):
        assert np.array_equal(levels, ref)


def test_content_hash_is_topology_only():
    a = generate(GraphSpec(family="ring", n=6, seed=1))
    b = generate(GraphSpec(family="ring", n=6, seed=99))
    assert a.content_hash() == b.content_hash()
    c = generate(GraphSpec(family="ring", n=7))
    assert a.content_hash() != c.content_hash()


def test_content_hash_values_pinned():
    # hashes are recorded in sidecars and manifests; their values must not drift
    ring = generate(GraphSpec(family="ring", n=6))
    assert ring.content_hash() == "ddc7fb0902b632daa920817ba7b56d829f71ff9e63cc0fe2174d5d63efaba4cb"
    er = generate(GraphSpec(family="erdos_renyi", n=20, q=0.4, seed=9))
    assert er.content_hash() == "58e35b79fc43c0b340711f0d409dd2720386b3dbfd60c1b0570c7bb5d9b7d6a5"


def test_content_hash_computed_once_per_graph(monkeypatch):
    payloads = []

    class CountingSha256:
        """hashlib.sha256 that records each hash's whole payload."""

        def __init__(self, data):
            payloads.append(data)
            self._h = hashlib.sha256(data)

        def update(self, data):
            payloads[-1] += data
            self._h.update(data)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(graphs, "new_sha256", CountingSha256)
    g = generate(GraphSpec(family="ring", n=6))
    assert g.content_hash() == g.content_hash()  # the edge-list sidecar, then stats.json
    assert "".join(g.edge_lines()) == "0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"  # the hash is known: not fed again
    assert payloads == [b"6|0,1;0,5;1,2;2,3;3,4;4,5"]


def test_edge_lines_read_to_the_end_give_the_content_hash(monkeypatch):
    # `graph` formats its edges once: writing edges.txt also hashes the graph.
    g = generate(GraphSpec(family="ring", n=6))
    text = "".join(g.edge_lines())
    monkeypatch.setattr(graphs, "new_sha256", lambda data: pytest.fail("edges hashed a second time"))
    assert g.content_hash() == "ddc7fb0902b632daa920817ba7b56d829f71ff9e63cc0fe2174d5d63efaba4cb"
    assert text == "0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def test_content_hash_streams_the_edge_text(traced_peak):
    # One string per edge took 22 MiB at n = 512 (130 816 edges); blocks of
    # edge text keep the peak to a few MiB.
    g = generate(GraphSpec(family="complete", n=512))
    assert traced_peak(g.content_hash) < 8 * 2**20


def test_edge_lines_blocks_stay_under_the_mmap_threshold():
    # tokenwalk.cli fixes glibc's mmap threshold at 128 KiB: a block's text and
    # the tuple of its ints stay below it, so each block reuses heap memory.
    g = generate(GraphSpec(family="complete", n=1024))
    assert 2 * graphs._EDGE_TEXT_BLOCK * 8 < 2**17
    assert max(map(len, g.edge_lines())) < 2**17


@pytest.mark.parametrize("m", [1, 1 << 16, (1 << 16) + 1])  # one edge; whole blocks; one edge over
def test_edge_text_blocks_join_to_one_string_per_edge(m):
    assert (1 << 16) % graphs._EDGE_TEXT_BLOCK == 0
    edges = np.stack([np.arange(m), np.arange(m) + 7], axis=1)
    g = Graph(n=m + 7, edges=edges)
    assert "".join(g.edge_lines()) == "".join(f"{u} {v}\n" for u, v in edges.tolist())
    payload = f"{m + 7}|" + ";".join(f"{u},{v}" for u, v in edges.tolist())
    assert g.content_hash() == hashlib.sha256(payload.encode()).hexdigest()
