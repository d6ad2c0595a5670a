"""Transition matrices: weightings, lazification, validation, content hash."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import from_array
from tokenwalk import transition
from tokenwalk.accountant import PrivacyParams, pairwise_matrix
from tokenwalk.errors import TransitionError
from tokenwalk.graphs import GraphSpec, generate
from tokenwalk.transition import (
    blend_self_loops,
    hamilton_weighting,
    validate,
    with_self_loops,
)
from tokenwalk.walk import simulate


# --------------------------------------------------------------------------- #
# Weightings
# --------------------------------------------------------------------------- #


def test_hamilton_star_hand_matrix():
    # hub 0 with 4 leaves: hub row uniform 1/4, leaf rows 1/4 to hub + 3/4 stay
    g = generate(GraphSpec(family="star", n=5))
    tm = hamilton_weighting(g)
    expected = np.full((5, 5), 0.0)
    expected[0, 1:] = 0.25
    expected[1:, 0] = 0.25
    np.fill_diagonal(expected[1:, 1:], 0.75)
    assert np.allclose(tm.w, expected, atol=1e-15)


def test_hamilton_path_graph(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n")
    g = generate(GraphSpec(family="edge_list", path=str(p)))
    tm = hamilton_weighting(g)
    # max degree 2: endpoints keep 1/2 on themselves
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    assert np.allclose(tm.w, expected, atol=1e-15)


def test_hamilton_regular_graph_has_no_self_loops():
    g = generate(GraphSpec(family="ring", n=6))
    tm = hamilton_weighting(g)
    assert np.all(np.diag(tm.w) == 0.0)
    assert np.allclose(tm.w.sum(axis=1), 1.0)


@pytest.mark.parametrize("spec", [GraphSpec(family="complete", n=512),
                                  GraphSpec(family="erdos_renyi", n=300, q=0.2, seed=2)])
def test_hamilton_edge_blocks_bitwise_and_bounded(spec, traced_peak):
    # 130 816 and ~9 000 edges: several 65 536-edge blocks, and one.
    g = generate(spec)
    n, deg = g.n, g.degrees
    ref = np.zeros((n, n))
    u, v = g.edges.T
    ref[u, v] = ref[v, u] = 1.0 / np.maximum(deg[u], deg[v])
    np.fill_diagonal(ref, np.maximum(1.0 - ref.sum(axis=1), 0.0))
    assert hamilton_weighting(g).w.tobytes() == ref.tobytes()
    # W plus one block's index and weight arrays (2 MiB), not W plus ~4 m doubles.
    assert traced_peak(hamilton_weighting, g) <= 8 * n * n + 2**21


def test_with_self_loops_ring():
    g = generate(GraphSpec(family="ring", n=4))
    tm = with_self_loops(g, 1.0 / 3.0)
    expected = np.array(
        [
            [1, 1, 0, 1],
            [1, 1, 1, 0],
            [0, 1, 1, 1],
            [1, 0, 1, 1],
        ],
        dtype=float,
    ) / 3.0
    assert np.allclose(tm.w, expected, atol=1e-15)


def test_with_self_loops_requires_regular():
    g = generate(GraphSpec(family="star", n=5))
    with pytest.raises(TransitionError, match="regular"):
        with_self_loops(g, 0.5)


@pytest.mark.parametrize("kappa", [-0.1, 1.0, 1.5])
def test_with_self_loops_kappa_range(kappa):
    g = generate(GraphSpec(family="ring", n=4))
    with pytest.raises(TransitionError):
        with_self_loops(g, kappa)


def test_blend_composes_kappas():
    g = generate(GraphSpec(family="ring", n=6))
    a, b = 0.25, 0.5
    once = with_self_loops(g, a)
    twice = blend_self_loops(once, b)
    # blending scales off-diagonal mass by (1 - b) and tops up the diagonal
    combined = b + (1 - b) * a
    direct = with_self_loops(g, combined)
    assert np.allclose(twice.w, direct.w, atol=1e-15)


def test_blend_on_plain_hamilton():
    g = generate(GraphSpec(family="complete", n=4))
    tm = blend_self_loops(hamilton_weighting(g), 0.1)
    assert np.allclose(np.diag(tm.w), 0.1)
    assert np.allclose(tm.w.sum(axis=1), 1.0)


# --------------------------------------------------------------------------- #
# from_array and validation
# --------------------------------------------------------------------------- #


def test_from_array_never_rejects_bad_rows():
    tm = from_array(np.array([[0.5, 0.1], [0.2, 0.2]]))
    rep = validate(tm)
    assert not rep.ok
    # rows sum to 0.6 and 0.4, so the row check names row 1 and the column
    # check stays silent; the residual still counts column 1, which sums to 0.3
    assert any(
        f.startswith("row 1 sums to") and f.endswith("(violation 0.6)") for f in rep.failures
    )
    assert not any(f.startswith("column") for f in rep.failures)
    assert rep.max_row_sum_error == pytest.approx(0.7)
    with pytest.raises(TransitionError):
        rep.raise_if_failed()


def test_validate_negative_entry():
    tm = from_array(np.array([[1.2, -0.2], [-0.2, 1.2]]))
    rep = validate(tm)
    assert not rep.ok
    assert rep.min_entry == pytest.approx(-0.2)


def test_validate_support_against_graph():
    g = generate(GraphSpec(family="ring", n=4))
    # probability mass on a chord (0,2) that is not an edge
    w = np.array(
        [
            [0.0, 0.25, 0.5, 0.25],
            [0.25, 0.5, 0.25, 0.0],
            [0.5, 0.25, 0.0, 0.25],
            [0.25, 0.0, 0.25, 0.5],
        ]
    )
    rep = validate(from_array(w), graph=g)
    assert rep.max_off_support == 0.5
    assert rep.failures == ("mass 0.5 at non-edge (0,2) outside graph support",)
    # without the graph, support is not checked
    assert validate(from_array(w)).ok


_GOOD = hamilton_weighting(generate(GraphSpec(family="ring", n=4))).w


def _edited(entries: dict[tuple[int, int], float]) -> np.ndarray:
    w = _GOOD.copy()
    for ij, value in entries.items():
        w[ij] = value
    return w


# Each case names the start and end of one failure message; the sum itself
# sits between them for the row and column messages.
@pytest.mark.parametrize(
    "w, nodes, head, tail",
    [
        (_edited({(1, 0): 0.75}), 4, "not symmetric: |W[0,1] - W[1,0]| = 0.25", ""),
        # the same edit makes row 1 sum to 1.25
        (_edited({(1, 0): 0.75}), 4, "row 1 sums to ", " (violation 0.25)"),
        # rows still sum to 1, so only the column check fails besides symmetry
        (_edited({(0, 1): 0.75, (0, 3): 0.25}), 4, "column 1 sums to ", " (violation 0.25)"),
        (_edited({(0, 0): -0.5, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -0.5}), 4,
         "negative entry W[0,0] = -0.5", ""),
        (_GOOD, 5, "graph has 5 nodes but matrix is 4x4", ""),
        # inf - inf and inf + -inf must not warn (pytest turns warnings into errors)
        (_edited({(0, 0): np.inf}), 4, "entry W[0,0] = inf is not finite", ""),
        (_edited({(0, 1): np.inf, (0, 3): -np.inf}), 4, "entry W[0,1] = inf is not finite", ""),
        (_edited({(2, 1): np.nan}), 4, "entry W[2,1] = nan is not finite", ""),
    ],
    ids=["asymmetric", "row", "column", "negative", "graph-size", "inf", "inf-minus-inf", "nan"],
)
def test_validate_failure_messages(w, nodes, head, tail):
    rep = validate(from_array(w), graph=generate(GraphSpec(family="ring", n=nodes)))
    assert not rep.ok
    assert any(f.startswith(head) and f.endswith(tail) for f in rep.failures), rep.failures
    assert not any("np.float64(" in f for f in rep.failures), rep.failures  # plain floats


def test_validate_passes_for_good_chain():
    g = generate(GraphSpec(family="complete", n=6))
    rep = validate(hamilton_weighting(g), graph=g)
    assert rep.ok
    assert rep.failures == ()
    assert rep.max_row_sum_error <= 1e-12
    rep.raise_if_failed()  # no-op
    # a periodic (bipartite, loop-free) chain is a valid chain
    ring = generate(GraphSpec(family="ring", n=4))
    assert validate(hamilton_weighting(ring), graph=ring).ok


@pytest.mark.parametrize("family", ["ring", "complete"])
def test_validate_peaks_at_one_scratch_matrix(traced_peak, family):
    g = generate(GraphSpec(family=family, n=1024))
    tm = hamilton_weighting(g)
    assert traced_peak(validate, tm, g) <= 1.1 * g.n * g.n * 8


@given(
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(min_value=3, max_value=40),
)
def test_hamilton_always_validates(seed, kappa, ring_n):
    # The one rule of the chain layer: every builder's chain, lazy or not, is
    # exactly symmetric and doubly stochastic on the graph's support.
    g = generate(GraphSpec(family="erdos_renyi", n=16, q=0.4, seed=seed))
    ring = generate(GraphSpec(family="ring", n=ring_n))
    for tm, graph in (
        (hamilton_weighting(g), g),
        (blend_self_loops(hamilton_weighting(g), kappa), g),
        (with_self_loops(ring, kappa), ring),
    ):
        rep = validate(tm, graph=graph)
        assert rep.ok, rep.failures
        assert rep.max_asymmetry == 0.0 and rep.max_off_support == 0.0
        assert rep.max_row_sum_error <= 1e-12 and rep.min_entry >= 0.0


# --------------------------------------------------------------------------- #
# Content hash
# --------------------------------------------------------------------------- #


def test_content_hash_sensitive_to_entries():
    a = from_array(np.array([[0.75, 0.25], [0.25, 0.75]]))
    b = from_array(np.array([[0.75 + 1e-15, 0.25 - 1e-15], [0.25, 0.75]]))
    assert a.content_hash() != b.content_hash()
    one_ulp = np.array([[0.75, 0.25], [np.nextafter(0.25, 1.0), 0.75]])
    assert from_array(one_ulp).content_hash() != a.content_hash()


def test_content_hash_values_pinned():
    # Scheme 2: SHA-256 of b"{n}|" then the row-major entries as little-endian doubles.
    tm = hamilton_weighting(generate(GraphSpec(family="ring", n=6)))
    payload = b"6|" + struct.pack("<36d", *tm.w.ravel().tolist())
    expected = "ef27d8eee42f5607dee68b6724c55c39d31c7e923914259c3d8200a962435b6f"
    assert transition.HASH_VERSION == 2
    assert tm.content_hash() == hashlib.sha256(payload).hexdigest() == expected
    assert transition.TransitionMatrix(w=np.asfortranarray(tm.w)).content_hash() == expected


def test_content_hash_computed_once_per_chain(monkeypatch, lazy_ring):
    calls = []

    def counting_sha256(data):
        calls.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(transition, "new_sha256", counting_sha256)
    tm = lazy_ring(6)
    traj = simulate(tm, 0, 20, 1)
    pairwise_matrix(tm, PrivacyParams(alpha=2.0, sigma2=16.0, steps=20), method="exact")  # hashes nothing
    assert traj.w_hash == tm.content_hash()
    assert calls == [b"6|"]  # the entries follow by update(), uncopied

