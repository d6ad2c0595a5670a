"""Token walk simulation: determinism, support, memory."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import from_array
from tokenwalk import graphs
from tokenwalk.errors import TokenwalkError
from tokenwalk.transition import hamilton_weighting, with_self_loops
from tokenwalk.walk import simulate


# --------------------------------------------------------------------------- #
# Determinism and support
# --------------------------------------------------------------------------- #


def test_same_seed_same_walk(lazy_ring):
    tm = lazy_ring(8)
    a = simulate(tm, 0, 500, 42)
    b = simulate(tm, 0, 500, 42)
    assert np.array_equal(a.nodes, b.nodes)
    c = simulate(tm, 0, 500, 43)
    assert not np.array_equal(a.nodes, c.nodes)


def test_seed_sequence_reproducible(lazy_ring):
    tm = lazy_ring(8)
    a = simulate(tm, 0, 200, np.random.SeedSequence(7))
    b = simulate(tm, 0, 200, np.random.SeedSequence(7))
    assert np.array_equal(a.nodes, b.nodes)
    # spawned children are distinct streams
    kids = np.random.SeedSequence(7).spawn(2)
    x = simulate(tm, 0, 200, kids[0])
    y = simulate(tm, 0, 200, kids[1])
    assert not np.array_equal(x.nodes, y.nodes)


def test_walk_stays_on_support(er_chain):
    traj = simulate(er_chain, 0, 2000, 5)
    w = er_chain.w
    for t in range(traj.steps):
        assert w[traj.nodes[t], traj.nodes[t + 1]] > 0.0


def test_zero_mass_targets_never_selected():
    # node 0 can reach 1 but never 2 directly
    tm = from_array(
        np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    )
    traj = simulate(tm, 0, 5000, 11)
    from_zero = traj.nodes[1:][traj.nodes[:-1] == 0]
    assert from_zero.size > 0
    assert not np.any(from_zero == 2)


def test_rounding_gap_never_selects_zero_mass_cell(monkeypatch):
    # Row 0 sums to 1 - 3e-10 (inside the 1e-9 check) and W[0, 2] = 0: a
    # uniform in [1 - 3e-10, 1) must still land on the last support cell.
    class FixedUniform:
        def __init__(self, bit_generator):
            pass

        def random(self, size):
            return np.full(size, 1.0 - 1e-10)

    monkeypatch.setattr(np.random, "Generator", FixedUniform)
    tm = from_array(
        np.array([[0.5, 0.5 - 3e-10, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    )
    traj = simulate(tm, 0, 1, 0)
    assert traj.nodes.tolist() == [0, 1]


def test_trajectory_shape(lazy_ring):
    tm = lazy_ring(4)
    traj = simulate(tm, 2, 100, 0)
    assert traj.nodes.shape == (101,)
    assert traj.steps == 100
    assert traj.nodes[0] == 2
    assert traj.w_hash == tm.content_hash()
    assert not traj.nodes.flags.writeable


def test_zero_step_walk(lazy_ring):
    tm = lazy_ring(4)
    traj = simulate(tm, 1, 0, 9)
    assert np.array_equal(traj.nodes, [1])
    assert np.bincount(traj.nodes, minlength=tm.n).tolist() == [0, 1, 0, 0]


def test_visit_counts_sum(lazy_ring):
    tm = lazy_ring(8)
    traj = simulate(tm, 0, 777, 3)
    counts = np.bincount(traj.nodes, minlength=tm.n)
    assert counts.sum() == 778
    assert counts.shape == (8,)


def test_visit_frequencies_near_uniform(uniform_chain):
    steps = 20_000
    tm = uniform_chain(4)
    traj = simulate(tm, 0, steps, 1)
    freqs = np.bincount(traj.nodes, minlength=tm.n) / (steps + 1)
    assert np.all(np.abs(freqs - 0.25) <= 3.0 / np.sqrt(steps))


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #


def test_simulate_validation(lazy_ring):
    tm = lazy_ring(4)
    with pytest.raises(TokenwalkError, match="start node"):
        simulate(tm, 4, 10, 0)
    with pytest.raises(TokenwalkError, match="steps"):
        simulate(tm, 0, -1, 0)


def test_simulate_requires_row_stochastic():
    tm = from_array(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(TokenwalkError, match="row-stochastic"):
        simulate(tm, 0, 10, 0)


# --------------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------------- #


def test_dense_chain_walk_tables_bounded(traced_peak):
    # The complete chain's rows share one CDF, and each row's targets skip its
    # own zero diagonal, so they are n(n-1) int16s; int32 targets and an n x n
    # bool mask of W took 0.59 x 8n^2 here.  Unshared CDFs would add n^2
    # doubles, and a full-row cumsum of W another n x n array.  Every row of
    # the uniform chain is the same, so each table holds one row; one target
    # array per row took 0.59 x 8n^2 here too.
    n = 512
    complete = graphs.generate(graphs.GraphSpec(family="complete", n=n))
    for tm, bound in ((hamilton_weighting(complete), 0.4), (with_self_loops(complete, 1.0 / n), 0.05)):
        simulate(tm, 0, 1, 3)  # caches the chain hash and imports numpy.random
        assert traced_peak(simulate, tm, 0, 1000, 3) <= bound * n * n * 8


def test_sparse_chain_walk_tables_bounded(traced_peak):
    # Few ER rows are equal: sharing compares each row with the one before
    # it and keeps nothing per row.  Int64 targets and unshared CDFs took
    # 383.2 KiB on this chain.
    n = 512
    g = graphs.generate(graphs.GraphSpec(family="erdos_renyi", n=n, q=0.05, seed=1))
    tm = hamilton_weighting(g)
    simulate(tm, 0, 1, 3)
    assert traced_peak(simulate, tm, 0, 1000, 3) <= 383 * 1024
