"""Token walk simulation: determinism, support, contribution caps, memory."""

from __future__ import annotations

import numpy as np
import pytest

from tokenwalk import graphs
from tokenwalk.errors import TokenwalkError
from tokenwalk.transition import from_array, hamilton_weighting
from tokenwalk.walk import simulate


# --------------------------------------------------------------------------- #
# Determinism and support
# --------------------------------------------------------------------------- #


def test_same_seed_same_walk(lazy_ring):
    tm = lazy_ring(8)
    a = simulate(tm, 0, 500, 42)
    b = simulate(tm, 0, 500, 42)
    assert np.array_equal(a.nodes, b.nodes)
    assert a.seed == b.seed == 42
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
    traj = simulate(lazy_ring(4), 2, 100, 0)
    assert traj.nodes.shape == (101,)
    assert traj.steps == 100
    assert traj.nodes[0] == 2
    assert traj.n == 4
    assert traj.w_hash == lazy_ring(4).content_hash()
    assert not traj.nodes.flags.writeable


def test_zero_step_walk(lazy_ring):
    traj = simulate(lazy_ring(4), 1, 0, 9)
    assert np.array_equal(traj.nodes, [1])
    assert np.bincount(traj.nodes, minlength=traj.n).tolist() == [0, 1, 0, 0]


def test_visit_counts_sum(lazy_ring):
    traj = simulate(lazy_ring(8), 0, 777, 3)
    counts = np.bincount(traj.nodes, minlength=traj.n)
    assert counts.sum() == 778
    assert counts.shape == (8,)


def test_visit_frequencies_near_uniform(uniform_chain):
    steps = 20_000
    traj = simulate(uniform_chain(4), 0, steps, 1)
    freqs = np.bincount(traj.nodes, minlength=traj.n) / (steps + 1)
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
    with pytest.raises(TokenwalkError, match="burn_in"):
        simulate(tm, 0, 10, 0, burn_in=11)
    with pytest.raises(TokenwalkError, match="burn_in"):
        simulate(tm, 0, 10, 0, burn_in=-1)
    with pytest.raises(TokenwalkError, match="contribution_cap"):
        simulate(tm, 0, 10, 0, contribution_cap=-1)


def test_simulate_requires_row_stochastic():
    tm = from_array(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(TokenwalkError, match="row-stochastic"):
        simulate(tm, 0, 10, 0)


# --------------------------------------------------------------------------- #
# Contribution caps
# --------------------------------------------------------------------------- #


def test_cap_zero_flags_every_update_step(lazy_ring):
    traj = simulate(lazy_ring(4), 0, 40, 13, contribution_cap=0, burn_in=5)
    assert traj.noise_only is not None
    assert np.all(traj.noise_only[5:40])
    assert not np.any(traj.noise_only[:5])  # burn-in carries no updates
    assert not traj.noise_only[40]  # the final node never updates


def test_cap_flags_match_manual_recount(lazy_ring):
    cap = 2
    traj = simulate(lazy_ring(4), 0, 200, 17, contribution_cap=cap, burn_in=10)
    counts = np.zeros(4, dtype=int)
    for t in range(10, 200):
        node = traj.nodes[t]
        counts[node] += 1
        assert traj.noise_only[t] == (counts[node] > cap)
    # uncapped runs leave the mask all-False
    free = simulate(lazy_ring(4), 0, 200, 17)
    assert not np.any(free.noise_only)


@pytest.mark.parametrize("burn_in", [0, 777])
def test_cap_flags_match_per_step_loop_on_long_walk(burn_in):
    g = graphs.generate(graphs.GraphSpec(family="erdos_renyi", n=64, q=0.1, seed=4))
    tm, steps = hamilton_weighting(g), 200_000
    for cap in (0, 1, 2900, 10**6):  # ~3125 visits per node: 2900 caps some, not all
        traj = simulate(tm, 5, steps, 21, contribution_cap=cap, burn_in=burn_in)
        expected = np.zeros(steps + 1, dtype=bool)
        counts = [0] * 64
        path = traj.nodes.tolist()
        for t in range(burn_in, steps):
            counts[path[t]] += 1
            if counts[path[t]] > cap:
                expected[t] = True
        assert traj.noise_only.tobytes() == expected.tobytes()
        if cap == 2900:
            assert 0 < np.count_nonzero(expected) < steps - burn_in


def test_cap_does_not_change_the_path(lazy_ring):
    a = simulate(lazy_ring(4), 0, 100, 3)
    b = simulate(lazy_ring(4), 0, 100, 3, contribution_cap=1)
    assert np.array_equal(a.nodes, b.nodes)


# --------------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------------- #


def test_dense_chain_walk_tables_bounded(traced_peak):
    # Per-row targets and CDFs are n^2 int64 plus n^2 doubles on a complete
    # chain; a full-row cumsum of W would add a third n x n array.
    n = 512
    tm = hamilton_weighting(graphs.generate(graphs.GraphSpec(family="complete", n=n)))
    simulate(tm, 0, 1, 3)  # caches the chain hash and imports numpy.random
    assert traced_peak(simulate, tm, 0, 1000, 3) <= 2.5 * n * n * 8
