"""Pairwise privacy accounting: losses, closed forms, calibration, I/O."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tokenwalk import accountant as acc
from tokenwalk.accountant import (
    MAX_PAIRS,
    MEAN_PAIRS,
    CalibrationResult,
    DistanceBucket,
    DpPoint,
    PrivacyParams,
    Statistic,
    beta,
    calibrate_sigma,
    calibrate_sigma_local,
    closed_form_ring,
    closed_form_star,
    collusion_loss,
    gate_sigma2,
    harmonic_number,
    local_dp_baseline,
    mean_at_distance,
    mean_loss_by_distance,
    oddeven_log_series,
    pairwise_matrix,
    rdp_to_dp,
    sender_known_loss,
    single_contribution_closed,
    single_contribution_exact,
    star_walk_matrix,
)
from tokenwalk.errors import AccountantError, CalibrationError
from tokenwalk.graphs import GraphSpec, generate, shortest_path_distances
from tokenwalk.spectral import matrix_log_term
from tokenwalk.transition import HASH_VERSION, from_array, hamilton_weighting, with_self_loops

P = PrivacyParams  # the tests build many of these


# --------------------------------------------------------------------------- #
# Scalar building blocks
# --------------------------------------------------------------------------- #


def test_beta_decay():
    p = P(alpha=2.0, sigma2=4.0, steps=10)
    assert beta(1, p) == 0.25
    assert beta(5, p) == 0.05
    with pytest.raises(AccountantError):
        beta(0, p)


def test_harmonic_number_hand_values():
    assert harmonic_number(0) == 0.0
    assert harmonic_number(1) == pytest.approx(1.0, abs=1e-15)
    assert harmonic_number(4) == pytest.approx(25.0 / 12.0, abs=1e-14)
    with pytest.raises(AccountantError):
        harmonic_number(-1)


@given(st.integers(min_value=1, max_value=2000))
def test_harmonic_number_matches_direct_sum(t):
    direct = sum(1.0 / i for i in range(1, t + 1))
    assert harmonic_number(t) == pytest.approx(direct, rel=1e-13)


_HARMONIC_REFEREE_T = [*range(601), *(10**k for k in range(3, 13)), 50_000, 65_536]


def test_harmonic_number_matches_mpmath():
    # Both sides of the switch from the summed terms to Euler-Maclaurin, the
    # benchmark's T = 65536 and T up to 1e12, against 50-digit references.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for t in _HARMONIC_REFEREE_T:
            value = harmonic_number(t)
            if t == 0:
                assert value == 0.0
                continue
            ref = mpmath.harmonic(t)
            assert abs((mpmath.mpf(value) - ref) / ref) <= 1e-15, t


def test_oddeven_hand_values():
    assert oddeven_log_series(0.5, "odd") == pytest.approx(0.5 * math.log(3.0), abs=1e-15)
    assert oddeven_log_series(0.5, "even") == pytest.approx(-0.5 * math.log(0.75), abs=1e-15)
    with pytest.raises(AccountantError, match="parity"):
        oddeven_log_series(0.5, "both")
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(AccountantError, match="in \\(0, 1\\)"):
            oddeven_log_series(bad, "odd")


@given(st.floats(min_value=1e-6, max_value=0.999))
def test_oddeven_parts_sum_to_full_log(x):
    total = oddeven_log_series(x, "odd") + oddeven_log_series(x, "even")
    assert total == pytest.approx(-math.log1p(-x), rel=1e-12)


def test_rdp_to_dp_hand_value():
    d = rdp_to_dp(10.0, 0.5, 1e-6)
    assert d.epsilon == pytest.approx(0.5 + math.log(1e6) / 9.0, abs=1e-15)
    assert d.delta == 1e-6
    with pytest.raises(AccountantError):
        rdp_to_dp(1.0, 0.5, 1e-6)
    with pytest.raises(AccountantError):
        rdp_to_dp(2.0, 0.5, 0.0)


def test_dp_point_validation():
    with pytest.raises(AccountantError):
        DpPoint(epsilon=-0.1, delta=1e-6)
    with pytest.raises(AccountantError):
        DpPoint(epsilon=1.0, delta=1.0)


# --------------------------------------------------------------------------- #
# Parameter objects
# --------------------------------------------------------------------------- #


def test_privacy_params_validation():
    with pytest.raises(AccountantError, match="alpha"):
        P(alpha=1.0, sigma2=4.0, steps=10)
    with pytest.raises(AccountantError, match="sigma2"):
        P(alpha=2.0, sigma2=0.0, steps=10)
    with pytest.raises(AccountantError, match="steps"):
        P(alpha=2.0, sigma2=4.0, steps=-1)
    with pytest.raises(AccountantError, match="delta_sens"):
        P(alpha=2.0, sigma2=4.0, steps=10, delta_sens=0.0)
    with pytest.raises(AccountantError, match="contributions"):
        P(alpha=2.0, sigma2=4.0, steps=10, contributions="bounded")
    with pytest.raises(AccountantError, match="max_contributions"):
        P(alpha=2.0, sigma2=4.0, steps=10, contributions="capped")


def test_contribution_counts():
    expected = P(alpha=2.0, sigma2=4.0, steps=100)
    assert expected.n_contributions(4) == 25.0
    assert expected.n_contributions(3) == pytest.approx(100.0 / 3.0)
    capped = expected.scaled(contributions="capped", max_contributions=2)
    assert capped.n_contributions(4) == 2.0
    # cap above the expectation is inert
    loose = expected.scaled(contributions="capped", max_contributions=1000)
    assert loose.n_contributions(4) == 25.0


def test_statistic_kinds():
    m = np.array([[np.nan, 1.0], [3.0, np.nan]])
    assert MEAN_PAIRS.apply(m) == 2.0
    assert MAX_PAIRS.apply(m) == 3.0
    dist = np.array([[0, 1], [1, 0]])
    assert mean_at_distance(1).apply(m, dist) == 2.0
    with pytest.raises(AccountantError, match="hop-distance"):
        mean_at_distance(1).apply(m)
    with pytest.raises(AccountantError, match="no pairs"):
        mean_at_distance(7).apply(m, dist)
    with pytest.raises(AccountantError, match="unknown statistic"):
        Statistic("median_pairs").apply(m)


# --------------------------------------------------------------------------- #
# Single-contribution losses
# --------------------------------------------------------------------------- #


def test_uniform_hand_value_exact(uniform_chain):
    # W = J/4, T = 3: K_uv = H_3 / 4 = 11/24, loss = 2 * (11/24) / 16
    tm = uniform_chain(4)
    p = P(alpha=2.0, sigma2=16.0, steps=3)
    assert single_contribution_exact(tm, 0, 1, p, mode="powers") == 11.0 / 192.0
    spectral = single_contribution_exact(tm, 0, 1, p, mode="spectral")
    assert spectral == pytest.approx(11.0 / 192.0, abs=1e-15)


def test_modes_agree(er_chain):
    p = P(alpha=2.0, sigma2=16.0, steps=500)
    for u, v in [(0, 1), (3, 17), (20, 5)]:
        a = single_contribution_exact(er_chain, u, v, p, mode="spectral")
        b = single_contribution_exact(er_chain, u, v, p, mode="powers")
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize(
    "family, kwargs, kappa, steps",
    [
        ("ring", {"n": 16}, None, 500),  # bipartite: lambda_n = -1
        ("hypercube", {"dim": 4}, None, 500),  # bipartite, degenerate spectrum
        ("ring", {"n": 16}, 1.0 / 2000**2, 2000),  # kappa = 1/T^2: lambda_n ~ -1 + 2/T^2
    ],
)
def test_modes_agree_on_hard_chains(family, kwargs, kappa, steps):
    g = generate(GraphSpec(family=family, **kwargs))
    tm = hamilton_weighting(g) if kappa is None else with_self_loops(g, kappa)
    p = P(alpha=2.0, sigma2=16.0, steps=steps)
    for u, v in [(0, 1), (3, 11), (5, 12), (2, 10)]:
        a = single_contribution_exact(tm, u, v, p, mode="spectral")
        b = single_contribution_exact(tm, u, v, p, mode="powers")
        assert a == pytest.approx(b, abs=1e-12)


# --------------------------------------------------------------------------- #
# The walk-length kernel
# --------------------------------------------------------------------------- #

_REFEREE_LAMBDAS = [
    0.0, 1e-3, -1e-3, 0.5, -0.5, 0.613, -0.613,
    1 - 1e-6, -(1 - 1e-6), 1 - 1e-9, -(1 - 1e-9), 1.0, -1.0, -1.0000000000000002,
]  # fmt: skip


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 10**3, 10**6])
def test_harmonic_power_sums_match_mpmath(steps):
    mpmath = pytest.importorskip("mpmath")
    got = acc._harmonic_power_sums(np.array(_REFEREE_LAMBDAS), steps)
    with mpmath.workdps(50):
        for lam, value in zip(_REFEREE_LAMBDAS, got):
            x = mpmath.mpf(lam)
            if lam == 1.0:
                ref = mpmath.harmonic(steps)
            elif lam <= -1.0:
                ref = mpmath.harmonic(steps // 2) - mpmath.harmonic(steps)
            elif steps <= 4000:
                ref = mpmath.fsum(x**i / i for i in range(1, steps + 1))
            else:
                ref = -mpmath.log(1 - x) - x ** (steps + 1) * mpmath.lerchphi(x, 1, steps + 1)
            assert abs(mpmath.mpf(value) - ref) <= 1e-12, (lam, steps)


def test_kernel_cost_independent_of_steps(lazy_ring):
    # T = 10^12: only the unit eigenvalue keeps a T-dependence (H_T); every
    # other power sum has converged to -ln(1 - lambda), so the kernel is
    # H_T / n - L with L the matrix-log term.
    tm = lazy_ring(8)
    p = P(alpha=2.0, sigma2=16.0, steps=10**12)
    got = pairwise_matrix(tm, p, method="exact").eps
    scale = p.alpha * p.n_contributions(tm.n) / p.sigma2
    expect = scale * (harmonic_number(p.steps) / tm.n - matrix_log_term(tm))
    off = ~np.eye(tm.n, dtype=bool)
    np.testing.assert_allclose(got[off], expect[off], rtol=1e-9, atol=0.0)


def test_kernel_matches_ring_fourier_sum_at_paper_scale():
    # Lazy ring n=1024: lambda_k = 1/3 + (2/3) cos(2 pi k / n) with Fourier
    # eigenvectors, so K[u, u+d] = (1/n) sum_k S_T(lambda_k) cos(2 pi k d / n)
    # without eigh.  S_T itself is refereed by mpmath above.
    n, steps, kappa = 1024, 262144, 1.0 / 3.0
    tm = with_self_loops(generate(GraphSpec(family="ring", n=n)), kappa)
    k = np.arange(n)
    lam = (1.0 - kappa) * np.cos(2.0 * np.pi * k / n) + kappa
    s_t = acc._harmonic_power_sums(lam, steps)
    by_offset = np.cos(2.0 * np.pi * (np.outer(k, k) % n) / n) @ s_t / n
    got = acc._privacy_kernel(tm, steps, "spectral")
    assert float(np.max(np.abs(got - by_offset[(k[None, :] - k[:, None]) % n]))) <= 5e-13

    # closed_form_ring swaps each S_T(lambda_k) for -ln(1 - lambda_k) plus a
    # bound on |tail_k| >= |S_T - (-ln(1 - lambda_k))|, so it lies above the
    # exact loss by at most twice the summed tail bounds.
    p = P(alpha=2.0, sigma2=16.0, steps=steps)
    slack = 2.0 * p.alpha * sum(acc._tail_bound(x, steps) for x in lam[1:]) / (n * p.sigma2)
    for d in (1, 2, 17, 512):
        exact = single_contribution_exact(tm, 0, d, p)
        assert exact <= closed_form_ring(n, 0, d, p) <= exact + slack


def test_kernel_matches_hypercube_krawtchouk_sum_at_paper_scale():
    # Lazy hypercube dim 10: characters (-1)^{s.x} with eigenvalue
    # 1/3 + (2/3)(1 - 2|s|/dim); summing them over |s| = w gives the
    # Krawtchouk polynomial K_w(h) of the Hamming distance h = |u xor v|.
    dim, steps, kappa = 10, 262144, 1.0 / 3.0
    n = 1 << dim
    tm = with_self_loops(generate(GraphSpec(family="hypercube", dim=dim)), kappa)
    lam = (1.0 - kappa) * (1.0 - 2.0 * np.arange(dim + 1) / dim) + kappa
    kraw = np.array(
        [
            [
                sum((-1) ** j * math.comb(h, j) * math.comb(dim - h, w - j) for j in range(w + 1))
                for h in range(dim + 1)
            ]
            for w in range(dim + 1)
        ],
        dtype=float,
    )
    by_distance = acc._harmonic_power_sums(lam, steps) @ kraw / n
    nodes = np.arange(n)
    weight = np.array([bin(x).count("1") for x in nodes])
    got = acc._privacy_kernel(tm, steps, "spectral")
    ref = by_distance[weight[nodes[:, None] ^ nodes[None, :]]]
    assert float(np.max(np.abs(got - ref))) <= 1e-14


def test_kernel_matches_complete_graph_two_point_spectrum_at_paper_scale():
    # Hamilton complete n=2048: spectrum {1, -1/(n-1)}, so
    # K = H_T J/n + S_T(mu) (I - J/n), and S_T(mu) = -ln(1 - mu) once mu^T
    # underflows.
    n, steps = 2048, 524288
    tm = hamilton_weighting(generate(GraphSpec(family="complete", n=n)))
    s_mu = -math.log1p(1.0 / (n - 1))
    h_t = harmonic_number(steps)
    got = acc._privacy_kernel(tm, steps, "spectral")
    off = ~np.eye(n, dtype=bool)
    assert float(np.max(np.abs(got[off] - (h_t - s_mu) / n))) <= 1e-14
    assert float(np.max(np.abs(np.diag(got) - (h_t / n + s_mu * (1.0 - 1.0 / n))))) <= 1e-14


def test_kernel_rejects_out_of_range_eigenvalues():
    tm = from_array(np.array([[0.5, 0.7], [0.7, 0.5]]))  # eigenvalues 1.2, -0.2
    p = P(alpha=2.0, sigma2=16.0, steps=100)
    with pytest.raises(AccountantError, match=r"eigenvalue 1\.2\d* lies outside"):
        pairwise_matrix(tm, p, method="exact")


def test_closed_form_on_uniform_is_pure_log(uniform_chain):
    # J/n has a vanishing log term, so the closed form is alpha ln T/(sigma2 n)
    tm = uniform_chain(8)
    p = P(alpha=2.0, sigma2=16.0, steps=1000)
    out = single_contribution_closed(tm, 0, 5, p)
    assert out == p.alpha * math.log(1000) / (16.0 * 8)


def test_exact_monotone_in_steps(lazy_ring):
    tm = lazy_ring(8)
    losses = [
        single_contribution_exact(tm, 0, 3, P(alpha=2.0, sigma2=16.0, steps=t))
        for t in (10, 100, 1000)
    ]
    assert losses[0] < losses[1] < losses[2]


def test_symmetric_chain_symmetric_loss(er_chain):
    p = P(alpha=2.0, sigma2=16.0, steps=200)
    assert single_contribution_exact(er_chain, 2, 9, p) == pytest.approx(
        single_contribution_exact(er_chain, 9, 2, p), abs=1e-15
    )


def test_pair_validation(uniform_chain):
    tm = uniform_chain(4)
    p = P(alpha=2.0, sigma2=16.0, steps=10)
    with pytest.raises(AccountantError, match="u == v"):
        single_contribution_exact(tm, 1, 1, p)
    with pytest.raises(AccountantError, match="outside range"):
        single_contribution_exact(tm, 0, 4, p)
    with pytest.raises(AccountantError, match="steps >= 1"):
        single_contribution_closed(tm, 0, 1, P(alpha=2.0, sigma2=16.0, steps=0))


def test_sigma2_halving_is_exact(uniform_chain, lazy_ring):
    p = P(alpha=2.0, sigma2=16.0, steps=50)
    doubled = p.scaled(sigma2=32.0)
    for tm in (uniform_chain(4), lazy_ring(6)):
        one = single_contribution_exact(tm, 0, 1, p)
        two = single_contribution_exact(tm, 0, 1, doubled)
        assert two == one / 2.0  # bitwise: sigma2 divides last
        m1 = pairwise_matrix(tm, p, method="exact").offdiagonal()
        m2 = pairwise_matrix(tm, doubled, method="exact").offdiagonal()
        assert np.array_equal(m2, m1 / 2.0)


# --------------------------------------------------------------------------- #
# Pairwise matrices
# --------------------------------------------------------------------------- #


def test_pairwise_matrix_structure(lazy_ring):
    tm = lazy_ring(6)
    p = P(alpha=2.0, sigma2=16.0, steps=60)
    m = pairwise_matrix(tm, p, method="exact")
    assert m.n == 6
    assert np.all(np.isnan(np.diag(m.eps)))
    off = m.offdiagonal()
    assert off.shape == (30,)
    assert np.all(off > 0)
    assert m.w_hash == tm.content_hash()
    # composed cells are N_u times the single-contribution loss
    single = single_contribution_exact(tm, 0, 2, p)
    assert m.eps[0, 2] == pytest.approx(10.0 * single, rel=1e-14)


def test_pairwise_matrix_capped_composition(lazy_ring):
    tm = lazy_ring(4)
    expected = P(alpha=2.0, sigma2=16.0, steps=100)
    capped = expected.scaled(contributions="capped", max_contributions=2.0)
    m_exp = pairwise_matrix(tm, expected, method="exact")
    m_cap = pairwise_matrix(tm, capped, method="exact")
    assert np.allclose(m_cap.offdiagonal() * (25.0 / 2.0), m_exp.offdiagonal(), rtol=1e-14)


def test_pairwise_matrix_method_validation(uniform_chain):
    with pytest.raises(AccountantError, match="method"):
        pairwise_matrix(uniform_chain(4), P(alpha=2.0, sigma2=16.0, steps=10), method="series")


# --------------------------------------------------------------------------- #
# The sigma2 gate
# --------------------------------------------------------------------------- #


def test_gate_threshold_values():
    assert gate_sigma2(2.0) == 4.0
    assert gate_sigma2(8.0) == 112.0


def test_gate_enforced_on_amplified_entry_points(uniform_chain):
    tm = uniform_chain(4)
    low = P(alpha=2.0, sigma2=3.9, steps=10)
    for call in (
        lambda: single_contribution_exact(tm, 0, 1, low),
        lambda: single_contribution_closed(tm, 0, 1, low),
        lambda: pairwise_matrix(tm, low),
        lambda: sender_known_loss(tm, 0, 1, low),
        lambda: collusion_loss(tm, 0, [1, 2], low),
        lambda: closed_form_star(5, 1, 2, low),
        lambda: closed_form_ring(8, 0, 1, low),
    ):
        with pytest.raises(AccountantError, match="amplification requirement"):
            call()
    exactly_at = P(alpha=2.0, sigma2=4.0, steps=10)
    assert single_contribution_exact(tm, 0, 1, exactly_at) > 0


def test_local_baseline_is_not_gated():
    p = P(alpha=2.0, sigma2=1.0, steps=100)
    assert local_dp_baseline(p, 4) == 25.0
    with pytest.raises(AccountantError):
        local_dp_baseline(p, 0)


# --------------------------------------------------------------------------- #
# Star closed form
# --------------------------------------------------------------------------- #


def test_star_hand_values():
    p = P(alpha=2.0, sigma2=16.0, steps=10)
    leaf_leaf = closed_form_star(5, 1, 2, p)
    assert leaf_leaf == pytest.approx(-2.0 * math.log1p(-0.25) / (4.0 * 16.0), abs=1e-15)
    assert leaf_leaf == pytest.approx(0.008990064764118153, abs=1e-12)
    hub_leaf = closed_form_star(5, 0, 1, p)
    assert hub_leaf == pytest.approx(2.0 * math.log(3.0) / (2.0 * 2.0 * 16.0), abs=1e-15)
    # leaves enjoy amplification the hub does not
    assert leaf_leaf < hub_leaf


def test_star_pair_type_invariance():
    p = P(alpha=2.0, sigma2=16.0, steps=100)
    assert closed_form_star(9, 1, 2, p) == closed_form_star(9, 7, 3, p)
    assert closed_form_star(9, 0, 1, p) == closed_form_star(9, 5, 0, p)


def test_star_upper_bounds_exact_walk():
    # the closed form sums the full power series of the reference chain;
    # kappa = 1/T^2 keeps the dropped laziness cross-terms below the slack
    steps = 10_000
    n, kappa = 9, 1.0 / steps**2
    p = P(alpha=2.0, sigma2=32.0, steps=steps)
    ref = star_walk_matrix(n, kappa)
    for u, v in [(1, 2), (0, 1), (3, 0)]:
        exact = single_contribution_exact(ref, u, v, p, mode="powers")
        closed = closed_form_star(n, u, v, p, kappa=kappa)
        assert exact <= closed + 1e-9


def test_star_validation():
    p = P(alpha=2.0, sigma2=16.0, steps=10)
    with pytest.raises(AccountantError, match="n >= 3"):
        closed_form_star(2, 0, 1, p)
    with pytest.raises(AccountantError, match="u == v"):
        closed_form_star(5, 2, 2, p)
    with pytest.raises(AccountantError, match="outside range"):
        closed_form_star(5, 0, 5, p)
    with pytest.raises(AccountantError, match="n >= 3"):
        star_walk_matrix(2, 0.1)


# --------------------------------------------------------------------------- #
# Ring closed form
# --------------------------------------------------------------------------- #


def test_ring_upper_bounds_exact(lazy_ring):
    n, steps = 9, 2000
    tm = lazy_ring(n)  # equal-probability walk: kappa = 1/3
    p = P(alpha=2.0, sigma2=16.0, steps=steps)
    for u, v in [(0, 1), (0, 4), (2, 7)]:
        exact = single_contribution_exact(tm, u, v, p)
        closed = closed_form_ring(n, u, v, p)
        assert exact <= closed + 1e-9
        assert closed - exact <= 1e-3


def test_ring_self_loop_variant(lazy_ring):
    n, kappa, steps = 8, 0.05, 2000
    tm = lazy_ring(n, kappa)
    p = P(alpha=2.0, sigma2=16.0, steps=steps)
    exact = single_contribution_exact(tm, 0, 3, p)
    closed = closed_form_ring(n, 0, 3, p, variant="self_loop", kappa=kappa)
    assert exact <= closed + 1e-9
    assert closed - exact <= 1e-3


def test_ring_offset_symmetry():
    p = P(alpha=2.0, sigma2=16.0, steps=100)
    assert closed_form_ring(8, 0, 3, p) == pytest.approx(closed_form_ring(8, 3, 0, p), abs=1e-15)
    assert closed_form_ring(8, 0, 3, p) == pytest.approx(closed_form_ring(8, 0, 5, p), abs=1e-15)


def test_ring_validation():
    p = P(alpha=2.0, sigma2=16.0, steps=10)
    with pytest.raises(AccountantError, match="variant"):
        closed_form_ring(8, 0, 1, p, variant="lazy")
    with pytest.raises(AccountantError, match="kappa"):
        closed_form_ring(8, 0, 1, p, variant="self_loop")
    with pytest.raises(AccountantError, match="kappa"):
        closed_form_ring(8, 0, 1, p, variant="self_loop", kappa=1.0)
    with pytest.raises(AccountantError, match="u == v"):
        closed_form_ring(8, 2, 2, p)


# --------------------------------------------------------------------------- #
# Observer variants
# --------------------------------------------------------------------------- #


def test_sender_known_is_worst_neighbor(lazy_ring):
    tm = lazy_ring(4, 0.25)
    p = P(alpha=2.0, sigma2=16.0, steps=50)
    # v=2's possible predecessors: 1, 3, and itself (self-loop); u=0 is skipped
    expected = max(single_contribution_exact(tm, 0, j, p) for j in (1, 2, 3))
    assert sender_known_loss(tm, 0, 2, p) == expected
    no_self = max(single_contribution_exact(tm, 0, j, p) for j in (1, 3))
    assert sender_known_loss(tm, 0, 2, p, include_self=False) == no_self
    assert sender_known_loss(tm, 0, 2, p) >= single_contribution_exact(tm, 0, 2, p)


def test_sender_known_no_candidates(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n")
    tm = hamilton_weighting(generate(GraphSpec(family="edge_list", path=str(p))))
    params = P(alpha=2.0, sigma2=16.0, steps=50)
    # node 0's only non-self predecessor is node 1 == u
    with pytest.raises(AccountantError, match="no admissible predecessors"):
        sender_known_loss(tm, 1, 0, params, include_self=False)


def test_collusion_sums_singles(uniform_chain):
    tm = uniform_chain(4)
    p = P(alpha=2.0, sigma2=16.0, steps=3)
    assert collusion_loss(tm, 0, [1, 2, 3], p, mode="powers") == 33.0 / 192.0
    # linear in the set: F1 + F2 = F1 u F2 for disjoint sets
    both = collusion_loss(tm, 0, [1, 2], p)
    assert both == pytest.approx(
        collusion_loss(tm, 0, [1], p) + collusion_loss(tm, 0, [2], p), abs=1e-12
    )
    composed = collusion_loss(tm, 0, [1, 2, 3], p, composed=True, mode="powers")
    assert composed == pytest.approx((3.0 / 4.0) * 33.0 / 192.0, abs=1e-15)


def test_collusion_validation(uniform_chain):
    tm = uniform_chain(4)
    p = P(alpha=2.0, sigma2=16.0, steps=10)
    with pytest.raises(AccountantError, match="non-empty"):
        collusion_loss(tm, 0, [], p)
    with pytest.raises(AccountantError, match="collude against itself"):
        collusion_loss(tm, 0, [0, 1], p)
    with pytest.raises(AccountantError, match="outside node range"):
        collusion_loss(tm, 0, [1, 9], p)


# --------------------------------------------------------------------------- #
# Calibration
# --------------------------------------------------------------------------- #


def _uniform16_params():
    return P(alpha=2.0, sigma2=1.0, steps=160)


def test_calibrate_gap_limited_target(uniform_chain):
    res = calibrate_sigma(uniform_chain(16), _uniform16_params(), DpPoint(0.3, 1e-6))
    assert isinstance(res, CalibrationResult)
    assert res.gap_limited
    assert res.epsilon <= 0.3  # conservative side of the dead zone
    assert res.alpha == 64.0
    assert res.sigma2 == pytest.approx(gate_sigma2(64.0), rel=1e-9)
    # the reported epsilon is consistent with its own parameters
    recon = res.alpha * res.rdp_statistic / res.alpha  # rdp_statistic already has alpha
    assert res.epsilon == pytest.approx(
        res.rdp_statistic + math.log(1e6) / (res.alpha - 1.0), rel=1e-12
    )
    del recon


def test_calibrate_floor(uniform_chain):
    with pytest.raises(CalibrationError) as exc:
        calibrate_sigma(uniform_chain(16), _uniform16_params(), DpPoint(0.1, 1e-6))
    assert exc.value.min_feasible == pytest.approx(0.2192938183803853, abs=1e-12)


def test_calibrate_ceiling(uniform_chain):
    with pytest.raises(CalibrationError) as exc:
        calibrate_sigma(uniform_chain(16), _uniform16_params(), DpPoint(100.0, 1e-6))
    assert exc.value.max_feasible == pytest.approx(15.401502375224844, rel=1e-9)


def test_calibrate_local_hits_exactly():
    res = calibrate_sigma_local(P(alpha=2.0, sigma2=1.0, steps=100), DpPoint(5.0, 1e-5), 4)
    assert not res.gap_limited
    assert res.epsilon == pytest.approx(5.0, rel=1e-10)
    assert res.sigma2 == pytest.approx(29.80362662690466, rel=1e-9)
    assert res.method == "local"
    # achieved loss reproduces from the returned parameters, no gate applied
    base = res.alpha * (100.0 / 4.0) / 2.0 / res.sigma2
    assert base == pytest.approx(res.rdp_statistic, rel=1e-12)


def test_calibrate_local_override():
    direct = calibrate_sigma_local(
        P(alpha=2.0, sigma2=1.0, steps=999), DpPoint(2.0, 1e-6), 7, contributions_override=30
    )
    same = calibrate_sigma_local(P(alpha=2.0, sigma2=1.0, steps=210), DpPoint(2.0, 1e-6), 7)
    assert direct.sigma2 == pytest.approx(same.sigma2, rel=1e-12)


def test_calibrate_round_trip_exact_method(lazy_ring):
    tm = lazy_ring(8)
    template = P(alpha=2.0, sigma2=1.0, steps=400)
    res = calibrate_sigma(tm, template, DpPoint(1.0, 1e-6), MAX_PAIRS, method="exact")
    recomputed = pairwise_matrix(
        tm, template.scaled(alpha=res.alpha, sigma2=res.sigma2), method="exact"
    )
    stat = MAX_PAIRS.apply(recomputed.eps)
    assert rdp_to_dp(res.alpha, stat, 1e-6).epsilon == pytest.approx(res.epsilon, rel=1e-10)
    assert res.epsilon <= 1.0 + 1e-12


def test_calibrate_degenerate_statistic(uniform_chain):
    # a zero-step walk leaks nothing; there is no finite noise level to find
    zero_steps = P(alpha=2.0, sigma2=1.0, steps=0)
    with pytest.raises(CalibrationError, match="degenerate"):
        calibrate_sigma(uniform_chain(4), zero_steps, DpPoint(1.0, 1e-6), method="exact")
    with pytest.raises(CalibrationError, match="must be positive"):
        calibrate_sigma_local(
            P(alpha=2.0, sigma2=1.0, steps=100), DpPoint(1.0, 1e-6), 4, contributions_override=0
        )


# --------------------------------------------------------------------------- #
# Distance aggregation and persistence
# --------------------------------------------------------------------------- #


def test_mean_loss_by_distance_ring8(lazy_ring):
    g = generate(GraphSpec(family="ring", n=8))
    tm = lazy_ring(8)
    m = pairwise_matrix(tm, P(alpha=2.0, sigma2=16.0, steps=80), method="exact")
    buckets = mean_loss_by_distance(m, shortest_path_distances(g))
    assert [(b.distance, b.count) for b in buckets] == [(1, 16), (2, 16), (3, 16), (4, 8)]
    means = [b.mean for b in buckets]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_mean_loss_by_distance_equals_per_mask_reference():
    rng = np.random.default_rng(11)
    eps = rng.random((64, 64)) * 10.0 ** rng.integers(-3, 3, size=(64, 64))
    np.fill_diagonal(eps, np.nan)
    dist = rng.integers(1, 9, size=(64, 64))
    np.fill_diagonal(dist, 0)
    # reference: one n x n mask per distance
    mask = ~np.eye(64, dtype=bool)
    ref = []
    for d in sorted(set(int(x) for x in dist[mask])):
        vals = eps[mask & (dist == d)]
        ref.append(DistanceBucket(d, float(np.mean(vals)), float(np.std(vals)), int(vals.size)))
    assert mean_loss_by_distance(eps, dist) == ref
    assert mean_loss_by_distance(np.full((1, 1), np.nan), np.zeros((1, 1), dtype=int)) == []


def test_mean_loss_by_distance_shape_mismatch():
    with pytest.raises(AccountantError, match="shape mismatch"):
        mean_loss_by_distance(np.zeros((3, 3)), np.zeros((4, 4), dtype=int))


def test_pairwise_csv_round_trip(tmp_path, lazy_ring):
    tm = lazy_ring(5)
    m = pairwise_matrix(tm, P(alpha=4.0, sigma2=32.0, steps=50), method="exact")
    path = tmp_path / "pairwise.csv"
    acc.save_pairwise_csv(m, path)
    back = acc.load_pairwise_csv(path)
    assert np.array_equal(back, m.eps, equal_nan=True)
    # the NaN diagonal is stored as empty cells
    first_row = path.read_text().splitlines()[0]
    assert first_row.startswith(",")
    meta = __import__("json").loads((tmp_path / "pairwise.csv.json").read_text())
    assert meta["alpha"] == 4.0
    assert meta["sigma2"] == 32.0
    assert meta["method"] == "exact"
    assert meta["graph_hash"] == tm.content_hash()
    assert meta["hash_version"] == HASH_VERSION == 2


def test_distance_series_round_trip(tmp_path):
    buckets = [
        DistanceBucket(distance=1, mean=0.5, std=0.1, count=16),
        DistanceBucket(distance=2, mean=0.25, std=0.05, count=8),
    ]
    path = tmp_path / "series.csv"
    acc.save_distance_series_csv(buckets, path)
    assert acc.read_distance_series_csv(path) == buckets


def test_distance_series_reads_two_column_overlay(tmp_path):
    path = tmp_path / "overlay.csv"
    path.write_text("distance,mean\n1,0.75\n2,0.5\n")
    got = acc.read_distance_series_csv(path)
    assert got == [
        DistanceBucket(distance=1, mean=0.75, std=0.0, count=0),
        DistanceBucket(distance=2, mean=0.5, std=0.0, count=0),
    ]


def test_distance_series_header_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("hops,mean\n1,0.5\n")
    with pytest.raises(AccountantError, match="distance"):
        acc.read_distance_series_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text("distance,mean\n3\n")
    with pytest.raises(AccountantError, match="short.csv:2"):
        acc.read_distance_series_csv(short)
