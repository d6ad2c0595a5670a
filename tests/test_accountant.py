"""Pairwise privacy accounting: losses, closed forms, calibration, I/O."""

from __future__ import annotations

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import (
    MAX_PAIRS,
    closed_form_ring,
    closed_form_star,
    from_array,
    local_dp_baseline,
    read_matrix_csv,
    single_contribution_closed,
    single_contribution_exact,
    star_walk_matrix,
)
from tokenwalk import accountant as acc, cli, spectral
from tokenwalk.accountant import (
    MEAN_PAIRS,
    CalibrationResult,
    DistanceBucket,
    DpPoint,
    PrivacyParams,
    Statistic,
    calibrate_sigma,
    calibrate_sigma_local,
    gate_sigma2,
    harmonic_number,
    mean_at_distance,
    mean_loss_by_distance,
    pairwise_matrix,
    rdp_to_dp,
)
from tokenwalk.errors import AccountantError, CalibrationError, ConfigError
from tokenwalk.graphs import GraphSpec, generate, shortest_path_distances
from tokenwalk.spectral import SpectralDecomposition, matrix_log_term
from tokenwalk.transition import HASH_VERSION, blend_self_loops, hamilton_weighting, with_self_loops

P = PrivacyParams  # the tests build many of these


# --------------------------------------------------------------------------- #
# Scalar building blocks
# --------------------------------------------------------------------------- #


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
    with pytest.raises(AccountantError, match="epsilon must be nonnegative, got nan"):
        DpPoint(float("nan"), 1e-6)


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


def test_contribution_counts():
    expected = P(alpha=2.0, sigma2=4.0, steps=100)
    assert expected.n_contributions(4) == 25.0
    assert expected.n_contributions(3) == pytest.approx(100.0 / 3.0)


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
        Statistic("median_pairs")
    with pytest.raises(AccountantError, match="requires a distance"):
        Statistic("mean_at_distance")


def _mask_statistics(m, dist, distances):
    """The statistics as the n x n mask formula computes them (the reference)."""
    mask = ~np.eye(m.shape[0], dtype=bool)
    at = [float(np.mean(m[mask & (dist == d)])) for d in distances]
    return float(np.mean(m[mask])), float(np.max(m[mask])), at, m[mask]


@pytest.mark.parametrize("n", [2, 3, 7, 64, 300])
def test_statistics_bitwise_equal_mask_formula(n):
    rng = np.random.default_rng(n)
    m = rng.lognormal(size=(n, n))
    np.fill_diagonal(m, np.nan)
    dist = rng.integers(1, 4, size=(n, n))
    np.fill_diagonal(dist, 0)
    distances = [d for d in (1, 2, 3) if np.any((dist == d) & ~np.eye(n, dtype=bool))]
    mean, mx, at, cells = _mask_statistics(m, dist, distances)
    for matrix in (m, np.asfortranarray(m)):  # a non-contiguous layout is read the same
        assert MEAN_PAIRS.apply(matrix) == mean
        assert MAX_PAIRS.apply(matrix) == mx
        assert [mean_at_distance(d).apply(matrix, dist) for d in distances] == at
    got = np.ravel(acc._offdiagonal_view(m))
    assert got.flags.c_contiguous and got.tobytes() == cells.tobytes()
    with pytest.raises(AccountantError, match="shape mismatch"):
        mean_at_distance(1).apply(m, dist[:-1, :-1])


def test_statistics_memory_bounds(traced_peak):
    # One n(n-1) vector for a mean, one reduction buffer (64 kB) for the max,
    # and the selected cells plus one n(n-1) boolean selection (256 kB) for a
    # mean at a distance.  The mask formula took three n x n boolean masks
    # (768 kB) on top.
    n = 512
    rng = np.random.default_rng(0)
    m = rng.random((n, n))
    np.fill_diagonal(m, np.nan)
    dist = rng.integers(1, 4, size=(n, n))
    np.fill_diagonal(dist, 0)
    cell = 8 * n * (n - 1)
    assert traced_peak(MEAN_PAIRS.apply, m) <= 1.02 * cell
    assert traced_peak(MAX_PAIRS.apply, m) <= 2**17
    selected = 8 * int(np.count_nonzero(dist == 2))
    assert traced_peak(mean_at_distance(2).apply, m, dist) <= selected + 2**19


# --------------------------------------------------------------------------- #
# Single-contribution losses
# --------------------------------------------------------------------------- #


def _power_loss(kernel: np.ndarray, u: int, v: int, p: PrivacyParams) -> float:
    """A single-contribution loss read off the dense-power oracle kernel."""
    return (p.alpha * float(kernel[u, v])) / p.sigma2


def test_uniform_hand_value_exact(uniform_chain, power_kernel):
    # W = J/4, T = 3: K_uv = H_3 / 4 = 11/24, loss = 2 * (11/24) / 16
    tm = uniform_chain(4)
    p = P(alpha=2.0, sigma2=16.0, steps=3)
    assert _power_loss(power_kernel(tm, p.steps), 0, 1, p) == 11.0 / 192.0
    spectral = single_contribution_exact(tm, 0, 1, p)
    assert spectral == pytest.approx(11.0 / 192.0, abs=1e-15)


def test_modes_agree(er_chain, power_kernel):
    p = P(alpha=2.0, sigma2=16.0, steps=500)
    oracle = power_kernel(er_chain, p.steps)
    for u, v in [(0, 1), (3, 17), (20, 5)]:
        a = single_contribution_exact(er_chain, u, v, p)
        assert a == pytest.approx(_power_loss(oracle, u, v, p), abs=1e-12)


@pytest.mark.parametrize(
    "family, kwargs, kappa, steps",
    [
        ("ring", {"n": 16}, None, 500),  # bipartite: lambda_n = -1
        ("hypercube", {"dim": 4}, None, 500),  # bipartite, degenerate spectrum
        ("ring", {"n": 16}, 1.0 / 2000**2, 2000),  # kappa = 1/T^2: lambda_n ~ -1 + 2/T^2
    ],
)
def test_modes_agree_on_hard_chains(family, kwargs, kappa, steps, power_kernel):
    g = generate(GraphSpec(family=family, **kwargs))
    tm = hamilton_weighting(g) if kappa is None else with_self_loops(g, kappa)
    p = P(alpha=2.0, sigma2=16.0, steps=steps)
    oracle = power_kernel(tm, p.steps)
    for u, v in [(0, 1), (3, 11), (5, 12), (2, 10)]:
        a = single_contribution_exact(tm, u, v, p)
        assert a == pytest.approx(_power_loss(oracle, u, v, p), abs=1e-12)


def test_no_public_function_takes_mode():
    # `method` alone picks the kernel; the dense-power oracle lives in conftest.
    for name in acc.__all__:
        obj = getattr(acc, name)
        if inspect.isfunction(obj):
            assert "mode" not in inspect.signature(obj).parameters, name


@pytest.mark.parametrize("method", ["exact", "closed"])
def test_pairwise_matrix_caches_no_square_array(lazy_ring, method):
    tm = lazy_ring(16)
    pairwise_matrix(tm, P(alpha=2.0, sigma2=16.0, steps=100), method=method)
    assert not [k for k, v in tm._cache.items() if isinstance(v, np.ndarray) and v.ndim == 2]


def test_closed_singles_form_the_kernel_once(monkeypatch, lazy_ring):
    calls = []
    apply = SpectralDecomposition.apply

    def counting_apply(self, values):
        calls.append(values.shape)
        return apply(self, values)

    monkeypatch.setattr(SpectralDecomposition, "apply", counting_apply)
    tm = lazy_ring(16)
    p = P(alpha=2.0, sigma2=16.0, steps=100)
    singles = [single_contribution_closed(tm, 0, v, p) for v in (1, 2, 8)]
    assert calls == [(16,)]
    log_term = matrix_log_term(tm)  # formed on its own: the second apply
    for v, got in zip((1, 2, 8), singles):
        assert got == (p.alpha * (math.log(p.steps) / tm.n - float(log_term[0, v]))) / p.sigma2


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


def test_quadrature_table_matches_leggauss():
    nodes, weights = acc._quadrature_rule()
    x, c = np.polynomial.legendre.leggauss(256)
    assert nodes.shape == weights.shape == (256,)
    np.testing.assert_array_max_ulp(nodes, 0.5 * (x + 1.0), maxulp=1)
    np.testing.assert_array_max_ulp(weights, 0.5 * c, maxulp=1)


def test_quadrature_table_moments():
    # The 256-node rule integrates polynomials of degree <= 511 exactly.
    nodes, weights = acc._quadrature_rule()
    assert math.fsum(weights) == pytest.approx(1.0, rel=1e-15)
    for k in range(512):
        assert math.fsum(weights * nodes**k) == pytest.approx(1.0 / (k + 1), rel=1e-12), k


def test_kernel_cost_independent_of_steps(lazy_ring):
    # T = 10^12: only the unit eigenvalue keeps a T-dependence (H_T); every
    # other power sum has converged to -ln(1 - lambda), so the kernel is
    # H_T / n - L with L the matrix-log term.
    tm = lazy_ring(8)
    p = P(alpha=2.0, sigma2=16.0, steps=10**12)
    got = pairwise_matrix(tm, p, method="exact")
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
    got = oracles._privacy_kernel(tm, steps, "exact")
    assert float(np.max(np.abs(got - by_offset[(k[None, :] - k[:, None]) % n]))) <= 5e-13

    # closed_form_ring swaps each S_T(lambda_k) for -ln(1 - lambda_k) plus a
    # bound on |tail_k| >= |S_T - (-ln(1 - lambda_k))|, so it lies above the
    # exact loss by at most twice the summed tail bounds.
    p = P(alpha=2.0, sigma2=16.0, steps=steps)
    slack = 2.0 * p.alpha * sum(oracles._tail_bound(x, steps) for x in lam[1:]) / (n * p.sigma2)
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
    got = oracles._privacy_kernel(tm, steps, "exact")
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
    got = oracles._privacy_kernel(tm, steps, "exact")
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
    doubled = replace(p, sigma2=32.0)
    for tm in (uniform_chain(4), lazy_ring(6)):
        one = single_contribution_exact(tm, 0, 1, p)
        two = single_contribution_exact(tm, 0, 1, doubled)
        assert two == one / 2.0  # bitwise: sigma2 divides last
        m1 = np.ravel(acc._offdiagonal_view(pairwise_matrix(tm, p, method="exact")))
        m2 = np.ravel(acc._offdiagonal_view(pairwise_matrix(tm, doubled, method="exact")))
        assert np.array_equal(m2, m1 / 2.0)


# --------------------------------------------------------------------------- #
# Pairwise matrices
# --------------------------------------------------------------------------- #


def test_pairwise_matrix_structure(lazy_ring):
    tm = lazy_ring(6)
    p = P(alpha=2.0, sigma2=16.0, steps=60)
    m = pairwise_matrix(tm, p, method="exact")
    assert m.shape == (6, 6)
    assert not m.flags.writeable
    assert np.all(np.isnan(np.diag(m)))
    off = np.ravel(acc._offdiagonal_view(m))
    assert off.shape == (30,)
    assert np.all(off > 0)
    # composed cells are N_u times the single-contribution loss
    single = single_contribution_exact(tm, 0, 2, p)
    assert m[0, 2] == pytest.approx(10.0 * single, rel=1e-14)


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
        lambda: closed_form_star(5, 1, 2, low),
        lambda: closed_form_ring(8, 0, 1, low),
    ):
        with pytest.raises(AccountantError, match="amplification requirement"):
            call()
    exactly_at = P(alpha=2.0, sigma2=4.0, steps=10)
    assert single_contribution_exact(tm, 0, 1, exactly_at) > 0


# --------------------------------------------------------------------------- #
# Star closed form
# --------------------------------------------------------------------------- #


def test_star_hand_values():
    p = P(alpha=2.0, sigma2=16.0, steps=10)
    # kappa = 0: mu_pm = +-1/2 and mu_0 = 0, so leaf<->leaf is -ln(3/4) / (2 (n-1))
    leaf_leaf = closed_form_star(5, 1, 2, p)
    assert leaf_leaf == pytest.approx(-2.0 * math.log1p(-0.25) / (2.0 * 4.0 * 16.0), abs=1e-15)
    assert leaf_leaf == pytest.approx(0.00449503238205908, abs=1e-15)
    hub_leaf = closed_form_star(5, 0, 1, p)
    assert hub_leaf == pytest.approx(2.0 * math.log(3.0) / (2.0 * 2.0 * 16.0), abs=1e-15)
    # leaves enjoy amplification the hub does not
    assert leaf_leaf < hub_leaf


def test_star_pair_type_invariance():
    p = P(alpha=2.0, sigma2=16.0, steps=100)
    assert closed_form_star(9, 1, 2, p) == closed_form_star(9, 7, 3, p)
    assert closed_form_star(9, 0, 1, p) == closed_form_star(9, 5, 0, p)


def test_star_upper_bounds_exact_walk(power_kernel):
    # the closed form sums the full power series of the reference chain;
    # kappa = 1/T^2 keeps the dropped laziness cross-terms below the slack
    steps = 10_000
    n, kappa = 9, 1.0 / steps**2
    p = P(alpha=2.0, sigma2=32.0, steps=steps)
    oracle = power_kernel(star_walk_matrix(n, kappa), steps)
    for u, v in [(1, 2), (0, 1), (3, 0)]:
        exact = _power_loss(oracle, u, v, p)
        closed = closed_form_star(n, u, v, p, kappa=kappa)
        assert exact <= closed + 1e-9


@pytest.mark.parametrize("n", [3, 5, 33, 1025, 10**6])
@pytest.mark.parametrize("kappa", [0.0, 1e-6, 0.3, 0.9, 0.999])
def test_star_closed_form_matches_three_eigenvalue_series_in_mpmath(n, kappa):
    # -ln(I - M) on M's eigenvalues mu_pm = (k +- (1-k) sqrt(n-1)) / (n-1) and
    # mu_0 = k / (n-1), at 50 digits: the three logs, not the merged log1p forms.
    mpmath = pytest.importorskip("mpmath")
    p = P(alpha=2.0, sigma2=16.0, steps=10)
    with mpmath.workdps(50):
        k, m = mpmath.mpf(kappa), mpmath.mpf(n - 1)
        root = mpmath.sqrt(m)
        l_plus, l_minus, l_zero = (
            mpmath.log(1 - mu) for mu in ((k + (1 - k) * root) / m, (k - (1 - k) * root) / m, k / m)
        )
        hub_leaf = 2 * (l_minus - l_plus) / (2 * 16 * root)
        leaf_leaf = 2 * (-(l_plus + l_minus) / (2 * m) + l_zero / m) / 16
        for value, ref in ((closed_form_star(n, 0, 1, p, kappa), hub_leaf),
                           (closed_form_star(n, 1, 2, p, kappa), leaf_leaf)):
            assert abs((mpmath.mpf(value) - ref) / ref) <= 1e-15


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
# Calibration
# --------------------------------------------------------------------------- #


def test_calibrate_gap_limited_target(uniform_chain):
    res = calibrate_sigma(uniform_chain(16), 160, DpPoint(0.3, 1e-6))
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
        calibrate_sigma(uniform_chain(16), 160, DpPoint(0.1, 1e-6))
    assert exc.value.min_feasible == pytest.approx(0.2192938183803853, abs=1e-12)


def test_calibrate_ceiling(uniform_chain):
    with pytest.raises(CalibrationError) as exc:
        calibrate_sigma(uniform_chain(16), 160, DpPoint(100.0, 1e-6))
    assert exc.value.max_feasible == pytest.approx(15.401502375224844, rel=1e-9)


def test_calibrate_local_hits_exactly():
    res = calibrate_sigma_local(100, DpPoint(5.0, 1e-5), 4)
    assert not res.gap_limited
    assert res.epsilon == pytest.approx(5.0, rel=1e-10)
    assert res.sigma2 == pytest.approx(29.80362662690466, rel=1e-9)
    # the ungated baseline at the returned parameters is the achieved loss, bit for bit
    base = local_dp_baseline(P(alpha=res.alpha, sigma2=res.sigma2, steps=100), 4)
    assert base == res.rdp_statistic
    assert rdp_to_dp(res.alpha, base, 1e-5).epsilon == res.epsilon <= 5.0


def test_calibrate_local_composes_over_steps_per_node():
    # 210 steps on 7 nodes compose like 30 rounds of the central baseline
    rounds = calibrate_sigma_local(30, DpPoint(2.0, 1e-6), 1)
    same = calibrate_sigma_local(210, DpPoint(2.0, 1e-6), 7)
    assert rounds.sigma2 == same.sigma2


def test_calibrate_round_trip_exact_method(lazy_ring):
    tm = lazy_ring(8)
    template = P(alpha=2.0, sigma2=1.0, steps=400)
    res = calibrate_sigma(tm, template.steps, DpPoint(1.0, 1e-6), MAX_PAIRS, method="exact")
    recomputed = pairwise_matrix(
        tm, replace(template, alpha=res.alpha, sigma2=res.sigma2), method="exact"
    )
    stat = MAX_PAIRS.apply(recomputed)
    assert rdp_to_dp(res.alpha, stat, 1e-6).epsilon == pytest.approx(res.epsilon, rel=1e-10)
    assert res.epsilon <= 1.0 + 1e-12


@pytest.fixture(scope="module")
def paper_scale_chains():
    """Chains of ~1024 nodes, each decomposed once for every test that uses it."""
    ring = with_self_loops(generate(GraphSpec(family="ring", n=1024)), 1.0 / 3.0)
    er = hamilton_weighting(generate(GraphSpec(family="erdos_renyi", n=1024, q=0.02, seed=0)))
    complete = hamilton_weighting(generate(GraphSpec(family="complete", n=1024)))
    geometric = hamilton_weighting(generate(GraphSpec(family="geometric", n=1024, seed=0)))
    return {"erdos_renyi": er, "lazy_ring": ring, "complete": complete, "geometric": geometric,
            "star": star_walk_matrix(1025, 0.25)}


def _spectral_mean(tm, steps, method):
    if method == "exact":
        dec = acc.decompose(tm)
        return dec.offdiagonal_mean(acc._harmonic_power_sums(dec.eigenvalues, steps))
    dec, values = acc.matrix_log_spectrum(tm)
    return math.log(steps) / tm.n - dec.offdiagonal_mean(values)


def _matrix_mean(tm, steps, method):
    if method == "exact":
        return MEAN_PAIRS.apply(acc._kernel(tm, steps, "exact"))
    return MEAN_PAIRS.apply(math.log(steps) / tm.n - matrix_log_term(tm))


@pytest.mark.parametrize(
    "chain, method",
    [("erdos_renyi", "exact"), ("erdos_renyi", "closed"), ("lazy_ring", "exact"),
     ("lazy_ring", "closed"), ("complete", "exact"), ("complete", "closed"), ("star", "exact")],
)
def test_offdiagonal_mean_matches_full_kernel_at_paper_scale(paper_scale_chains, chain, method):
    # The star chain is substochastic (no unit eigenvector, no closed form):
    # the identity behind offdiagonal_mean needs only symmetry.
    tm, steps = paper_scale_chains[chain], 262144
    got, want = _spectral_mean(tm, steps, method), _matrix_mean(tm, steps, method)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("chain", ["erdos_renyi", "geometric"])
def test_exact_kernel_matches_logm_oracle_at_paper_scale(paper_scale_chains, chain):
    # Once every non-unit |lambda|^T underflows, sum_{i<=T} W^i / i is
    # H_T J - logm(I - W + J) with J = 11^T / n.  SciPy's logm is a Schur-Pade
    # method: an oracle on irregular chains that shares no eigh with the kernel.
    # The same oracle with ln T in place of H_T is the closed kernel.
    from scipy.linalg import logm

    tm, steps = paper_scale_chains[chain], 262144
    lam = np.linalg.eigvalsh(tm.w)
    assert lam[-1] == pytest.approx(1.0, abs=1e-12)
    assert float(np.max(np.abs(lam[:-1]))) ** steps == 0.0
    j = np.full((tm.n, tm.n), 1.0 / tm.n)
    log_term = logm(np.eye(tm.n) - tm.w + j)
    oracle = harmonic_number(steps) * j - log_term
    assert float(np.max(np.abs(acc._kernel(tm, steps, "exact") - oracle) / np.abs(oracle))) <= 1e-11
    closed = math.log(steps) * j - log_term
    assert float(np.max(np.abs(acc._kernel(tm, steps, "closed") - closed) / np.abs(closed))) <= 1e-11

    want = MEAN_PAIRS.apply(oracle)
    for got in (_spectral_mean(tm, steps, "exact"), _matrix_mean(tm, steps, "exact")):
        assert abs(got - want) <= 1e-11 * want
    p = P(alpha=2.0, sigma2=16.0, steps=steps)
    off = ~np.eye(tm.n, dtype=bool)
    eps = pairwise_matrix(tm, p, method="exact")[off]
    expect = oracle[off] * (p.alpha * p.n_contributions(tm.n)) / p.sigma2
    assert float(np.max(np.abs(eps - expect) / expect)) <= 1e-11


@pytest.mark.parametrize(
    "tm, steps",
    [
        (hamilton_weighting(generate(GraphSpec(family="erdos_renyi", n=24, q=0.3, seed=1))), 500),
        (hamilton_weighting(generate(GraphSpec(family="ring", n=16))), 500),  # lambda_n = -1
        (with_self_loops(generate(GraphSpec(family="ring", n=16)), 1.0 / 2000**2), 2000),
        (star_walk_matrix(33, 0.1), 300),
    ],
)
def test_offdiagonal_mean_matches_dense_powers(tm, steps, power_kernel):
    want = MEAN_PAIRS.apply(power_kernel(tm, steps))
    assert abs(_spectral_mean(tm, steps, "exact") - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("chain", ["erdos_renyi", "lazy_ring", "complete"])
@pytest.mark.parametrize("method", ["exact", "closed"])
def test_calibrate_mean_pairs_identical_to_matrix_path(paper_scale_chains, chain, method):
    tm = paper_scale_chains[chain]
    template = P(alpha=2.0, sigma2=16.0, steps=262144)
    stat = template.n_contributions(tm.n) * _matrix_mean(tm, template.steps, method)
    for eps in (0.95, 2.0):
        target = DpPoint(eps, 1e-6)
        got = calibrate_sigma(tm, template.steps, target, method=method)
        want = acc._calibrate_scaled(stat, target, True)
        assert (got.sigma2, got.alpha, got.gap_limited) == (want.sigma2, want.alpha, want.gap_limited)
        assert got.epsilon == pytest.approx(want.epsilon, rel=1e-12, abs=0.0)
        assert got.rdp_statistic == pytest.approx(want.rdp_statistic, rel=1e-12, abs=0.0)


def test_calibrate_mean_pairs_never_forms_the_kernel(monkeypatch, lazy_ring):
    def refuse(*args, **kwargs):
        raise AssertionError("the mean-pairs calibration formed an n x n matrix")

    tm = lazy_ring(64)
    monkeypatch.setattr(acc, "_kernel", refuse)
    monkeypatch.setattr(SpectralDecomposition, "apply", refuse)
    monkeypatch.setattr(acc, "pairwise_matrix", refuse)
    for method in ("exact", "closed"):
        calibrate_sigma(tm, 4096, DpPoint(2.0, 1e-6), method=method)


def test_calibrate_rejects_missing_distances_before_the_kernel(lazy_ring):
    tm = lazy_ring(8)
    with pytest.raises(AccountantError, match="hop-distance"):
        calibrate_sigma(tm, 64, DpPoint(1.0, 1e-6), mean_at_distance(1), method="exact")
    assert not tm._cache  # no eigendecomposition, kernel or hash was computed


def test_calibrate_rejects_misshapen_distances_before_the_eigensolver(lazy_ring):
    tm = lazy_ring(64)
    with pytest.raises(AccountantError, match="shape mismatch"):
        calibrate_sigma(tm, 4096, DpPoint(1.0, 1e-6),
                        mean_at_distance(1), dist=np.zeros((3, 3), dtype=np.int64), method="exact")
    assert "spectral_decomposition" not in tm._cache


@pytest.mark.parametrize("method", ["exact", "closed"])
def test_calibrate_rejects_an_empty_distance_before_the_eigensolver(monkeypatch, method):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve for a distance that holds no pair")

    monkeypatch.setattr(acc, "decompose", refuse)
    monkeypatch.setattr(spectral, "decompose", refuse)
    g = generate(GraphSpec(family="complete", n=8))
    tm = hamilton_weighting(g)
    with pytest.raises(AccountantError, match="^no pairs at hop distance 2$"):
        calibrate_sigma(tm, 80, DpPoint(1.0, 1e-6), mean_at_distance(2), dist=shortest_path_distances(g),
                        method=method)
    assert "spectral_decomposition" not in tm._cache


def test_calibrate_degenerate_statistic(uniform_chain):
    # a zero-step walk leaks nothing; there is no finite noise level to find
    with pytest.raises(CalibrationError, match="degenerate"):
        calibrate_sigma(uniform_chain(4), 0, DpPoint(1.0, 1e-6), method="exact")
    with pytest.raises(CalibrationError, match="must be positive"):
        calibrate_sigma_local(0, DpPoint(1.0, 1e-6), 4)


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


def _per_mask_buckets(eps: np.ndarray, dist: np.ndarray) -> list[DistanceBucket]:
    """Reference aggregation: one n x n mask per distance."""
    mask = ~np.eye(eps.shape[0], dtype=bool)
    out = []
    for d in sorted(set(int(x) for x in dist[mask])):
        vals = eps[mask & (dist == d)]
        out.append(DistanceBucket(d, float(np.mean(vals)), float(np.std(vals)), int(vals.size)))
    return out


def test_mean_loss_by_distance_equals_per_mask_reference():
    rng = np.random.default_rng(11)
    eps = rng.random((64, 64)) * 10.0 ** rng.integers(-3, 3, size=(64, 64))
    np.fill_diagonal(eps, np.nan)
    dist = rng.integers(1, 9, size=(64, 64))
    np.fill_diagonal(dist, 0)
    assert mean_loss_by_distance(eps, dist) == _per_mask_buckets(eps, dist)
    assert mean_loss_by_distance(np.full((1, 1), np.nan), np.zeros((1, 1), dtype=int)) == []


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
@pytest.mark.parametrize("span", [3, 300, 70_000])
def test_mean_loss_by_distance_any_integer_keys(dtype, span):
    # Spans past 255 and 65535 move the sort keys to 16 and 32 bits; -1
    # (unreached) and a diagonal that is not 0 are ordinary distances.
    rng = np.random.default_rng(span)
    n = 40
    eps = rng.random((n, n))
    np.fill_diagonal(eps, np.nan)
    lo = -1 if np.issubdtype(dtype, np.signedinteger) else 0
    hi = min(lo + span, int(np.iinfo(dtype).max))
    dist = rng.integers(lo, hi, size=(n, n)).astype(dtype)
    dist[0, 1], dist[1, 0] = lo, hi  # both ends of the range
    np.fill_diagonal(dist, 5)
    assert mean_loss_by_distance(eps, dist) == _per_mask_buckets(eps, dist)


def test_mean_loss_by_distance_shape_mismatch():
    with pytest.raises(AccountantError, match="shape mismatch"):
        mean_loss_by_distance(np.zeros((3, 3)), np.zeros((4, 4), dtype=int))
    with pytest.raises(AccountantError, match="integers"):
        mean_loss_by_distance(np.zeros((3, 3)), np.ones((3, 3)))


def test_privacy_path_memory_bounds(traced_memory, traced_peak):
    n = 512
    tm = with_self_loops(generate(GraphSpec(family="ring", n=n)), 0.25)
    p = P(alpha=2.0, sigma2=16.0, steps=1000)
    # The cold call the CLI makes: eigh's eigenvectors, the kernel and one
    # buffered transpose at most; afterwards only the eigenvectors stay.
    retained, peak = traced_memory(pairwise_matrix, tm, p, method="exact")
    assert peak <= 3.1 * n * n * 8
    assert retained <= 1.1 * n * n * 8
    m = pairwise_matrix(tm, p, method="exact")
    # the worst case for aggregation: nearly every pair in one group
    dist = np.ones((n, n), dtype=np.int64)
    dist[0, 1] = 2
    np.fill_diagonal(dist, 0)
    assert traced_peak(mean_loss_by_distance, m, dist) <= 2.5 * n * n * 8


@pytest.mark.parametrize("method", ["exact", "closed"])
def test_pairwise_csv_round_trip(tmp_path, method):
    # the lazy ring as the privacy command builds it: --kappa blends self-loops in
    tm = blend_self_loops(hamilton_weighting(generate(GraphSpec(family="ring", n=5))), 1.0 / 3.0)
    m = pairwise_matrix(tm, P(alpha=4.0, sigma2=32.0, steps=50), method=method)
    assert cli.main(["privacy", "--family", "ring", "--n", "5", "--kappa", repr(1.0 / 3.0), "--alpha", "4",
                     "--sigma2", "32", "--steps", "50", "--method", method, "--out", str(tmp_path)]) == 0
    path = tmp_path / "pairwise_seed0.csv"
    back = read_matrix_csv(path)
    assert np.array_equal(back, m, equal_nan=True)
    # the NaN diagonal is stored as empty cells
    first_row = path.read_text().splitlines()[0]
    assert first_row.startswith(",")
    meta = __import__("json").loads((tmp_path / "pairwise_seed0.csv.json").read_text())
    assert meta["alpha"] == 4.0
    assert meta["sigma2"] == 32.0
    assert meta["method"] == method
    assert meta["graph_hash"] == tm.content_hash()
    assert meta["hash_version"] == HASH_VERSION == 2


def test_distance_series_round_trip(tmp_path):
    buckets = [
        DistanceBucket(distance=1, mean=0.5, std=0.1, count=16),
        DistanceBucket(distance=2, mean=0.25, std=0.05, count=8),
    ]
    path = tmp_path / "series.csv"
    cli._write_distance_series(path, buckets)
    assert cli._read_distance_series(path) == buckets


def test_distance_series_reads_two_column_overlay(tmp_path):
    path = tmp_path / "overlay.csv"
    path.write_text("distance,mean\n1,0.75\n2,0.5\n")
    got = cli._read_distance_series(path)
    assert got == [
        DistanceBucket(distance=1, mean=0.75, std=0.0, count=0),
        DistanceBucket(distance=2, mean=0.5, std=0.0, count=0),
    ]


def test_distance_series_header_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("hops,mean\n1,0.5\n")
    with pytest.raises(ConfigError, match="distance"):
        cli._read_distance_series(bad)
    short = tmp_path / "short.csv"
    short.write_text("distance,mean\n3\n")
    with pytest.raises(ConfigError, match="short.csv:2"):
        cli._read_distance_series(short)
