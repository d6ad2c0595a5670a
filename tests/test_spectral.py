"""Spectral quantities: decomposition, spectral functions, log term, mixing."""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.linalg import expm, logm

from tokenwalk import spectral
from tokenwalk.errors import SpectralError
from tokenwalk.graphs import GraphSpec, generate
from tokenwalk.spectral import (
    decompose,
    matrix_log_term,
    mixing_time_empirical,
    mixing_time_spectral_bound,
    spectral_gap,
)
from tokenwalk.transition import (
    from_array,
    hamilton_weighting,
    stationary_distribution,
    with_self_loops,
)


# --------------------------------------------------------------------------- #
# Decomposition
# --------------------------------------------------------------------------- #


def test_lazy_ring4_eigenvalues(lazy_ring):
    dec = decompose(lazy_ring(4))
    # (2/3) cos(2 pi k / 4) + 1/3 for k = 0..3
    assert np.allclose(sorted(dec.eigenvalues), [-1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-12)
    assert dec.eigenvalues[0] == pytest.approx(1.0)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)  # descending


def test_reconstruct_and_orthonormal(er_chain):
    dec = decompose(er_chain)
    assert np.allclose(dec.apply(dec.eigenvalues), er_chain.w, atol=1e-12)
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.allclose(gram, np.eye(dec.n), atol=1e-12)


def test_sign_canonicalization(er_chain):
    dec = decompose(er_chain)
    for k in range(dec.n):
        col = dec.eigenvectors[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert col[nz[0]] > 0
    # Bitwise equal to the per-column loop applied to the same eigh output.
    vals, vecs = np.linalg.eigh(er_chain.w)
    ref = np.ascontiguousarray(vecs[:, np.argsort(vals)[::-1]])
    for k in range(ref.shape[1]):
        col = ref[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            ref[:, k] = -col
    assert dec.eigenvectors.tobytes() == ref.tobytes()


def test_decompose_cached_per_instance(er_chain):
    assert decompose(er_chain) is decompose(er_chain)


def test_decompose_requires_symmetric():
    tm = from_array(np.array([[0.9, 0.1], [0.5, 0.5]]))
    with pytest.raises(SpectralError, match="symmetric"):
        decompose(tm)


# --------------------------------------------------------------------------- #
# Matrix log term
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [4, 9, 16])
def test_matrix_log_term_matches_dense_logm(lazy_ring, n):
    tm = lazy_ring(n)
    ours = matrix_log_term(tm)
    j = np.full((n, n), 1.0 / n)
    ref = logm(np.eye(n) - tm.w + j)
    assert np.allclose(ours, ref.real, atol=1e-10)
    # unit eigenspace excluded: constant vectors are annihilated
    assert np.allclose(ours @ np.ones(n), 0.0, atol=1e-12)
    assert np.allclose(ours, ours.T)


def test_matrix_log_term_uniform_is_zero(uniform_chain):
    # W = J/n: the only non-unit eigenvalues are 0, and ln(1 - 0) = 0
    out = matrix_log_term(uniform_chain(8))
    assert np.max(np.abs(out)) <= 1e-14


def test_disconnected_chain_rejected():
    block = np.zeros((4, 4))
    block[:2, :2] = 0.5
    block[2:, 2:] = 0.5
    with pytest.raises(SpectralError, match="disconnected or degenerate"):
        matrix_log_term(from_array(block))


def test_log_term_requires_bistochastic():
    tm = from_array(np.array([[0.8, 0.1], [0.1, 0.8]]))  # symmetric, rows sum 0.9
    with pytest.raises(SpectralError, match="bistochastic"):
        matrix_log_term(tm)


# --------------------------------------------------------------------------- #
# Spectral functions
# --------------------------------------------------------------------------- #


def _centered(w: np.ndarray) -> np.ndarray:
    n = w.shape[0]
    return w - np.full((n, n), 1.0 / n)


def test_factorial_weights_matches_expm(er_chain):
    # sum_i (W - J/n)^i / i! = exp(lambda) - 1 on the non-unit eigenspace, 0 on 1
    dec = decompose(er_chain)
    out = dec.apply(np.concatenate(([0.0], np.expm1(dec.eigenvalues[1:]))))
    ref = expm(_centered(er_chain.w)) - np.eye(er_chain.n)
    assert np.allclose(out, ref, atol=1e-10)


def test_geometric_weights_closed_form(two_state):
    a = 0.5
    dec = decompose(two_state)
    lam = dec.eigenvalues[1:]
    out = dec.apply(np.concatenate(([0.0], a * lam / (1 - a * lam))))
    # non-unit eigenvalue 1/2: series a*x/(1 - a*x) at x = 1/2 is 1/3
    expected_scalar = a * 0.5 / (1 - a * 0.5)
    vec = np.array([1.0, -1.0]) / np.sqrt(2)
    ref = expected_scalar * np.outer(vec, vec)
    assert np.allclose(out, ref, atol=1e-14)


# --------------------------------------------------------------------------- #
# Gaps and mixing times
# --------------------------------------------------------------------------- #


def test_spectral_gap_values(two_state, lazy_ring):
    g = spectral_gap(two_state)
    assert g.lambda_w == pytest.approx(0.5)
    assert g.lambda_2 == pytest.approx(0.5)
    r = spectral_gap(lazy_ring(4))
    assert r.lambda_w == pytest.approx(2.0 / 3.0)
    assert r.lambda_n == pytest.approx(-1.0 / 3.0)


def test_mixing_time_spectral_bound_values(two_state, uniform_chain):
    assert mixing_time_spectral_bound(two_state) == 2  # ceil(2 ln 2)
    assert mixing_time_spectral_bound(uniform_chain(16)) == 3  # ceil(ln 16)


def test_mixing_time_spectral_bound_zero_gap():
    bare_ring = hamilton_weighting(generate(GraphSpec(family="ring", n=4)))
    with pytest.raises(SpectralError, match="does not mix"):
        mixing_time_spectral_bound(bare_ring)


def test_mixing_time_empirical_two_state(two_state):
    # TV after t steps is 0.5^(t+1): 0.25 at t=1, 0.125 at t=2
    assert mixing_time_empirical(two_state, 0.25) == 1
    assert mixing_time_empirical(two_state, 0.2) == 2
    assert mixing_time_empirical(two_state, 0.9) == 0


def test_mixing_time_empirical_threshold_property(lazy_ring):
    tm = lazy_ring(16)
    iota = 0.1
    t = mixing_time_empirical(tm, iota)
    pi = np.full(16, 1.0 / 16.0)

    def max_tv(steps: int) -> float:
        p = np.linalg.matrix_power(tm.w, steps)
        return float(np.max(np.abs(p - pi).sum(axis=1)) / 2.0)

    assert max_tv(t) <= iota
    assert max_tv(t - 1) > iota


def test_mixing_time_empirical_uniform_is_one(uniform_chain):
    assert mixing_time_empirical(uniform_chain(8), 0.01) == 1


@pytest.mark.parametrize(
    "family, n, kappa, iota",
    [("ring", 4, 1.0 / 3.0, 0.25), ("complete", 4, None, 0.25), ("complete", 10, None, 0.1)],
    ids=["lazy-ring-4", "complete-4", "complete-10"],
)
def test_mixing_time_empirical_exact_tie_is_mixed(family, n, kappa, iota):
    # In exact arithmetic the TV at t = 1 equals iota (lazy ring n=4: rows
    # (1/3, 1/3, 0, 1/3) against 1/4; Hamilton complete: 1/n), and a tie counts
    # as mixed.  Rounding W^1 spectrally lands just above iota.
    g = generate(GraphSpec(family=family, n=n))
    tm = hamilton_weighting(g) if kappa is None else with_self_loops(g, kappa)
    assert _max_tv_by_matrix_power(tm.w, stationary_distribution(tm), 1) <= iota
    assert mixing_time_empirical(tm, iota) == 1


def test_mixing_time_empirical_fallback_branch():
    # non-symmetric chain goes through step-by-step products
    tm = from_array(np.array([[0.9, 0.1], [0.5, 0.5]]))
    t = mixing_time_empirical(tm, 0.05)
    pi = np.array([5.0 / 6.0, 1.0 / 6.0])

    def max_tv(steps: int) -> float:
        p = np.linalg.matrix_power(tm.w, steps)
        return float(np.max(np.abs(p - pi).sum(axis=1)) / 2.0)

    assert max_tv(t) <= 0.05 < max_tv(t - 1)


def _max_tv_by_matrix_power(w: np.ndarray, pi: np.ndarray, t: int) -> float:
    p = np.linalg.matrix_power(w, t)
    return float(np.max(np.abs(p - pi).sum(axis=1)) / 2.0)


def test_mixing_time_empirical_nonsymmetric_matches_step_search():
    rng = np.random.default_rng(6)
    for _ in range(5):
        w = rng.random((7, 7)) ** 4  # skewed rows: slow, non-symmetric mixing
        w /= w.sum(axis=1, keepdims=True)
        tm = from_array(w)
        pi = stationary_distribution(tm)
        for iota in (0.3, 0.05, 1e-3, 1e-6):
            t = mixing_time_empirical(tm, iota)
            assert _max_tv_by_matrix_power(w, pi, t) <= iota
            assert t == 0 or _max_tv_by_matrix_power(w, pi, t - 1) > iota


@pytest.mark.parametrize("name", ["directed-3-cycle", "star-walk"])
def test_mixing_time_empirical_nonsymmetric_periodic_fails_fast(name):
    if name == "directed-3-cycle":
        w = np.roll(np.eye(3), 1, axis=1)
    else:
        w = np.zeros((5, 5))
        w[0, 1:] = 0.25
        w[1:, 0] = 1.0
    start = time.perf_counter()
    with pytest.raises(SpectralError, match="no mixing within 1000000 steps"):
        mixing_time_empirical(from_array(w), 0.1)
    assert time.perf_counter() - start < 2.0  # ~20 squarings, not 10^6 products


def test_mixing_time_empirical_periodic_raises():
    bare_ring = hamilton_weighting(generate(GraphSpec(family="ring", n=4)))
    with pytest.raises(SpectralError, match="no mixing"):
        mixing_time_empirical(bare_ring, 0.1)


@pytest.mark.parametrize("iota", [0.0, 1.0, -0.5, 2.0])
def test_mixing_time_empirical_iota_range(two_state, iota):
    with pytest.raises(SpectralError, match="iota"):
        mixing_time_empirical(two_state, iota)


# --------------------------------------------------------------------------- #
# Export
# --------------------------------------------------------------------------- #


def test_save_spectrum_csv(tmp_path, lazy_ring):
    dec = decompose(lazy_ring(4))
    path = tmp_path / "spectrum.csv"
    spectral.save_spectrum_csv(dec, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 5
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)
    assert values[0] == pytest.approx(1.0)
