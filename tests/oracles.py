"""Reference computations that the tests compare the library against.

No command runs any of these, so they live with the tests, not in
``tokenwalk``:

* per-pair losses read off a cached n x n kernel, and the star and lazy-ring
  closed forms that check the spectral kernel on chains with known spectra;
* the baseline without amplification, which referees
  :func:`tokenwalk.accountant.calibrate_sigma_local`;
* :func:`from_array`, which wraps a copy of any square array, so tests can
  build chains that no builder makes (asymmetric, substochastic, out of
  range);
* the Theorem 2 error ceiling for the tuned step size;
* :func:`read_matrix_csv`, the inverse of
  :func:`tokenwalk.ioutil.write_matrix_csv`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from tokenwalk.accountant import PrivacyParams, Statistic, _kernel, _require_gate, harmonic_number
from tokenwalk.errors import AccountantError, ConfigError
from tokenwalk.optim import THEOREM2_C
from tokenwalk.transition import TransitionMatrix


# --------------------------------------------------------------------------- #
# Accountant: per-pair losses
# --------------------------------------------------------------------------- #


MAX_PAIRS = Statistic("max_pairs")


def _privacy_kernel(w: TransitionMatrix, steps: int, method: str) -> np.ndarray:
    """:func:`_kernel`, read-only and cached on `w` per (steps, method) for the per-pair losses."""
    key = ("privacy_kernel", steps, method)
    cached = w._cache.get(key)
    if cached is not None:
        return cached
    k = _kernel(w, steps, method)
    k.setflags(write=False)
    w._cache[key] = k
    return k


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise AccountantError(f"nodes ({u}, {v}) outside range 0..{n - 1}")
    if u == v:
        raise AccountantError(f"pairwise loss undefined for u == v (got {u})")


def single_contribution_exact(
    w: TransitionMatrix, u: int, v: int, p: PrivacyParams
) -> float:
    """Exact finite-sum loss ``sum_{i=1}^{T} (W^i)_uv * alpha / (sigma2 i)``.

    Read off per-eigenvalue harmonic power sums (dense powers are the tests' oracle).
    """
    _check_pair(w.n, u, v)
    _require_gate(p)
    k = _privacy_kernel(w, p.steps, "exact")
    return (p.alpha * float(k[u, v])) / p.sigma2


def single_contribution_closed(
    w: TransitionMatrix, u: int, v: int, p: PrivacyParams
) -> float:
    """Spectral closed form ``alpha ln(T) / (sigma2 n) - (alpha/sigma2) L_uv``.

    ``L = ln(I - W + (1/n) 11^T)``.  Approximates the exact sum with the
    harmonic sum replaced by ``ln T`` and the truncation tails dropped, so it
    sits within ``alpha/(sigma2 n)`` below and a geometric tail above the
    exact value for large T.
    """
    _check_pair(w.n, u, v)
    _require_gate(p)
    k = _privacy_kernel(w, p.steps, "closed")
    return (p.alpha * float(k[u, v])) / p.sigma2


# --------------------------------------------------------------------------- #
# Accountant: topology-specific closed forms
# --------------------------------------------------------------------------- #


def star_walk_matrix(n: int, kappa: float) -> TransitionMatrix:
    """Reference chain for the star closed forms: ``((1-k) A + k I) / (n-1)``.

    Hub is node 0.  Substochastic (each hop carries weight 1/(n-1)); this is
    the chain whose power series the star formulas sum, exposed so tests can
    run the exact accountant against the same object.
    """
    if n < 3:
        raise AccountantError(f"star needs n >= 3, got {n}")
    a = np.zeros((n, n))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    m = ((1.0 - kappa) * a + kappa * np.eye(n)) / (n - 1)
    return TransitionMatrix(w=m)


def closed_form_star(
    n: int, u: int, v: int, p: PrivacyParams, kappa: float = 0.0
) -> float:
    """Analytic star-graph loss: the T -> infinity sum of the power series of
    :func:`star_walk_matrix`, ``sum_{i>=1} (alpha / sigma2) M^i / i``; hub is node 0.

    ``M = ((1-k) A + k I) / (n-1)`` has three distinct eigenvalues:
    ``mu_pm = (k +- (1-k) sqrt(n-1)) / (n-1)`` on ``e_0 +- 1_leaves / sqrt(n-1)``
    and ``mu_0 = k / (n-1)`` on the leaf vectors that sum to zero.  So the
    series ``-ln(I - M)`` gives, with ``l(mu) = ln(1 - mu)``:

    * hub<->leaf:  ``alpha (l(mu_-) - l(mu_+)) / (2 sigma2 sqrt(n-1))``;
    * leaf<->leaf: ``(alpha / sigma2) (-(l(mu_+) + l(mu_-)) / (2 (n-1)) + l(mu_0) / (n-1))``.

    For ``0 <= k <= 1``, ``M`` has no negative entry, so every term of the
    series is nonnegative and the value upper-bounds the finite-T sum
    (:func:`single_contribution_exact` on the same chain) at every T.  A
    leaf<->leaf loss is about ``2 (n-1)`` times smaller than a hub<->leaf one.
    """
    if n < 3:
        raise AccountantError(f"star needs n >= 3, got {n}")
    _check_pair(n, u, v)
    _require_gate(p)
    root = math.sqrt(n - 1)
    one_minus_plus = 1.0 - (kappa + (1.0 - kappa) * root) / (n - 1)
    # Each pair's logs are merged into one log1p, using mu_+ - mu_- =
    # 2 (1-k) / sqrt(n-1) and (1 - mu_0)^2 - (1 - mu_+)(1 - mu_-) = (1-k)^2 / (n-1);
    # the three leaf<->leaf logs would cancel down to ~1e-9 at k = 0.9.
    if u == 0 or v == 0:
        numer = p.alpha * math.log1p(2.0 * (1.0 - kappa) / (root * one_minus_plus)) / (2.0 * root)
    else:
        one_minus_minus = 1.0 - (kappa - (1.0 - kappa) * root) / (n - 1)
        ratio = (1.0 - kappa) ** 2 / ((n - 1) * one_minus_plus * one_minus_minus)
        numer = p.alpha * math.log1p(ratio) / (2.0 * (n - 1))
    return numer / p.sigma2


def _tail_bound(lam: float, steps: int) -> float:
    """Upper bound on ``|sum_{i>T} lambda^i / i|`` for |lambda| < 1."""
    a = abs(lam)
    if a == 0.0:
        return 0.0
    if a >= 1.0:
        raise AccountantError(f"tail bound requires |lambda| < 1, got {lam}")
    head = math.exp((steps + 1) * math.log(a)) / (steps + 1)
    # Positive lambda: monotone tail, geometric bound; negative: alternating,
    # first term bounds the whole tail.
    return head / (1.0 - a) if lam > 0.0 else head


def closed_form_ring(
    n: int,
    u: int,
    v: int,
    p: PrivacyParams,
    variant: str = "equal_prob",
    kappa: float | None = None,
) -> float:
    """Fourier closed form for the lazy ring walk.

    The chain's eigenvalues are ``lambda_k = (1-k') cos(2 pi k / n) + k'``
    with ``k' = 1/3`` for the equal-probability walk (left/right/stay each
    1/3) or the given ``kappa`` for the ``"self_loop"`` variant.  The loss is

        (alpha / (n sigma2)) * [H_T
            + sum_{k>=1} cos(2 pi k d / n) * (-ln(1 - lambda_k))
            + sum_{k>=1} tail_bound(lambda_k)]

    with ``d`` the ring offset u-v.  The harmonic number is kept exact and
    truncation tails are added as upper bounds, so the result dominates the
    exact finite sum for every pair while matching it to the (tiny) tail mass.
    """
    if n < 3:
        raise AccountantError(f"ring needs n >= 3, got {n}")
    _check_pair(n, u, v)
    _require_gate(p)
    if p.steps < 1:
        raise AccountantError("ring closed form requires steps >= 1")
    if variant == "equal_prob":
        kap = 1.0 / 3.0
    elif variant == "self_loop":
        if kappa is None or not 0.0 < kappa < 1.0:
            raise AccountantError("self_loop variant requires kappa in (0, 1)")
        kap = kappa
    else:
        raise AccountantError(f"variant must be 'equal_prob' or 'self_loop', got {variant!r}")

    d = (u - v) % n
    total = harmonic_number(p.steps)
    for k in range(1, n):
        lam = (1.0 - kap) * math.cos(2.0 * math.pi * k / n) + kap
        total += math.cos(2.0 * math.pi * k * d / n) * (-math.log1p(-lam))
        total += _tail_bound(lam, p.steps)
    return (p.alpha * total / n) / p.sigma2


# --------------------------------------------------------------------------- #
# Accountant: the baseline without amplification
# --------------------------------------------------------------------------- #


def local_dp_baseline(p: PrivacyParams, n: int) -> float:
    """Composed Gaussian-mechanism loss with every update public.

    ``N_u * alpha / (2 sigma2)``: no decentralization amplification, and no
    sigma2 gate (the plain Gaussian mechanism has none).
    """
    numer = p.alpha * p.n_contributions(n) / 2.0
    return numer / p.sigma2


# --------------------------------------------------------------------------- #
# Chains, step-size analysis and CSV input
# --------------------------------------------------------------------------- #


def from_array(w: np.ndarray) -> TransitionMatrix:
    """Wrap a copy of an arbitrary square array (the wrapper freezes it).

    Does not reject invalid chains; run :func:`tokenwalk.transition.validate`
    to get a report.
    """
    return TransitionMatrix(w=np.array(w, dtype=float))


def error_bound_theorem2(
    l_smooth: float,
    mu: float,
    steps: int,
    dist0: float,
    tau_mix: float,
    zeta_star: float,
    dim: int,
    sigma: float,
    delta_sens: float,
    sigma_sgd: float,
) -> float:
    """Predicted ``E||x_T - x*||^2`` ceiling for the tuned step size.

    ``2 exp(-T mu / L) d0 + (39 tau z^2 L / (mu^3 T)
    + (dim sigma^2 delta^2 + sigma_sgd^2) L / (mu^2 T)) * ln(T mu^2 d0 /
    (39 L tau z^2))``.  The log factor is clamped at 0 from below and
    replaced by ``ln T`` when heterogeneity is zero (the analysis horizon),
    keeping the bound finite; treat the result as an order-of-magnitude
    ceiling, not an estimate.
    """
    if min(l_smooth, mu, steps, dist0, tau_mix) <= 0:
        raise ConfigError("error_bound_theorem2 requires positive L, mu, T, dist0, tau_mix")
    contraction = 2.0 * math.exp(-steps * mu / l_smooth) * dist0
    c39 = 3.0 * THEOREM2_C
    if zeta_star > 0.0:
        log_arg = steps * mu**2 * dist0 / (c39 * l_smooth * tau_mix * zeta_star**2)
        log_factor = max(math.log(log_arg), 0.0) if log_arg > 0 else 0.0
    else:
        log_factor = math.log(steps) if steps > 1 else 0.0
    walk_term = c39 * tau_mix * zeta_star**2 * l_smooth / (mu**3 * steps)
    noise_term = (dim * sigma**2 * delta_sens**2 + sigma_sgd**2) * l_smooth / (mu**2 * steps)
    return contraction + (walk_term + noise_term) * log_factor


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Inverse of :func:`write_matrix_csv`: an empty cell is NaN; a blank line
    is one empty cell in a one-column file, and skipped in a file with more
    columns."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if any("," in line for line in lines):
        lines = [line for line in lines if line]
    rows = [
        [np.nan if c == "" else float(c) for c in line.split(",")]
        for line in lines
    ]
    return np.asarray(rows, dtype=float)
