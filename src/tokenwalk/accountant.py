"""Pairwise Renyi privacy accounting for token random walks.

Implements the per-pair privacy loss of a noisy token walk: a node's
contribution is protected by every noisy update inserted between it and an
observer, which decays the order-``alpha`` Renyi divergence like
``alpha / (2 sigma^2 i)`` after ``i`` intermediate steps.  Summing over walk
lengths and weighting by arrival probabilities gives the exact finite-sum
loss; spectral closed forms, topology-specific formulas for stars and rings,
observer-variant bounds (known sender, colluding sets), baselines without
amplification, (epsilon, delta) conversion, and noise calibration all build
on the same kernel.

Conventions
-----------
* All losses are Renyi divergences at order ``alpha``; composition over a
  node's expected ``T/n`` contributions is multiplicative.
* Division by ``sigma2`` is always the final floating-point operation, so
  rescaling the noise rescales every loss exactly.
* The loss of a node to itself is undefined; pairwise matrices carry NaN on
  the diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import AccountantError, CalibrationError
from .ioutil import dump_json, read_matrix_csv, write_matrix_csv, write_rows_csv
from .spectral import decompose, matrix_log_term
from .transition import HASH_VERSION, TransitionMatrix

__all__ = [
    "ALPHA_GRID",
    "PrivacyParams",
    "PairwiseLossMatrix",
    "DpPoint",
    "DistanceBucket",
    "Statistic",
    "MEAN_PAIRS",
    "MAX_PAIRS",
    "mean_at_distance",
    "CalibrationResult",
    "beta",
    "harmonic_number",
    "gate_sigma2",
    "single_contribution_exact",
    "single_contribution_closed",
    "pairwise_matrix",
    "closed_form_star",
    "star_walk_matrix",
    "closed_form_ring",
    "oddeven_log_series",
    "sender_known_loss",
    "collusion_loss",
    "local_dp_baseline",
    "rdp_to_dp",
    "calibrate_sigma",
    "calibrate_sigma_local",
    "mean_loss_by_distance",
    "save_pairwise_csv",
    "load_pairwise_csv",
    "save_distance_series_csv",
    "read_distance_series_csv",
]

#: Renyi orders tried by the calibrator (the best converted epsilon wins).
ALPHA_GRID = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

_EULER_GAMMA = float(np.euler_gamma)
_HARMONIC_DIRECT_MAX = 256

_KERNEL_CACHE_KEY = "privacy_kernel"

#: Eigenvalues within this distance of +-1 are treated as exactly +-1: the
#: kernel takes ``H_T`` (or ``H_{T//2} - H_T``) instead of quadrature.  It
#: only has to absorb ``eigh``'s rounding of exact unit eigenvalues (a few
#: ulp); the quadrature is accurate up to ``|lambda|`` within 1e-11 of 1.
#: Replacing ``S_T(1 - d)`` by ``H_T`` errs by about ``T d``, so a looser value
#: adds error of order ``T * _UNIT_TOL``.  This is not the spectral module's
#: ``_UNIT_EIGENVALUE_TOL``, which rejects near-disconnected chains.
_UNIT_TOL = 1e-12

_QUADRATURE_NODES = 256

#: Eigenvalues per quadrature block: temporaries stay at a few hundred kB.
_EIGENVALUE_BLOCK = 64


# --------------------------------------------------------------------------- #
# Types
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PrivacyParams:
    """Accounting parameters for one walk configuration.

    Attributes
    ----------
    alpha : float
        Renyi order, > 1.
    sigma2 : float
        Noise multiplier squared; the token noise variance per coordinate is
        ``delta_sens**2 * sigma2``.
    steps : int
        Total walk length T.
    delta_sens : float
        Gradient sensitivity (clip threshold).
    contributions : str
        ``"expected"`` composes over ``T/n`` contributions; ``"capped"`` over
        ``min(T/n, max_contributions)`` (the simulator enforces the cap with
        noise-only updates).
    """

    alpha: float
    sigma2: float
    steps: int
    delta_sens: float = 1.0
    contributions: str = "expected"
    max_contributions: float | None = None

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise AccountantError(f"alpha must be > 1, got {self.alpha}")
        if not self.sigma2 > 0.0:
            raise AccountantError(f"sigma2 must be positive, got {self.sigma2}")
        if self.steps < 0:
            raise AccountantError(f"steps must be nonnegative, got {self.steps}")
        if not self.delta_sens > 0.0:
            raise AccountantError(f"delta_sens must be positive, got {self.delta_sens}")
        if self.contributions not in ("expected", "capped"):
            raise AccountantError(
                f"contributions must be 'expected' or 'capped', got {self.contributions!r}"
            )
        if self.contributions == "capped":
            if self.max_contributions is None or self.max_contributions <= 0:
                raise AccountantError("capped contributions require max_contributions > 0")

    def n_contributions(self, n: int) -> float:
        """Composition count N_u on an n-node graph (a real number)."""
        expected = self.steps / n
        if self.contributions == "capped":
            return min(expected, float(self.max_contributions))
        return expected

    def scaled(self, **changes) -> PrivacyParams:
        """Copy with fields replaced (convenience for sweeps)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class PairwiseLossMatrix:
    """n x n matrix of composed pairwise losses; diagonal is NaN.

    ``eps[u, v]`` bounds what node v's view reveals about node u's data, in
    Renyi units at ``params.alpha``, already composed over contributions.
    """

    eps: np.ndarray
    params: PrivacyParams
    method: str
    w_hash: str

    @property
    def n(self) -> int:
        return self.eps.shape[0]

    def offdiagonal(self) -> np.ndarray:
        """Flat array of the n(n-1) defined entries."""
        mask = ~np.eye(self.n, dtype=bool)
        return self.eps[mask]


@dataclass(frozen=True)
class DpPoint:
    """A single (epsilon, delta) differential-privacy guarantee."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise AccountantError(f"delta must be in (0, 1), got {self.delta}")
        if self.epsilon < 0.0:
            raise AccountantError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass(frozen=True)
class DistanceBucket:
    """Aggregated loss over all ordered pairs at one hop distance."""

    distance: int
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class Statistic:
    """Scalar summary of a pairwise matrix used as the calibration target."""

    kind: str  # mean_pairs | max_pairs | mean_at_distance
    distance: int | None = None

    def apply(self, matrix: np.ndarray, dist: np.ndarray | None = None) -> float:
        mask = ~np.eye(matrix.shape[0], dtype=bool)
        if self.kind == "mean_pairs":
            return float(np.mean(matrix[mask]))
        if self.kind == "max_pairs":
            return float(np.max(matrix[mask]))
        if self.kind == "mean_at_distance":
            if dist is None:
                raise AccountantError("mean_at_distance requires a hop-distance matrix")
            sel = mask & (dist == self.distance)
            if not np.any(sel):
                raise AccountantError(f"no pairs at hop distance {self.distance}")
            return float(np.mean(matrix[sel]))
        raise AccountantError(f"unknown statistic kind {self.kind!r}")


MEAN_PAIRS = Statistic("mean_pairs")
MAX_PAIRS = Statistic("max_pairs")


def mean_at_distance(d: int) -> Statistic:
    return Statistic("mean_at_distance", distance=d)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of noise calibration.

    `gap_limited` marks targets that fall in a dead zone of the achievable
    epsilon curve (the curve jumps at Renyi-order switches and at the noise
    floor); the returned sigma2 then achieves the closest epsilon *below* the
    target, which is the conservative side.
    """

    sigma2: float
    epsilon: float
    alpha: float
    rdp_statistic: float
    target: DpPoint
    gap_limited: bool
    statistic: Statistic
    method: str


# --------------------------------------------------------------------------- #
# Scalar building blocks
# --------------------------------------------------------------------------- #


def beta(i: int, p: PrivacyParams) -> float:
    """Renyi leakage bound ``alpha / (2 sigma2 i)`` after i intermediate steps."""
    if i < 1:
        raise AccountantError(f"step gap must be >= 1, got {i}")
    return p.alpha / (2.0 * p.sigma2 * i)


def harmonic_number(t: int) -> float:
    """H_t = sum_{i=1}^{t} 1/i to within ~2e-16 relative.

    Up to ``_HARMONIC_DIRECT_MAX`` the terms are summed with `math.fsum`;
    above it the Euler-Maclaurin series ``ln t + gamma + 1/(2t) - 1/(12t^2)
    + 1/(120t^4) - 1/(252t^6)`` has a truncation error below ``1/(240 t^8)``.
    The small terms are summed first, then added to gamma, then to ``ln t``:
    in that order the worst relative error measured against 50-digit mpmath
    (t up to 10^12) is 1.8e-16.
    """
    if t < 0:
        raise AccountantError(f"harmonic number needs t >= 0, got {t}")
    if t <= _HARMONIC_DIRECT_MAX:
        return math.fsum(1.0 / i for i in range(1, t + 1))
    x = 1.0 / t
    x2 = x * x
    tail = x / 2.0 - x2 / 12.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 252.0
    return math.log(t) + (_EULER_GAMMA + tail)


def gate_sigma2(alpha: float) -> float:
    """Minimum sigma2 admitted by the amplified accountants: 2 alpha (alpha-1)."""
    return 2.0 * alpha * (alpha - 1.0)


def _require_gate(p: PrivacyParams) -> None:
    bound = gate_sigma2(p.alpha)
    if p.sigma2 < bound * (1.0 - 1e-12):
        raise AccountantError(
            f"sigma2={p.sigma2} violates the amplification requirement "
            f"sigma2 >= 2*alpha*(alpha-1) = {bound} at alpha={p.alpha}"
        )


def rdp_to_dp(alpha: float, eps_rdp: float, delta: float) -> DpPoint:
    """Convert an order-alpha Renyi bound to (epsilon, delta)-DP."""
    if not alpha > 1.0:
        raise AccountantError(f"alpha must be > 1, got {alpha}")
    if not 0.0 < delta < 1.0:
        raise AccountantError(f"delta must be in (0, 1), got {delta}")
    return DpPoint(epsilon=eps_rdp + math.log(1.0 / delta) / (alpha - 1.0), delta=delta)


def oddeven_log_series(x: float, parity: str) -> float:
    """Parity-restricted log series ``sum_{p odd|even} x^p / p`` for x in (0,1).

    Odd terms sum to ``(1/2) ln((1+x)/(1-x))``; even terms to
    ``-(1/2) ln(1-x^2)``.  (Both halves together give ``-ln(1-x)``.)
    """
    if not 0.0 < x < 1.0:
        raise AccountantError(f"x must be in (0, 1), got {x}")
    if parity == "odd":
        return 0.5 * math.log((1.0 + x) / (1.0 - x))
    if parity == "even":
        return -0.5 * math.log1p(-x * x)
    raise AccountantError(f"parity must be 'odd' or 'even', got {parity!r}")


# --------------------------------------------------------------------------- #
# The walk-length kernel  K_uv = sum_{i=1}^{T} (W^i)_uv / i
# --------------------------------------------------------------------------- #


@functools.cache
def _quadrature_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] (built on first use)."""
    x, c = np.polynomial.legendre.leggauss(_QUADRATURE_NODES)
    return 0.5 * (x + 1.0), 0.5 * c


def _harmonic_power_sums(eigenvalues: np.ndarray, steps: int) -> np.ndarray:
    """``S_T(lambda) = sum_{i=1}^{T} lambda^i / i`` per eigenvalue, in work independent of T.

    With ``a = |lambda|`` and ``V = -ln(1 - a)``, the substitution
    ``t = 1 - e^{-w}`` in ``S_T(x) = int_0^x (1 - t^T) / (1 - t) dt`` gives one
    smooth integrand per sign of lambda::

        S_T(a)  =  int_0^V 1 - (1 - e^{-w})^T dw
        S_T(-a) = -int_0^V [1 - (-1)^T (1 - e^{-w})^T] e^{-w} / (2 - e^{-w}) dw

    Both are evaluated with one fixed 256-node Gauss-Legendre rule on blocks
    of eigenvalues, forming ``(1 - e^{-w})^T`` as ``exp(T log1p(-e^{-w}))``.
    The integrands are entire or have their nearest pole ``ln 2`` away from
    ``[0, V]``, so the rule converges far below double precision; against
    50-digit ``mpmath`` the error stays below ``1e-12`` absolute (observed
    ~2e-14) for any T, including ``|lambda|`` within ``1e-11`` of 1.

    Eigenvalues within ``1e-12`` of 1 get ``H_T``; within ``1e-12`` of -1 (as
    ``eigh`` returns for bipartite chains) ``H_{T//2} - H_T``.  An eigenvalue
    further outside ``[-1, 1]`` has no finite-T meaning for a walk and raises
    :class:`AccountantError`.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    outside = np.abs(lam) > 1.0 + _UNIT_TOL
    if np.any(outside):
        bad = float(lam[outside][np.argmax(np.abs(lam[outside]))])
        raise AccountantError(
            f"eigenvalue {bad!r} lies outside [-1, 1]; the chain is not a valid walk"
        )
    s = np.zeros_like(lam)
    if steps == 0:
        return s
    top = np.abs(lam - 1.0) <= _UNIT_TOL
    bottom = np.abs(lam + 1.0) <= _UNIT_TOL
    s[top] = harmonic_number(steps)
    s[bottom] = harmonic_number(steps // 2) - harmonic_number(steps)
    rest = ~(top | bottom)
    r = lam[rest]
    sums = np.empty_like(r)
    sign = -1.0 if steps % 2 else 1.0
    nodes, weights = _quadrature_rule()
    # ln(1 - e^{-w}) is -inf at w = 0 (only when lambda = 0, whose span is 0).
    with np.errstate(divide="ignore"):
        for i in range(0, r.size, _EIGENVALUE_BLOCK):
            block = r[i : i + _EIGENVALUE_BLOCK]
            span = -np.log1p(-np.abs(block))
            e = np.exp(-span[:, None] * nodes)  # e^{-w}, one row per eigenvalue
            q_t = np.exp(steps * np.log1p(-e))  # (1 - e^{-w})^T
            f = np.where(
                (block < 0.0)[:, None], (sign * q_t - 1.0) * e / (2.0 - e), 1.0 - q_t
            )
            sums[i : i + _EIGENVALUE_BLOCK] = span * (f @ weights)
    s[rest] = sums
    return s


def _privacy_kernel(w: TransitionMatrix, steps: int, mode: str) -> np.ndarray:
    """Full matrix ``sum_{i=1}^{T} (W^i) / i`` (cached per (steps, mode)).

    This is the privacy-weighted communicability of ``W`` (weights
    ``c_i = 1/i``, truncated at T) without the ``alpha / sigma2`` factor; its
    T -> infinity limit on the non-unit eigenspace is ``-matrix_log_term``.
    """
    key = (_KERNEL_CACHE_KEY, steps, mode)
    cached = w._cache.get(key)
    if cached is not None:
        return cached
    if mode == "spectral":
        dec = decompose(w)
        k = dec.apply(_harmonic_power_sums(dec.eigenvalues, steps))
    elif mode == "powers":
        n = w.n
        k = np.zeros((n, n))
        p_i = np.eye(n)
        for i in range(1, steps + 1):
            p_i = p_i @ w.w
            k += p_i / i
    else:
        raise AccountantError(f"mode must be 'spectral' or 'powers', got {mode!r}")
    k.setflags(write=False)
    w._cache[key] = k
    return k


def _check_pair(w: TransitionMatrix, u: int, v: int) -> None:
    n = w.n
    if not (0 <= u < n and 0 <= v < n):
        raise AccountantError(f"nodes ({u}, {v}) outside range 0..{n - 1}")
    if u == v:
        raise AccountantError(f"pairwise loss undefined for u == v (got {u})")


# --------------------------------------------------------------------------- #
# Single-contribution losses
# --------------------------------------------------------------------------- #


def single_contribution_exact(
    w: TransitionMatrix,
    u: int,
    v: int,
    p: PrivacyParams,
    mode: str = "spectral",
) -> float:
    """Exact finite-sum loss ``sum_{i=1}^{T} (W^i)_uv * alpha / (sigma2 i)``.

    ``mode="spectral"`` evaluates per-eigenvalue harmonic power sums (fast);
    ``mode="powers"`` accumulates dense matrix powers (the oracle).  The two
    agree to ~1e-12 on well-conditioned chains.
    """
    _check_pair(w, u, v)
    _require_gate(p)
    k = _privacy_kernel(w, p.steps, mode)
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
    _check_pair(w, u, v)
    _require_gate(p)
    if p.steps < 1:
        raise AccountantError("closed form requires steps >= 1")
    log_term = matrix_log_term(w)
    numer = p.alpha * (math.log(p.steps) / w.n - float(log_term[u, v]))
    return numer / p.sigma2


def pairwise_matrix(
    w: TransitionMatrix,
    p: PrivacyParams,
    method: str = "closed",
    mode: str = "spectral",
) -> PairwiseLossMatrix:
    """All-pairs composed losses ``N_u * single(u, v)``; NaN diagonal.

    ``method="exact"`` uses the finite-sum kernel, the privacy-weighted
    communicability ``sum_{i<=T} alpha W^i / (sigma2 i)``; ``"closed"`` the
    spectral closed form built on its untruncated limit.  Cells are
    independent, deterministic and formed with the division by sigma2 last,
    so rescaling the noise rescales the whole matrix exactly.
    """
    _require_gate(p)
    n = w.n
    n_u = p.n_contributions(n)
    if method == "exact":
        base = _privacy_kernel(w, p.steps, mode).copy()
    elif method == "closed":
        if p.steps < 1:
            raise AccountantError("closed form requires steps >= 1")
        base = math.log(p.steps) / n - matrix_log_term(w)
    else:
        raise AccountantError(f"method must be 'exact' or 'closed', got {method!r}")
    eps = ((p.alpha * n_u) * base) / p.sigma2
    np.fill_diagonal(eps, np.nan)
    eps.setflags(write=False)
    return PairwiseLossMatrix(eps=eps, params=p, method=method, w_hash=w.content_hash())


# --------------------------------------------------------------------------- #
# Topology-specific closed forms
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
    return TransitionMatrix(w=m, symmetric=True, bistochastic=False, self_loop_kappa=0.0)


def closed_form_star(
    n: int, u: int, v: int, p: PrivacyParams, kappa: float = 0.0
) -> float:
    """Analytic star-graph loss; hub is node 0.

    Leaf<->hub pairs: ``(alpha (1-k) / (2 sigma2 sqrt(n-1))) *
    ln((sqrt(n-1)+1)/(sqrt(n-1)-1))``.  Leaf<->leaf pairs:
    ``-(alpha (1-k) / (sigma2 (n-1))) * ln(1 - 1/(n-1))``.  Leaves enjoy a
    ~sqrt(n) amplification advantage over the hub.
    """
    if n < 3:
        raise AccountantError(f"star needs n >= 3, got {n}")
    if u == v:
        raise AccountantError(f"pairwise loss undefined for u == v (got {u})")
    if not (0 <= u < n and 0 <= v < n):
        raise AccountantError(f"nodes ({u}, {v}) outside range 0..{n - 1}")
    _require_gate(p)
    root = math.sqrt(n - 1)
    if u == 0 or v == 0:
        numer = p.alpha * (1.0 - kappa) * math.log((root + 1.0) / (root - 1.0)) / (2.0 * root)
    else:
        numer = -p.alpha * (1.0 - kappa) * math.log1p(-1.0 / (n - 1)) / (n - 1)
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
    if u == v:
        raise AccountantError(f"pairwise loss undefined for u == v (got {u})")
    if not (0 <= u < n and 0 <= v < n):
        raise AccountantError(f"nodes ({u}, {v}) outside range 0..{n - 1}")
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
# Observer variants and baselines
# --------------------------------------------------------------------------- #


def sender_known_loss(
    w: TransitionMatrix,
    u: int,
    v: int,
    p: PrivacyParams,
    include_self: bool = True,
    mode: str = "spectral",
) -> float:
    """Loss to an observer v that also learns who sent it the token.

    Bounded by the worst single-contribution loss of u toward any possible
    predecessor of v: ``max over w' in N(v)`` (plus v itself when the chain
    self-loops and `include_self` is set).  u itself is skipped -- a user's
    loss to themselves lies outside the pairwise model.
    """
    _check_pair(w, u, v)
    _require_gate(p)
    support = np.flatnonzero(w.w[v] > 0.0)
    candidates = [int(j) for j in support if j != v or (include_self and w.w[v, v] > 0.0)]
    candidates = [j for j in candidates if j != u]
    if not candidates:
        raise AccountantError(f"node {v} has no admissible predecessors besides {u}")
    return max(single_contribution_exact(w, u, j, p, mode=mode) for j in candidates)


def collusion_loss(
    w: TransitionMatrix,
    u: int,
    colluders: Iterable[int],
    p: PrivacyParams,
    composed: bool = False,
    mode: str = "spectral",
) -> float:
    """Loss of u toward a colluding set F that pools its views.

    Equals the sum of the single-contribution pairwise losses over F (the
    walk-length partition makes the bound additive over observers).  Pass
    ``composed=True`` to multiply by the contribution count N_u.
    """
    f = sorted(set(int(v) for v in colluders))
    if not f:
        raise AccountantError("colluder set must be non-empty")
    if u in f:
        raise AccountantError(f"node {u} cannot collude against itself")
    if not all(0 <= v < w.n for v in f):
        raise AccountantError("colluder ids outside node range")
    _require_gate(p)
    k = _privacy_kernel(w, p.steps, mode)
    numer = p.alpha * float(k[u, f].sum())
    if composed:
        numer *= p.n_contributions(w.n)
    return numer / p.sigma2


def local_dp_baseline(p: PrivacyParams, n: int) -> float:
    """Composed Gaussian-mechanism loss with every update public.

    ``N_u * alpha / (2 sigma2)``: no decentralization amplification, and no
    sigma2 gate (the plain Gaussian mechanism has none).
    """
    if n < 1:
        raise AccountantError(f"need n >= 1, got {n}")
    numer = p.alpha * p.n_contributions(n) / 2.0
    return numer / p.sigma2


# --------------------------------------------------------------------------- #
# Calibration
# --------------------------------------------------------------------------- #


def _calibrate_scaled(
    stat_base: float,
    target: DpPoint,
    alpha_grid: Sequence[float],
    gated: bool,
    statistic: Statistic,
    method: str,
) -> CalibrationResult:
    """Shared bisection: losses are ``alpha * stat_base / sigma2`` per alpha.

    For each sigma2 the achievable epsilon is the best conversion over the
    admissible alpha grid; that curve is non-increasing in sigma2 but jumps
    where the optimal alpha switches or a gate opens, so an exact hit may be
    impossible.  Targets inside such a gap get the conservative boundary
    (achieved epsilon just below target, `gap_limited` set).
    """
    if stat_base <= 0.0:
        raise CalibrationError(f"degenerate statistic {stat_base!r}; nothing to calibrate")
    alphas = sorted(set(float(a) for a in alpha_grid))
    if not alphas or alphas[0] <= 1.0:
        raise CalibrationError(f"invalid alpha grid {alpha_grid!r}")
    tail = {a: math.log(1.0 / target.delta) / (a - 1.0) for a in alphas}

    def admissible(sigma2: float) -> list[float]:
        if not gated:
            return alphas
        return [a for a in alphas if gate_sigma2(a) <= sigma2 * (1.0 + 1e-12)]

    def achieved(sigma2: float) -> tuple[float, float]:
        best_eps, best_alpha = math.inf, math.nan
        for a in admissible(sigma2):
            eps = (a * stat_base) / sigma2 + tail[a]
            if eps < best_eps:
                best_eps, best_alpha = eps, a
        return best_eps, best_alpha

    floor = min(tail.values())
    if target.epsilon <= floor:
        raise CalibrationError(
            f"target epsilon {target.epsilon} is below the conversion floor; "
            f"minimal feasible epsilon at delta={target.delta} is {floor:.6g}",
            min_feasible=floor,
        )
    lo = gate_sigma2(min(alphas)) if gated else 1e-12
    ceiling, _ = achieved(lo)
    if target.epsilon > ceiling:
        raise CalibrationError(
            f"target epsilon {target.epsilon} exceeds the maximum achievable "
            f"{ceiling:.6g} at the minimum admissible noise sigma2={lo:.6g}",
            max_feasible=ceiling,
        )

    hi = max(2.0 * lo, 1.0)
    for _ in range(200):
        if achieved(hi)[0] <= target.epsilon:
            break
        hi *= 2.0
    else:  # pragma: no cover - floor check above prevents this
        raise CalibrationError("failed to bracket the calibration target")
    # Invariant: achieved(lo) > target >= achieved(hi); shrink to the boundary.
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if achieved(mid)[0] <= target.epsilon:
            hi = mid
        else:
            lo = mid
    eps_star, alpha_star = achieved(hi)
    gap_limited = abs(eps_star - target.epsilon) > 1e-4 * target.epsilon
    return CalibrationResult(
        sigma2=hi,
        epsilon=eps_star,
        alpha=alpha_star,
        rdp_statistic=(alpha_star * stat_base) / hi,
        target=target,
        gap_limited=gap_limited,
        statistic=statistic,
        method=method,
    )


def calibrate_sigma(
    w: TransitionMatrix,
    p_template: PrivacyParams,
    target: DpPoint,
    statistic: Statistic = MEAN_PAIRS,
    *,
    dist: np.ndarray | None = None,
    method: str = "closed",
    mode: str = "spectral",
    alpha_grid: Sequence[float] = ALPHA_GRID,
) -> CalibrationResult:
    """Find sigma2 whose converted pairwise-loss statistic meets `target`.

    The statistic of the pairwise matrix factors as ``alpha * base / sigma2``
    with `base` independent of both, so the search is a scalar bisection; the
    Renyi order is re-selected from `alpha_grid` at every probe.  See
    :class:`CalibrationResult` for the gap semantics, and
    :class:`CalibrationError` for infeasible targets (carries the feasible
    bound).
    """
    n = w.n
    n_u = p_template.n_contributions(n)
    if method == "closed":
        if p_template.steps < 1:
            raise AccountantError("closed form requires steps >= 1")
        base = math.log(p_template.steps) / n - matrix_log_term(w)
    elif method == "exact":
        base = _privacy_kernel(w, p_template.steps, mode)
    else:
        raise AccountantError(f"method must be 'exact' or 'closed', got {method!r}")
    stat_base = n_u * statistic.apply(np.asarray(base), dist)
    return _calibrate_scaled(stat_base, target, alpha_grid, True, statistic, method)


def calibrate_sigma_local(
    p_template: PrivacyParams,
    target: DpPoint,
    n: int,
    *,
    contributions_override: float | None = None,
    alpha_grid: Sequence[float] = ALPHA_GRID,
) -> CalibrationResult:
    """Calibrate the no-amplification Gaussian baseline to `target`.

    The per-contribution loss is ``alpha / (2 sigma2)`` with no sigma2 gate,
    so the achievable curve is continuous and the target is always hit
    exactly (above the conversion floor).  `contributions_override` replaces
    the ``T/n`` composition count (used by the central baseline, which
    composes over rounds).
    """
    n_u = (
        float(contributions_override)
        if contributions_override is not None
        else p_template.n_contributions(n)
    )
    if n_u <= 0:
        raise CalibrationError("composition count must be positive")
    return _calibrate_scaled(
        n_u / 2.0, target, alpha_grid, False, Statistic("mean_pairs"), "local"
    )


# --------------------------------------------------------------------------- #
# Aggregation and persistence
# --------------------------------------------------------------------------- #


def mean_loss_by_distance(
    m: PairwiseLossMatrix | np.ndarray, dist: np.ndarray
) -> list[DistanceBucket]:
    """Mean/std/count of off-diagonal losses grouped by hop distance."""
    eps = m.eps if isinstance(m, PairwiseLossMatrix) else np.asarray(m)
    dist = np.asarray(dist)
    if eps.shape != dist.shape:
        raise AccountantError(
            f"shape mismatch: losses {eps.shape} vs distances {dist.shape}"
        )
    mask = ~np.eye(eps.shape[0], dtype=bool)
    # A stable sort keeps each distance's losses in row-major order, so every
    # group is the array `eps[mask & (dist == d)]` would give, in one pass.
    keys = dist[mask]
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], eps[mask][order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first).tolist()
    out: list[DistanceBucket] = []
    for lo, hi in zip(starts, starts[1:] + [keys.size]):
        group = vals[lo:hi]
        out.append(
            DistanceBucket(
                distance=int(keys[lo]),
                mean=float(np.mean(group)),
                std=float(np.std(group)),
                count=int(group.size),
            )
        )
    return out


def save_pairwise_csv(m: PairwiseLossMatrix, path: str | Path) -> None:
    """n x n CSV (NaN diagonal as empty cells) plus a JSON metadata sidecar."""
    path = Path(path)
    write_matrix_csv(path, m.eps, nan_as_empty=True)
    dump_json(
        path.with_suffix(path.suffix + ".json"),
        {
            "alpha": m.params.alpha,
            "sigma2": m.params.sigma2,
            "steps": m.params.steps,
            "contributions": m.params.contributions,
            "max_contributions": m.params.max_contributions,
            "method": m.method,
            "graph_hash": m.w_hash,
            "hash_version": HASH_VERSION,
        },
    )


def load_pairwise_csv(path: str | Path) -> np.ndarray:
    """Read back a pairwise CSV (empty cells become NaN)."""
    return read_matrix_csv(path, empty_as_nan=True)


def save_distance_series_csv(buckets: Sequence[DistanceBucket], path: str | Path) -> None:
    write_rows_csv(
        path,
        ["distance", "mean", "std", "count"],
        [(b.distance, b.mean, b.std, b.count) for b in buckets],
    )


def read_distance_series_csv(path: str | Path) -> list[DistanceBucket]:
    """Parse a (distance, mean[, std, count]) series; values are pass-through.

    External overlays may omit std/count columns; those default to 0.
    """
    path = Path(path)
    buckets: list[DistanceBucket] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "distance":
            raise AccountantError(f"{path}: expected a 'distance' first column")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) < 2:
                raise AccountantError(f"{path}:{lineno}: need at least distance,mean")
            try:
                buckets.append(
                    DistanceBucket(
                        distance=int(cells[0]),
                        mean=float(cells[1]),
                        std=float(cells[2]) if len(cells) > 2 else 0.0,
                        count=int(cells[3]) if len(cells) > 3 else 0,
                    )
                )
            except ValueError as exc:
                raise AccountantError(f"{path}:{lineno}: {exc}") from exc
    return buckets
