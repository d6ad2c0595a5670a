"""Pairwise Renyi privacy accounting for token random walks.

Implements the per-pair privacy loss of a noisy token walk: a node's
contribution is protected by every noisy update inserted between it and an
observer, which decays the order-``alpha`` Renyi divergence like
``alpha / (2 sigma^2 i)`` after ``i`` intermediate steps.  Summing over walk
lengths and weighting by arrival probabilities gives the exact finite-sum
loss; its spectral closed form, (epsilon, delta) conversion, and noise
calibration all build on the same kernel.  The star and ring formulas and
the baseline without amplification (the referee of
:func:`calibrate_sigma_local`) are independent references that only the
tests read; they live in ``tests/oracles.py``.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _gauss_legendre
from .errors import AccountantError, CalibrationError
from .spectral import SpectralDecomposition, decompose, matrix_log_spectrum
from .transition import TransitionMatrix

__all__ = [
    "ALPHA_GRID",
    "PrivacyParams",
    "DpPoint",
    "DistanceBucket",
    "STATISTICS",
    "Statistic",
    "MEAN_PAIRS",
    "mean_at_distance",
    "CalibrationResult",
    "harmonic_number",
    "gate_sigma2",
    "pairwise_matrix",
    "rdp_to_dp",
    "calibrate_sigma",
    "calibrate_sigma_local",
    "mean_loss_by_distance",
]

#: Renyi orders tried by the calibrator (the best converted epsilon wins).
ALPHA_GRID = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: The kinds of :class:`Statistic`, as ``calibrate --statistic`` also names them.
STATISTICS = ("mean_pairs", "max_pairs", "mean_at_distance")

_EULER_GAMMA = float(np.euler_gamma)
_HARMONIC_DIRECT_MAX = 256

#: Eigenvalues within this distance of +-1 are treated as exactly +-1: the
#: kernel takes ``H_T`` (or ``H_{T//2} - H_T``) instead of quadrature.  It
#: only has to absorb ``eigh``'s rounding of exact unit eigenvalues (a few
#: ulp); the quadrature is accurate up to ``|lambda|`` within 1e-11 of 1.
#: Replacing ``S_T(1 - d)`` by ``H_T`` errs by about ``T d``, so a looser value
#: adds error of order ``T * _UNIT_TOL``.  This is not the spectral module's
#: ``_UNIT_EIGENVALUE_TOL``, which rejects near-disconnected chains.
_UNIT_TOL = 1e-12

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
        ``sigma2`` times the squared clip threshold.
    steps : int
        Total walk length T; each node is accounted over its expected ``T/n``
        contributions.
    """

    alpha: float
    sigma2: float
    steps: int

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise AccountantError(f"alpha must be > 1, got {self.alpha}")
        if not self.sigma2 > 0.0:
            raise AccountantError(f"sigma2 must be positive, got {self.sigma2}")
        _require_steps(self.steps)

    def n_contributions(self, n: int) -> float:
        """Composition count ``N_u = T/n`` on an n-node graph (a real number)."""
        return self.steps / n


def _require_steps(steps: int) -> None:
    if steps < 0:
        raise AccountantError(f"steps must be nonnegative, got {steps}")


@dataclass(frozen=True)
class DpPoint:
    """A single (epsilon, delta) differential-privacy guarantee."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise AccountantError(f"delta must be in (0, 1), got {self.delta}")
        if not self.epsilon >= 0.0:
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

    kind: str  # one of STATISTICS
    distance: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STATISTICS:
            raise AccountantError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "mean_at_distance" and self.distance is None:
            raise AccountantError("mean_at_distance requires a distance")

    def apply(self, matrix: np.ndarray, dist: np.ndarray | None = None) -> float:
        """The statistic over the off-diagonal cells of `matrix`.

        Reads them through :func:`_offdiagonal_view`, so no n x n mask is
        formed; the mean is bitwise that of ``matrix[~np.eye(n, dtype=bool)]``.
        """
        cells = _offdiagonal_view(np.asarray(matrix))
        if self.kind == "mean_pairs":
            return float(np.mean(np.ravel(cells)))
        if self.kind == "max_pairs":
            return float(np.max(cells))
        return float(np.mean(cells[self._pairs(dist, np.shape(matrix))]))

    def _pairs(self, dist: np.ndarray | None, shape: tuple) -> np.ndarray:
        """The mask over :func:`_offdiagonal_view` of the pairs `dist` puts at
        ``self.distance``, for losses of `shape`; none is an error."""
        if dist is None:
            raise AccountantError("mean_at_distance requires a hop-distance matrix")
        if np.shape(dist) != shape:
            raise AccountantError(f"shape mismatch: losses {shape} vs distances {np.shape(dist)}")
        sel = _offdiagonal_view(np.asarray(dist)) == self.distance
        if not np.any(sel):
            raise AccountantError(f"no pairs at hop distance {self.distance}")
        return sel


def _offdiagonal_view(m: np.ndarray) -> np.ndarray:
    """The off-diagonal cells of a square array as an (n-1, n) array, row-major.

    Between the diagonal cells ``i (n+1)`` and ``(i+1)(n+1)`` of the flat array
    lie exactly the n off-diagonal cells of row i's tail and row i+1's head, so
    dropping the first flat cell and the last column of an ``(n-1, n+1)``
    reshape leaves every off-diagonal cell once, in row-major order.  A view,
    unless `m` is not C-contiguous.
    """
    n = m.shape[0]
    return np.ascontiguousarray(m).reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


MEAN_PAIRS = Statistic("mean_pairs")


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
    gap_limited: bool


# --------------------------------------------------------------------------- #
# Scalar building blocks
# --------------------------------------------------------------------------- #


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


# --------------------------------------------------------------------------- #
# The walk-length kernel  K_uv = sum_{i=1}^{T} (W^i)_uv / i
# --------------------------------------------------------------------------- #


@functools.cache
def _quadrature_rule() -> tuple[np.ndarray, np.ndarray]:
    """256-node Gauss-Legendre nodes and weights on [0, 1] (parsed on first use)."""
    return tuple(
        np.array([float.fromhex(h) for h in table.split()])
        for table in (_gauss_legendre.NODES, _gauss_legendre.WEIGHTS)
    )


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


def _kernel_spectrum(
    w: TransitionMatrix, steps: int, method: str
) -> tuple[SpectralDecomposition, np.ndarray, float]:
    """The one map from `method` to a privacy kernel, ``shift + dec.apply(values)``.

    ``"exact"`` is ``sum_{i=1}^{T} W^i / i``, the privacy-weighted
    communicability, from harmonic power sums with no shift; ``"closed"`` its
    closed form ``ln(T) / n - ln(I - W + (1/n) 11^T)``, the T -> infinity
    limit on the non-unit eigenspace.  Neither has the ``alpha / sigma2``.
    """
    if method == "exact":
        dec = decompose(w)
        return dec, _harmonic_power_sums(dec.eigenvalues, steps), 0.0
    if method != "closed":
        raise AccountantError(f"method must be 'exact' or 'closed', got {method!r}")
    if steps < 1:
        raise AccountantError("closed form requires steps >= 1")
    dec, log_values = matrix_log_spectrum(w)
    # -x and c + (-x) are exact, so this is bitwise c - ln(...).
    return dec, -log_values, math.log(steps) / w.n


def _kernel(w: TransitionMatrix, steps: int, method: str) -> np.ndarray:
    """A new n x n array holding the kernel of :func:`_kernel_spectrum`.

    A negative off-diagonal cell of the closed form is no loss bound (T is too
    short for its T -> infinity limit), so it raises :class:`AccountantError`.
    """
    dec, values, shift = _kernel_spectrum(w, steps, method)
    k = dec.apply(values)
    k += shift
    if method == "closed":
        low = float(np.min(_offdiagonal_view(k), initial=0.0))
        if low < 0.0:
            raise AccountantError(
                f"the closed form gives a negative loss kernel ({low}) at T = {steps}, "
                "too few steps for its T -> infinity limit; use --method exact"
            )
    return k


# --------------------------------------------------------------------------- #
# Pairwise losses
# --------------------------------------------------------------------------- #


def pairwise_matrix(
    w: TransitionMatrix, p: PrivacyParams, method: str = "closed"
) -> np.ndarray:
    """All-pairs composed losses ``N_u * single(u, v)``: a read-only n x n array, NaN diagonal.

    Cell ``[u, v]`` bounds what node v's view reveals about node u's data, in
    Renyi units at ``p.alpha``, composed over u's contributions.
    ``method="exact"`` uses the finite-sum kernel, the privacy-weighted
    communicability ``sum_{i<=T} alpha W^i / (sigma2 i)``; ``"closed"`` the
    spectral closed form built on its untruncated limit.  Cells are
    independent, deterministic and formed with the division by sigma2 last,
    so rescaling the noise rescales the whole matrix exactly.  The kernel is
    formed afresh and scaled in place, and no kernel is cached on `w`; the
    spectral decomposition it is built from, n x n eigenvectors included, is.
    A caller that needs only the matrix should let `w` go once this returns,
    so that W and its eigenvectors do not stay alive beside the result.
    """
    _require_gate(p)
    eps = _kernel(w, p.steps, method)
    eps *= p.alpha * p.n_contributions(w.n)
    eps /= p.sigma2
    np.fill_diagonal(eps, np.nan)
    eps.setflags(write=False)
    return eps


# --------------------------------------------------------------------------- #
# Calibration
# --------------------------------------------------------------------------- #


def _calibrate_scaled(stat_base: float, target: DpPoint, gated: bool) -> CalibrationResult:
    """Shared bisection: losses are ``alpha * stat_base / sigma2`` per alpha.

    For each sigma2 the achievable epsilon is the best conversion over the
    admissible alpha grid; that curve is non-increasing in sigma2 but jumps
    where the optimal alpha switches or a gate opens, so an exact hit may be
    impossible.  Targets inside such a gap get the conservative boundary
    (achieved epsilon just below target, `gap_limited` set).
    """
    if stat_base <= 0.0:
        raise CalibrationError(f"degenerate statistic {stat_base!r}; nothing to calibrate")
    tail = {a: rdp_to_dp(a, 0.0, target.delta).epsilon for a in ALPHA_GRID}

    def admissible(sigma2: float) -> Sequence[float]:
        if not gated:
            return ALPHA_GRID
        return [a for a in ALPHA_GRID if gate_sigma2(a) <= sigma2 * (1.0 + 1e-12)]

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
    lo = gate_sigma2(min(ALPHA_GRID)) if gated else 1e-12
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
        gap_limited=gap_limited,
    )


def calibrate_sigma(
    w: TransitionMatrix,
    steps: int,
    target: DpPoint,
    statistic: Statistic = MEAN_PAIRS,
    *,
    dist: np.ndarray | None = None,
    method: str = "closed",
) -> CalibrationResult:
    """Find sigma2 whose converted pairwise-loss statistic meets `target` for
    a walk of `steps` (T) on `w`.

    The statistic of the pairwise matrix factors as ``alpha * base / sigma2``
    with `base` independent of both, so the search is a scalar bisection; the
    Renyi order is re-selected from :data:`ALPHA_GRID` at every probe.  See
    :class:`CalibrationResult` for the gap semantics, and
    :class:`CalibrationError` for infeasible targets (carries the feasible
    bound).

    :data:`MEAN_PAIRS` (the CLI default) never forms the n x n kernel: its
    mean pair is read off the eigendecomposition by
    :meth:`SpectralDecomposition.offdiagonal_mean`.  The other statistics
    take the max or a mean of the full kernel of :func:`_kernel`; `dist` is
    checked before the eigensolve, and its mask is not held across it.
    """
    _require_steps(steps)
    if statistic.kind == "mean_at_distance":
        statistic._pairs(dist, (w.n, w.n))
    if statistic.kind == "mean_pairs":
        dec, values, shift = _kernel_spectrum(w, steps, method)
        stat = shift + dec.offdiagonal_mean(values)
    else:
        stat = statistic.apply(_kernel(w, steps, method), dist)
    n_u = steps / w.n  # as PrivacyParams.n_contributions
    return _calibrate_scaled(n_u * stat, target, True)


def calibrate_sigma_local(steps: int, target: DpPoint, n: int) -> CalibrationResult:
    """Calibrate the no-amplification Gaussian baseline of a walk of `steps`
    (T) on `n` nodes to `target`.

    The per-contribution loss is ``alpha / (2 sigma2)`` with no sigma2 gate,
    so the achievable curve is continuous and the target is always hit
    exactly (above the conversion floor).  It composes over ``T/n``
    contributions, which is also the round count of the central baseline
    when n divides T.
    """
    _require_steps(steps)
    n_u = steps / n
    if n_u <= 0:
        raise CalibrationError("composition count must be positive")
    return _calibrate_scaled(n_u / 2.0, target, False)


# --------------------------------------------------------------------------- #
# Aggregation and persistence
# --------------------------------------------------------------------------- #


def mean_loss_by_distance(eps: np.ndarray, dist: np.ndarray) -> list[DistanceBucket]:
    """Mean/std/count of off-diagonal losses grouped by integer hop distance.

    `eps` is a square loss array such as :func:`pairwise_matrix` returns (its
    diagonal is skipped) and `dist` the hop distances, of the same shape.

    Memory beyond the inputs stays within about ``2.2 n^2`` doubles for an
    n x n matrix, whatever the grouping (``2.0 n^2`` measured at n = 512): a
    narrow sort key per cell (one byte while the distances take at most 255
    values), which ``np.bincount`` widens once to count the groups; one int64
    sort index per cell; then the off-diagonal losses in group order, which
    ``np.std`` may copy once.  No n x n mask is formed.
    """
    eps = np.asarray(eps)
    dist = np.asarray(dist)
    if eps.shape != dist.shape:
        raise AccountantError(
            f"shape mismatch: losses {eps.shape} vs distances {dist.shape}"
        )
    if dist.dtype.kind not in "iu":
        raise AccountantError(f"hop distances must be integers, got dtype {dist.dtype}")
    n = eps.shape[0]
    if n < 2:
        return []
    # Key 0 marks the diagonal and distance d gets key d - lo + 1, so a stable
    # sort puts the diagonal first and keeps each distance's losses in
    # row-major order: every group is the array `eps[offdiag & (dist == d)]`.
    lo = int(dist.min())
    keys = np.empty(dist.size, dtype=np.min_scalar_type(int(dist.max()) - lo + 1))
    np.subtract(dist.reshape(-1), lo - 1, out=keys, dtype=np.int64, casting="unsafe")
    keys[:: n + 1] = 0
    counts = np.bincount(keys)
    counts[0] = 0
    order = np.argsort(keys, kind="stable")  # a radix sort on 8- and 16-bit keys
    del keys
    vals = eps.reshape(-1)[order[n:]]
    del order
    out: list[DistanceBucket] = []
    start = 0
    for key in np.flatnonzero(counts).tolist():
        group = vals[start : start + counts[key]]
        start += group.size
        out.append(
            DistanceBucket(
                distance=key + lo - 1,
                mean=float(np.mean(group)),
                std=float(np.std(group)),
                count=int(group.size),
            )
        )
    return out

