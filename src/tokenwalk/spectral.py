"""Spectral analysis of symmetric transition matrices.

Everything downstream of the eigendecomposition lives here: the one
evaluator of spectral functions, :meth:`SpectralDecomposition.apply`, which
forms ``sum_k f(lambda_k) phi_k phi_k^T``; the matrix logarithm
``ln(I - W + (1/n) 11^T)`` that drives the closed-form privacy accounting;
and spectral/empirical mixing-time estimates.

The decomposition is cached on the :class:`~tokenwalk.transition.TransitionMatrix`
instance, so repeated derived quantities pay for one ``eigh`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SpectralError
from .ioutil import write_rows_csv
from .transition import TransitionMatrix, stationary_distribution

__all__ = [
    "SpectralDecomposition",
    "SpectralGap",
    "decompose",
    "matrix_log_term",
    "spectral_gap",
    "mixing_time_spectral_bound",
    "mixing_time_empirical",
    "save_spectrum_csv",
]

_CACHE_KEY = "spectral_decomposition"

#: Degeneracy guard: a second eigenvalue this close to 1 means the chain is
#: disconnected (or numerically indistinguishable from it).  It guards the
#: precision of ``ln(1 - lambda_2)`` in the closed form: ``eigh`` resolves
#: lambda_2 to about 1e-16 absolute, so at ``1 - lambda_2 = 1e-10`` the log
#: already carries ~1e-6 absolute error.  It is deliberately looser than the
#: accountant's ``_UNIT_TOL``, which decides a different thing; tightening
#: this one would let noisier log terms through.
_UNIT_EIGENVALUE_TOL = 1e-10

_EMPIRICAL_MIXING_CAP = 10**6


# --------------------------------------------------------------------------- #
# Types
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real eigensystem of a symmetric matrix, eigenvalues descending.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    signs are canonicalized so the first nonzero component of each vector is
    positive, making results reproducible across eigensolvers.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_2(self) -> float:
        """Second-largest eigenvalue (equals lambda_1 for n=1)."""
        return float(self.eigenvalues[1]) if self.n > 1 else float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``sum_k values[k] phi_k phi_k^T``, symmetrised.

        ``values[k]`` is ``f(lambda_k)`` for the spectral function ``f``, so
        ``apply(eigenvalues)`` rebuilds the matrix and ``apply(f(eigenvalues))``
        is ``f(W)``.  The product is symmetric only up to rounding; averaging
        it with its transpose makes it exactly symmetric.
        """
        m = (self.eigenvectors * values) @ self.eigenvectors.T
        return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SpectralGap:
    """``1 - max(|lambda_2|, |lambda_n|)``, with the contributing eigenvalues."""

    lambda_w: float
    lambda_2: float
    lambda_n: float


# --------------------------------------------------------------------------- #
# Decomposition
# --------------------------------------------------------------------------- #


def decompose(tm: TransitionMatrix) -> SpectralDecomposition:
    """Eigendecompose a symmetric transition matrix (cached per instance)."""
    cached = tm._cache.get(_CACHE_KEY)
    if cached is not None:
        return cached
    if not tm.symmetric:
        raise SpectralError("decompose requires a symmetric transition matrix")
    try:
        vals, vecs = np.linalg.eigh(tm.w)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite input
        raise SpectralError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    # Canonical signs: first component of magnitude > 1e-12 made positive.
    big = np.abs(vecs) > 1e-12
    first = np.argmax(big, axis=0)
    cols = np.arange(vecs.shape[1])
    flip = big[first, cols] & (vecs[first, cols] < 0)
    vecs[:, flip] = -vecs[:, flip]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    dec = SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)
    tm._cache[_CACHE_KEY] = dec
    return dec


def _require_unit_top(tm: TransitionMatrix, dec: SpectralDecomposition, op: str) -> None:
    if not tm.bistochastic:
        raise SpectralError(f"{op} requires a bistochastic transition matrix")
    if abs(dec.eigenvalues[0] - 1.0) > 1e-8:
        raise SpectralError(
            f"{op}: leading eigenvalue {dec.eigenvalues[0]!r} is not 1 (invalid chain)"
        )
    if dec.n > 1 and dec.lambda_2 >= 1.0 - _UNIT_EIGENVALUE_TOL:
        raise SpectralError(
            f"{op}: second eigenvalue {dec.lambda_2!r} is numerically 1 "
            "(disconnected or degenerate chain)"
        )


# --------------------------------------------------------------------------- #
# Derived matrices
# --------------------------------------------------------------------------- #


def matrix_log_term(tm: TransitionMatrix) -> np.ndarray:
    """Matrix logarithm ``ln(I - W + (1/n) 11^T)``.

    Computed spectrally as ``sum_{k>=2} ln(1 - lambda_k) phi_k phi_k^T``; the
    unit-eigenvalue component is excluded by construction (its image under the
    argument has eigenvalue 1, contributing ln 1 = 0).  Uses ``log1p(-lambda)``
    for accuracy near small eigenvalues.
    """
    dec = decompose(tm)
    _require_unit_top(tm, dec, "matrix_log_term")
    # lambda_1 may round to just above 1, where log1p(-lambda_1) is NaN: its
    # entry is the constant 0, not a value computed and then overwritten.
    return dec.apply(np.concatenate(([0.0], np.log1p(-dec.eigenvalues[1:]))))


# --------------------------------------------------------------------------- #
# Mixing
# --------------------------------------------------------------------------- #


def spectral_gap(tm: TransitionMatrix) -> SpectralGap:
    """``1 - max(|lambda_2|, |lambda_n|)`` for a symmetric chain."""
    dec = decompose(tm)
    lam2 = dec.lambda_2 if dec.n > 1 else 1.0
    lamn = dec.lambda_min
    return SpectralGap(
        lambda_w=1.0 - max(abs(lam2), abs(lamn)), lambda_2=lam2, lambda_n=lamn
    )


def mixing_time_spectral_bound(tm: TransitionMatrix) -> int:
    """Relaxation-time bound ``ceil((1/lambda_w) * ln(1 / min_v pi_v))``."""
    gap = spectral_gap(tm)
    if gap.lambda_w <= 1e-12:
        raise SpectralError(
            f"zero spectral gap (lambda_2={gap.lambda_2!r}, lambda_n={gap.lambda_n!r}); "
            "the walk does not mix"
        )
    pi = stationary_distribution(tm)
    return int(math.ceil(math.log(1.0 / float(pi.min())) / gap.lambda_w))


def _max_tv_from_rows(p_t: np.ndarray, pi: np.ndarray) -> float:
    """Worst row-wise total-variation distance to `pi` (half L1)."""
    return float(0.5 * np.abs(p_t - pi[None, :]).sum(axis=1).max())


def mixing_time_empirical(tm: TransitionMatrix, iota: float) -> int:
    """Smallest ``t`` with ``max_v TV(W^t[v, :], pi) <= iota``.

    TV is half the L1 distance.  Worst-case distance to stationarity is
    non-increasing in ``t`` for any chain, so the threshold is located by
    squaring ``W`` repeatedly, then bisecting with the stored powers
    ``W^(2^j)``: at most about ``2 log2(10^6)`` products.  A chain still above
    `iota` when doubling passes 10^6 steps does not mix.
    """
    if not 0.0 < iota < 1.0:
        raise SpectralError(f"iota must be in (0, 1), got {iota}")
    pi = stationary_distribution(tm)
    n = tm.n
    if _max_tv_from_rows(np.eye(n), pi) <= iota:
        return 0

    powers = [tm.w]  # powers[j] = W^(2^j)
    while _max_tv_from_rows(powers[-1], pi) > iota:
        if 2 ** len(powers) > _EMPIRICAL_MIXING_CAP:
            raise SpectralError(f"no mixing within {_EMPIRICAL_MIXING_CAP} steps (iota={iota})")
        powers.append(powers[-1] @ powers[-1])
    if len(powers) == 1:
        return 1
    # W^lo is above iota and W^(2 lo) is not: add each lower power of two that
    # keeps the product above iota; the last such t is one short of the answer.
    lo, p_lo = 2 ** (len(powers) - 2), powers[-2]
    for j in range(len(powers) - 3, -1, -1):
        p_mid = p_lo @ powers[j]
        if _max_tv_from_rows(p_mid, pi) > iota:
            lo, p_lo = lo + 2**j, p_mid
    return lo + 1


# --------------------------------------------------------------------------- #
# Export
# --------------------------------------------------------------------------- #


def save_spectrum_csv(dec: SpectralDecomposition, path: str | Path) -> None:
    """Write (index, eigenvalue) rows, eigenvalues in descending order."""
    rows = [(k, float(v)) for k, v in enumerate(dec.eigenvalues)]
    write_rows_csv(path, ["index", "eigenvalue"], rows)
