"""Spectral analysis of symmetric, doubly stochastic transition matrices.

Every chain's stationary law is uniform, and its top eigenvalue is 1 with the
constant vector as eigenvector.  Everything downstream of the
eigendecomposition lives here: the one evaluator of spectral functions,
:meth:`SpectralDecomposition.apply`, which forms
``sum_k f(lambda_k) phi_k phi_k^T``; the matrix logarithm
``ln(I - W + (1/n) 11^T)`` that drives the closed-form privacy accounting;
and spectral/empirical mixing-time estimates.

The decomposition is cached on the :class:`~tokenwalk.transition.TransitionMatrix`
instance, so repeated derived quantities pay for one ``eigh`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpectralError
from .transition import TransitionMatrix

__all__ = [
    "SpectralDecomposition",
    "decompose",
    "matrix_log_spectrum",
    "matrix_log_term",
    "spectral_gap",
    "mixing_time_spectral_bound",
    "mixing_time_empirical",
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

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``,
    with the sign ``eigh`` gave it.  No reader depends on that sign: every
    product of two entries of one vector is the same for ``-phi_k``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_2(self) -> float:
        """Second-largest eigenvalue (graphs have n >= 2)."""
        return float(self.eigenvalues[1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``sum_k values[k] phi_k phi_k^T``, symmetrised.

        ``values[k]`` is ``f(lambda_k)`` for the spectral function ``f``, so
        ``apply(eigenvalues)`` rebuilds the matrix and ``apply(f(eigenvalues))``
        is ``f(W)``.  The product is symmetric only up to rounding; averaging
        it with its transpose makes it exactly symmetric.  The average is taken
        in place; NumPy buffers the overlapping ``m.T``, so it is bitwise
        ``0.5 * (m + m.T)``.
        """
        m = (self.eigenvectors * values) @ self.eigenvectors.T
        m += m.T
        m *= 0.5
        return m

    def offdiagonal_mean(self, values: np.ndarray) -> float:
        """Mean off-diagonal entry of ``apply(values)``, never forming it.

        With ``c = V^T 1`` the entries of ``sum_k values[k] phi_k phi_k^T`` sum
        to ``values . c^2`` and its trace is ``sum(values)``, so the n(n-1)
        off-diagonal entries average ``(values . c^2 - sum(values)) / (n(n-1))``.
        This is exact algebra for any symmetric matrix (substochastic chains
        included); no n x n matrix of the kernel is made.
        """
        n = self.n
        # NumPy adds the rows of a C-contiguous array one after another, and
        # ``V.sum(axis=0)`` drifts by up to ~n ulp: for the unit eigenvector of
        # complete n = 2048 it put ``c_1^2`` 8e-14 off n.  The rows of the
        # transposed copy are summed pairwise.
        c = np.ascontiguousarray(self.eigenvectors.T).sum(axis=1)
        return float((values @ (c * c) - values.sum()) / (n * (n - 1)))


# --------------------------------------------------------------------------- #
# Decomposition
# --------------------------------------------------------------------------- #


def decompose(tm: TransitionMatrix) -> SpectralDecomposition:
    """Eigendecompose a symmetric transition matrix (cached per instance)."""
    cached = tm._cache.get(_CACHE_KEY)
    if cached is not None:
        return cached
    try:
        vals, vecs = np.linalg.eigh(tm.w)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite input
        raise SpectralError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    vals.setflags(write=False)
    vecs.setflags(write=False)
    dec = SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)
    tm._cache[_CACHE_KEY] = dec
    return dec


def _require_unit_top(dec: SpectralDecomposition, op: str) -> None:
    top = float(dec.eigenvalues[0])
    if abs(top - 1.0) > 1e-8:
        raise SpectralError(f"{op}: leading eigenvalue {top!r} is not 1 (invalid chain)")
    if dec.lambda_2 >= 1.0 - _UNIT_EIGENVALUE_TOL:
        raise SpectralError(
            f"{op}: second eigenvalue {dec.lambda_2!r} is numerically 1 "
            "(disconnected or degenerate chain)"
        )


# --------------------------------------------------------------------------- #
# Derived matrices
# --------------------------------------------------------------------------- #


def matrix_log_spectrum(tm: TransitionMatrix) -> tuple[SpectralDecomposition, np.ndarray]:
    """The decomposition of `tm` and the eigenvalues of ``ln(I - W + (1/n) 11^T)``.

    Those are ``0`` for the unit eigenvalue (its image under the argument has
    eigenvalue 1, contributing ln 1 = 0) and ``log1p(-lambda_k)`` for k >= 2,
    accurate near small eigenvalues.  Pass them to
    :meth:`SpectralDecomposition.apply` for the matrix, or to
    :meth:`~SpectralDecomposition.offdiagonal_mean` for its mean pair.
    """
    dec = decompose(tm)
    _require_unit_top(dec, "matrix_log_term")
    # lambda_1 may round to just above 1, where log1p(-lambda_1) is NaN: its
    # entry is the constant 0, not a value computed and then overwritten.
    return dec, np.concatenate(([0.0], np.log1p(-dec.eigenvalues[1:])))


def matrix_log_term(tm: TransitionMatrix) -> np.ndarray:
    """Matrix logarithm ``ln(I - W + (1/n) 11^T)``.

    Computed spectrally as ``sum_{k>=2} ln(1 - lambda_k) phi_k phi_k^T`` from
    :func:`matrix_log_spectrum`.
    """
    dec, values = matrix_log_spectrum(tm)
    return dec.apply(values)


# --------------------------------------------------------------------------- #
# Mixing
# --------------------------------------------------------------------------- #


def spectral_gap(tm: TransitionMatrix) -> float:
    """The gap ``lambda_w = 1 - max(|lambda_2|, |lambda_n|)`` of a symmetric chain.

    Both eigenvalues are read off the cached :func:`decompose`.
    """
    dec = decompose(tm)
    return 1.0 - max(abs(dec.lambda_2), abs(dec.lambda_min))


def mixing_time_spectral_bound(tm: TransitionMatrix) -> int:
    """Relaxation-time bound ``ceil((1/lambda_w) * ln(1 / min_v pi_v))``.

    The stationary law is uniform, so ``min_v pi_v`` is ``1/n``.
    """
    gap = spectral_gap(tm)
    if gap <= 1e-12:
        dec = decompose(tm)
        raise SpectralError(
            f"zero spectral gap (lambda_2={dec.lambda_2!r}, lambda_n={dec.lambda_min!r}); "
            "the walk does not mix"
        )
    # 1 / (1/n), not n: the two differ in the last bit for some n (49 first).
    return int(math.ceil(math.log(1.0 / (1.0 / tm.n)) / gap))


def _max_tv_from_rows(p_t: np.ndarray, pi: np.ndarray) -> float:
    """Worst row-wise total-variation distance to `pi` (half L1)."""
    return float(0.5 * np.abs(p_t - pi[None, :]).sum(axis=1).max())


def mixing_time_empirical(tm: TransitionMatrix, iota: float) -> int:
    """Smallest ``t`` with ``max_v TV(W^t[v, :], pi) <= iota``, ``pi`` uniform.

    TV is half the L1 distance.  Worst-case distance to stationarity is
    non-increasing in ``t`` for any chain, so the threshold is located by
    squaring ``W`` repeatedly, then bisecting with the stored powers
    ``W^(2^j)``: at most about ``2 log2(10^6)`` products.  A chain still above
    `iota` when doubling passes 10^6 steps does not mix.
    """
    if not 0.0 < iota < 1.0:
        raise SpectralError(f"iota must be in (0, 1), got {iota}")
    n = tm.n
    pi = np.full(n, 1.0 / n)
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

