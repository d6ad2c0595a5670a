"""Exception hierarchy shared by all modules.

Each class carries the exit code of a CLI run that it ends and the label that
starts that run's stderr line (``label: message``):

- ``ConfigError``, ``GraphError``, ``TransitionError``: 2, ``config error``;
- ``AccountantError``, ``SpectralError``: 3, ``accounting error``;
- ``DataError``: 4, ``data error``;
- ``CalibrationError``: 5, ``calibration infeasible``;
- ``TokenwalkError`` itself: 1, ``error``.
"""

from __future__ import annotations

__all__ = [
    "TokenwalkError",
    "GraphError",
    "TransitionError",
    "SpectralError",
    "AccountantError",
    "CalibrationError",
    "DataError",
    "ConfigError",
]


class TokenwalkError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, label = 1, "error"


class GraphError(TokenwalkError):
    """Invalid graph input or generation failure (e.g. connectivity retries
    exhausted, malformed edge list)."""

    exit_code, label = 2, "config error"


class TransitionError(TokenwalkError):
    """Transition-matrix construction or validation problem."""

    exit_code, label = 2, "config error"


class SpectralError(TokenwalkError):
    """Eigendecomposition preconditions violated (asymmetric input, degenerate
    spectral gap, solver failure)."""

    exit_code, label = 3, "accounting error"


class AccountantError(TokenwalkError):
    """Privacy-accounting precondition violated (noise below the weak-convexity
    gate, self-pair request, parameter out of range)."""

    exit_code, label = 3, "accounting error"


class CalibrationError(AccountantError):
    """Noise calibration target is not achievable; carries the feasible range."""

    exit_code, label = 5, "calibration infeasible"

    def __init__(
        self,
        message: str,
        *,
        min_feasible: float | None = None,
        max_feasible: float | None = None,
    ) -> None:
        super().__init__(message)
        self.min_feasible = min_feasible
        self.max_feasible = max_feasible


class DataError(TokenwalkError):
    """Dataset loading or preprocessing problem."""

    exit_code, label = 4, "data error"


class ConfigError(TokenwalkError):
    """Invalid experiment configuration (unknown keys, bad schema, bad flag)."""

    exit_code, label = 2, "config error"
