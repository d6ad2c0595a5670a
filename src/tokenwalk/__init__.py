"""Simulator and Rényi privacy accountant for decentralized learning over random walks.

The package is organized around a single pipeline:

``graphs`` build a connected communication graph, ``transition`` turns it into a
symmetric bistochastic transition matrix, ``spectral`` provides the
eigendecomposition, the one evaluator of spectral functions ``f(W)``, and
derived quantities (matrix log term, spectral gap, mixing times),
``accountant`` computes pairwise Rényi privacy losses of the random-walk
protocol (exact sums, i.e. the privacy-weighted communicability, the spectral
closed form, calibration),
``walk`` simulates token trajectories, ``optim`` runs the private random-walk
SGD algorithm and its local/central baselines, ``datasets`` loads and partitions
data, and ``cli`` exposes everything as a config-driven experiment runner.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AccountantError,
    CalibrationError,
    ConfigError,
    DataError,
    GraphError,
    SpectralError,
    TokenwalkError,
    TransitionError,
)

# Submodules load on first attribute access (PEP 562), so a command imports
# only the layers it runs.
_SUBMODULES = frozenset(
    {"accountant", "datasets", "graphs", "optim", "spectral", "transition", "walk"}
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        from importlib import import_module

        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SUBMODULES)
