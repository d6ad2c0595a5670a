"""Simulator and Rényi privacy accountant for decentralized learning over random walks.

The package is organized around a single pipeline:

``graphs`` build a connected communication graph, ``transition`` turns it into a
symmetric bistochastic transition matrix, ``spectral`` provides the
eigendecomposition, the one evaluator of spectral functions ``f(W)``, and
derived quantities (matrix log term, spectral gap, mixing times),
``accountant`` computes pairwise Rényi privacy losses of the random-walk
protocol (exact sums, i.e. the privacy-weighted communicability, closed forms,
baselines, calibration),
``walk`` simulates token trajectories, ``optim`` runs the private random-walk
SGD algorithm and its local/central baselines, ``datasets`` loads and partitions
data, and ``cli`` exposes everything as a config-driven experiment runner.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import (  # noqa: F401
    accountant,
    datasets,
    graphs,
    optim,
    spectral,
    transition,
    walk,
)
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
