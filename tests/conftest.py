"""Shared fixtures: canonical small chains used across the suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from oracles import from_array
from tokenwalk import graphs, transition

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def uniform_chain():
    """Complete graph with uniform self-loops: W = (1/n) 11^T."""

    def make(n: int) -> transition.TransitionMatrix:
        return from_array(np.full((n, n), 1.0 / n))

    return make


@pytest.fixture
def lazy_ring():
    """Ring walk with self-loop mass kappa (defaults to the 1/3 lazy walk)."""

    def make(n: int, kappa: float = 1.0 / 3.0) -> transition.TransitionMatrix:
        g = graphs.generate(graphs.GraphSpec(family="ring", n=n))
        return transition.with_self_loops(g, kappa)

    return make


@pytest.fixture
def two_state():
    """The 2-state chain [[3/4, 1/4], [1/4, 3/4]]: every quantity is hand-computable."""
    return from_array(np.array([[0.75, 0.25], [0.25, 0.75]]))


@pytest.fixture
def er_chain():
    """Hamilton chain on a moderate Erdos-Renyi graph (irregular degrees)."""
    g = graphs.generate(graphs.GraphSpec(family="erdos_renyi", n=24, q=0.3, seed=1))
    return transition.hamilton_weighting(g)


@pytest.fixture
def power_kernel():
    """The exact privacy kernel ``sum_{i=1}^{T} W^i / i`` by repeated dense
    multiplication: the oracle the spectral accountant is checked against."""

    def kernel(tm: transition.TransitionMatrix, steps: int) -> np.ndarray:
        k = np.zeros_like(tm.w)
        power = np.eye(tm.n)
        for i in range(1, steps + 1):
            power = power @ tm.w
            k += power / i
        return k

    return kernel


def _traced(fn, *args, **kwargs) -> tuple[int, int]:
    """(retained, peak) bytes allocated by ``fn(*args, **kwargs)``; its result
    is dropped before `retained` is read.  NumPy reports its array buffers to
    tracemalloc, so arrays count."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """Peak bytes allocated while ``fn(*args, **kwargs)`` runs."""
    return lambda fn, *args, **kwargs: _traced(fn, *args, **kwargs)[1]


@pytest.fixture
def traced_memory():
    """``(retained, peak)`` bytes of ``fn(*args, **kwargs)``; see :func:`_traced`."""
    return _traced
