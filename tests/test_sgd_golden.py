"""Golden runs: fixed-seed SGD runs and walks pinned bit for bit.

Every array a run returns (final iterate, traces), and the walk that a
random-walk run follows, is reduced to the SHA-256 of its little-endian
bytes, so any change to the arithmetic, to the order of random draws or to
the walk sampler shows up here.  The expected digests were recorded from the
per-step reference loops (one ``rng.integers`` / ``rng.normal`` call and one
``np.searchsorted`` per step) before the hot loops were rewritten.  The
single-sample case on unequal blocks, the singleton-node walk and the
mixed-clip central run were recorded from the per-call gradient code
(fancy-indexed ``(1, d)`` blocks, one ``gradient`` + ``clip`` call per node
of a central round) before the row-view and stacked evaluators replaced it.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from oracles import from_array
from tokenwalk import datasets, graphs, optim, transition, walk
from tokenwalk.optim import (
    AveragingObjective,
    LogisticObjective,
    SgdConfig,
    run_central_dpsgd,
    run_local_dpsgd,
    run_rw_dpsgd,
)
from tokenwalk.walk import simulate


def _digest(a: np.ndarray | None) -> str | None:
    if a is None:
        return None
    a = np.ascontiguousarray(a)
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()[:16]


def _record_digests(rec, nodes: np.ndarray | None) -> dict:
    out = {
        "final_x": _digest(rec.final_x),
        "ts": _digest(rec.ts),
        "objective": _digest(rec.objective),
        "sq_distance": _digest(rec.sq_distance),
        "accuracy": _digest(rec.accuracy),
        "gamma": float(rec.gamma).hex(),
    }
    if nodes is not None:
        out["nodes"] = _digest(nodes)
    return out


def _equal_blocks() -> tuple[transition.TransitionMatrix, LogisticObjective]:
    """Six nodes with eight training rows each."""
    ds = datasets.synth_linear(6, 8, d=5, margin=0.2, seed=3)
    g = graphs.generate(graphs.GraphSpec(family="complete", n=6))
    return transition.hamilton_weighting(g), LogisticObjective(ds)


def _unequal_blocks() -> LogisticObjective:
    """Seven nodes holding six or five training rows (40 rows split unevenly)."""
    rng = np.random.default_rng(11)
    raw = datasets.RawTable(
        features=rng.normal(size=(50, 4)),
        labels=rng.normal(size=50),
        feature_names=("a", "b", "c", "d"),
        label_name="y",
    )
    ds = datasets.preprocess(raw, n_users=7, seed=2)
    assert sorted({len(p) for p in ds.partition}) == [5, 6]
    return LogisticObjective(ds, reg=0.01)


def _singleton_block() -> tuple[transition.TransitionMatrix, LogisticObjective]:
    """Five nodes on a lazy ring; node 2 holds a single training row."""
    ds = datasets.synth_linear(5, 6, d=3, margin=0.1, seed=7)
    train = ds.train_indices
    cuts = np.cumsum([7, 8, 1, 6])
    ds = dataclasses.replace(ds, partition=tuple(np.split(train, cuts)))
    assert [len(p) for p in ds.partition] == [7, 8, 1, 6, 8]
    g = graphs.generate(graphs.GraphSpec(family="ring", n=5))
    return transition.with_self_loops(g, 0.5), LogisticObjective(ds, reg=0.02)


#: Clip threshold of "central-unequal-mixed-clip": between the smallest and the
#: largest norm of the seven full node gradients at x0 = 0.
MIXED_CLIP = 0.2


def _lazy_ring_averaging() -> tuple[transition.TransitionMatrix, AveragingObjective]:
    g = graphs.generate(graphs.GraphSpec(family="ring", n=9))
    values = np.random.default_rng(4).normal(size=(9, 3))
    return transition.with_self_loops(g, 1.0 / 3.0), AveragingObjective(values)


def _rw_run(tm, obj, cfg: SgdConfig):
    """An rw run and the walk it follows: the walk child of ``cfg.seed``."""
    nodes = simulate(tm, 0, cfg.steps, np.random.SeedSequence(cfg.seed).spawn(3)[0]).nodes
    return run_rw_dpsgd(tm, obj, cfg, nodes), nodes


def _run(case: str):
    """The run of `case`, and the walk it follows (None off the walk)."""
    logistic = dict(steps=600, gamma=0.1, sigma=0.7, clip_threshold=0.5, seed=5, trace_points=64)
    if case == "rw-equal-b1":
        tm, obj = _equal_blocks()
        return _rw_run(tm, obj, SgdConfig(**logistic))
    if case == "local-equal-b1":
        _, obj = _equal_blocks()
        return run_local_dpsgd(obj, SgdConfig(**logistic)), None
    if case == "central-equal":
        _, obj = _equal_blocks()
        return run_central_dpsgd(obj, SgdConfig(**dict(logistic, steps=40))), None
    if case == "central-unequal":
        obj = _unequal_blocks()
        return run_central_dpsgd(obj, SgdConfig(**dict(logistic, steps=30))), None
    if case == "local-unequal-b1":
        obj = _unequal_blocks()
        return run_local_dpsgd(obj, SgdConfig(**logistic)), None
    if case == "rw-singleton-b1":
        tm, obj = _singleton_block()
        return _rw_run(tm, obj, SgdConfig(**logistic))
    if case == "central-unequal-mixed-clip":
        obj = _unequal_blocks()
        cfg = dict(logistic, steps=30, clip_threshold=MIXED_CLIP)
        return run_central_dpsgd(obj, SgdConfig(**cfg)), None
    if case == "rw-averaging-lazy-ring":
        tm, obj = _lazy_ring_averaging()
        return _rw_run(tm, obj, SgdConfig(steps=500, sigma=0.4, clip_threshold=1.5, seed=12))
    if case == "local-averaging":
        _, obj = _lazy_ring_averaging()
        return run_local_dpsgd(obj, SgdConfig(steps=500, gamma=0.05, sigma=0.4, seed=12)), None
    if case == "central-averaging":
        _, obj = _lazy_ring_averaging()
        return run_central_dpsgd(obj, SgdConfig(steps=60, gamma=0.2, sigma=0.9, seed=12)), None
    raise AssertionError(case)


GOLDEN: dict[str, dict] = {
    "rw-equal-b1": {
        "final_x": "da12f1a7ba1182c5",
        "ts": "bb3377b43dc0792f",
        "objective": "ced925740cd1f68a",
        "sq_distance": None,
        "accuracy": "81e7e76407f73032",
        "gamma": "0x1.999999999999ap-4",
        "nodes": "81a7dc64ba645163",
    },
    "local-equal-b1": {
        "final_x": "a25546e29b2f0db0",
        "ts": "bb3377b43dc0792f",
        "objective": "142989cb30ddad85",
        "sq_distance": None,
        "accuracy": "81e7e76407f73032",
        "gamma": "0x1.999999999999ap-4",
    },
    "central-equal": {
        "final_x": "74e0ef478f001e4b",
        "ts": "dc56578ae9f1cb6e",
        "objective": "4b1eaf278280b5db",
        "sq_distance": None,
        "accuracy": "cd8e32fe25fc1e3d",
        "gamma": "0x1.999999999999ap-4",
    },
    "central-unequal": {
        "final_x": "015cf30e420a586c",
        "ts": "3a769b546b52d0c3",
        "objective": "08a3f31d50120f3e",
        "sq_distance": None,
        "accuracy": "c70067ec88084452",
        "gamma": "0x1.999999999999ap-4",
    },
    "local-unequal-b1": {
        "final_x": "96555fb3b753e524",
        "ts": "bb3377b43dc0792f",
        "objective": "de78fdc7f1eaf482",
        "sq_distance": None,
        "accuracy": "0665beb1e94947ae",
        "gamma": "0x1.999999999999ap-4",
    },
    "rw-singleton-b1": {
        "final_x": "5faa12277ec3608b",
        "ts": "bb3377b43dc0792f",
        "objective": "5a055f16541d9101",
        "sq_distance": None,
        "accuracy": "ab47896a063e15cb",
        "gamma": "0x1.999999999999ap-4",
        "nodes": "e573b26a492d031b",
    },
    "central-unequal-mixed-clip": {
        "final_x": "dd9d2b5644fc0529",
        "ts": "3a769b546b52d0c3",
        "objective": "40a3b3c1c0a96a79",
        "sq_distance": None,
        "accuracy": "1a2154cd0fd5643b",
        "gamma": "0x1.999999999999ap-4",
    },
    "rw-averaging-lazy-ring": {
        "final_x": "f9aa2ed5d5621e5f",
        "ts": "6c0fa99e682ba28a",
        "objective": "f1fe7abbc4cfdba7",
        "sq_distance": "bd680ae125c6e1cf",
        "accuracy": None,
        "gamma": "0x1.0000000000000p-1",
        "nodes": "c85820c93bd4da07",
    },
    "local-averaging": {
        "final_x": "391b09101e375048",
        "ts": "6c0fa99e682ba28a",
        "objective": "b88c534345c4a1dc",
        "sq_distance": "39026e31277e4e46",
        "accuracy": None,
        "gamma": "0x1.999999999999ap-5",
    },
    "central-averaging": {
        "final_x": "8664d4e9996c7e8a",
        "ts": "cc789dacd7efe555",
        "objective": "55cfb9eeb7f0320d",
        "sq_distance": "e1588b63eea9f793",
        "accuracy": None,
        "gamma": "0x1.999999999999ap-3",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_is_bitwise_golden(case):
    assert _record_digests(*_run(case)) == GOLDEN[case]


#: Draw blocks that split runs and walks at other steps than the default
#: sizes: 1 draws per step, 3 is smaller than most runs' d, and 7 divides no
#: run's T (600, 500, 60, 40, 30), no walk's 20 000 and no trace stride.
SMALL_BLOCKS = [1, 3, 7]


@pytest.fixture(params=SMALL_BLOCKS)
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(optim, "_STEP_BLOCK", request.param)
    monkeypatch.setattr(walk, "_UNIFORM_BLOCK", request.param)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_digests_hold_at_any_block_size(case, small_blocks):
    test_run_is_bitwise_golden(case)


def test_golden_fixtures_exercise_their_branches():
    """The singleton node takes its one row between sampled steps on larger
    blocks; the mixed-clip threshold clips some node gradients at x0 and not
    others."""
    _, nodes = _run("rw-singleton-b1")
    visits = nodes[:-1]
    assert 0 < np.count_nonzero(visits == 2) < visits.size

    obj = _unequal_blocks()
    norms = np.linalg.norm(obj.node_gradients(np.zeros(obj.dim)), axis=1)
    assert norms.shape == (7,)
    assert min(norms) < MIXED_CLIP < max(norms)


def _walk(case: str):
    if case == "er-hamilton":
        g = graphs.generate(graphs.GraphSpec(family="erdos_renyi", n=40, q=0.15, seed=6))
        return simulate(transition.hamilton_weighting(g), 7, 20_000, 99)
    if case == "complete-spawned-seed":
        g = graphs.generate(graphs.GraphSpec(family="complete", n=64))
        seed = np.random.SeedSequence(5).spawn(3)[0]
        return simulate(transition.hamilton_weighting(g), 0, 20_000, seed)
    if case == "nonsymmetric-zero-last-column":
        w = np.random.default_rng(1).random((12, 12))
        w[:, -1] = 0.0
        w[w < 0.4] = 0.0
        w[np.arange(12), np.arange(12)] += 0.05
        w /= w.sum(axis=1, keepdims=True)
        return simulate(from_array(w), 11, 20_000, 3)
    raise AssertionError(case)


WALK_GOLDEN: dict[str, str] = {
    "er-hamilton": "dcf54704b98542c1",
    "complete-spawned-seed": "5b22a53d6f549ca8",
    "nonsymmetric-zero-last-column": "15da45ca9f46e3d8",
}


@pytest.mark.parametrize("case", sorted(WALK_GOLDEN))
def test_walk_is_bitwise_golden(case):
    assert _digest(_walk(case).nodes) == WALK_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(WALK_GOLDEN))
def test_walk_digests_hold_at_any_block_size(case, small_blocks):
    test_walk_is_bitwise_golden(case)
