"""Descent loops: clipping, tuned step sizes, bounds, baselines."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import error_bound_theorem2
from tokenwalk import cli, optim
from tokenwalk.datasets import RawTable, preprocess, synth_linear
from tokenwalk.errors import ConfigError
from tokenwalk.graphs import GraphSpec, generate
from tokenwalk.optim import (
    THEOREM2_C,
    AveragingObjective,
    LogisticObjective,
    SgdConfig,
    clip,
    run_central_dpsgd,
    run_local_dpsgd,
    run_rw_dpsgd,
    step_size_theorem2,
    token_path,
)
from tokenwalk.transition import hamilton_weighting
from tokenwalk.walk import simulate


# --------------------------------------------------------------------------- #
# Clipping
# --------------------------------------------------------------------------- #


def test_clip_hand_values():
    g = np.array([3.0, 4.0])
    clipped = clip(g, 1.0)
    assert np.allclose(clipped, [0.6, 0.8])
    assert np.array_equal(clip(g, 10.0), g)  # inside the ball: untouched
    with pytest.raises(ConfigError):
        clip(g, 0.0)


@given(
    arrays(np.float64, 3, elements=st.floats(-100, 100)),
    st.floats(min_value=0.01, max_value=10.0),
)
def test_clip_properties(g, delta):
    out = clip(g, delta)
    assert np.linalg.norm(out) <= delta * (1 + 1e-12)
    # bit for bit what the np.linalg.norm formulation gives
    norm = float(np.linalg.norm(g))
    assert out.tobytes() == (g if norm <= delta else g * (delta / norm)).tobytes()
    # direction is preserved: the output is a nonnegative multiple of g
    if np.linalg.norm(g) > 0:
        cos = float(g @ out)
        assert cos >= 0.0


# --------------------------------------------------------------------------- #
# Analysis formulas
# --------------------------------------------------------------------------- #


def test_step_size_hand_value():
    # L = mu = 2, T = 1000, d0 = 100, tau = 3, zeta = 4
    arg = 1000 * 100 * 4.0 / (3.0 * THEOREM2_C * 2.0 * 3.0 * 16.0)
    expected = min(0.5, math.log(arg) / 2000.0)
    got = step_size_theorem2(2.0, 2.0, 1000, 100.0, 3.0, 4.0)
    assert got == expected
    assert got < 0.5  # log branch active for these numbers


def test_step_size_fallbacks():
    assert step_size_theorem2(2.0, 2.0, 1000, 100.0, 3.0, 0.0) == 0.5
    # huge heterogeneity drives the log argument below 1
    assert step_size_theorem2(2.0, 2.0, 10, 1.0, 3.0, 1e6) == 0.5
    with pytest.raises(ConfigError):
        step_size_theorem2(0.0, 2.0, 10, 1.0, 3.0, 1.0)


def test_error_bound_hand_recompute():
    l, mu, t, d0, tau, zeta = 2.0, 2.0, 1000, 100.0, 3.0, 4.0
    dim, sigma, delta, sigma_sgd = 2, 0.5, 1.0, 0.1
    got = error_bound_theorem2(l, mu, t, d0, tau, zeta, dim, sigma, delta, sigma_sgd)
    log_factor = math.log(t * mu**2 * d0 / (39.0 * l * tau * zeta**2))
    expected = (
        2.0 * math.exp(-t * mu / l) * d0
        + (
            39.0 * tau * zeta**2 * l / (mu**3 * t)
            + (dim * sigma**2 * delta**2 + sigma_sgd**2) * l / (mu**2 * t)
        )
        * log_factor
    )
    assert got == pytest.approx(expected, rel=1e-14)


def test_error_bound_clamps():
    # tiny T drives the log argument below 1: the factor clamps to 0,
    # leaving only the contraction term
    small = error_bound_theorem2(2.0, 2.0, 2, 1.0, 5.0, 10.0, 1, 0.0, 1.0, 0.0)
    assert small == pytest.approx(2.0 * math.exp(-2.0) * 1.0, rel=1e-12)
    # zero heterogeneity switches the factor to ln T
    zero_het = error_bound_theorem2(2.0, 2.0, 100, 1.0, 5.0, 0.0, 1, 1.0, 1.0, 0.0)
    noise = 1.0 * 2.0 / (4.0 * 100.0)
    assert zero_het == pytest.approx(
        2.0 * math.exp(-100.0) * 1.0 + noise * math.log(100.0), rel=1e-12
    )


# --------------------------------------------------------------------------- #
# Objectives
# --------------------------------------------------------------------------- #


def test_averaging_objective_formulas():
    obj = AveragingObjective(np.array([1.0, 3.0, 5.0, 7.0]))
    assert obj.n_nodes == 4 and obj.dim == 1
    assert obj.smoothness == 2.0 and obj.strong_convexity == 2.0
    assert np.array_equal(obj.optimum(), [4.0])
    assert obj.heterogeneity() == 6.0  # 2 * max|mean - y_v|
    x = np.array([2.0])
    assert np.array_equal(obj.gradient(1, x, 0), [-2.0])
    # mean of ||x - y_v||^2 at x = 2: (1 + 1 + 9 + 25) / 4
    assert obj.objective_value(x) == 9.0
    assert obj.accuracy(x) is None


def test_averaging_objective_vector_values():
    vals = np.array([[0.0, 0.0], [2.0, 4.0]])
    obj = AveragingObjective(vals)
    assert obj.dim == 2
    assert np.array_equal(obj.optimum(), [1.0, 2.0])
    assert obj.heterogeneity() == pytest.approx(2.0 * math.sqrt(5.0))
    with pytest.raises(ConfigError):
        AveragingObjective(np.zeros((2, 2, 2)))


def test_logistic_gradient_matches_finite_differences():
    ds = synth_linear(6, 10, d=4, margin=0.2, seed=3)
    obj = LogisticObjective(ds, reg=0.05)
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)

    def local_value(node: int, point: np.ndarray) -> float:
        feats, labels = obj._blocks[node]
        margins = labels * (feats @ point)
        return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * obj.reg * (point @ point))

    grads = obj.node_gradients(x)  # full local batches
    for node in (0, 3, 5):
        full = grads[node]
        h = 1e-6
        numeric = np.zeros(4)
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            numeric[k] = (local_value(node, x + e) - local_value(node, x - e)) / (2 * h)
        assert np.allclose(full, numeric, atol=1e-6)


def test_logistic_minibatch_unbiased_in_expectation():
    # a uniformly sampled row's gradient averages, over the node's rows, to the full one
    ds = synth_linear(2, 40, d=3, margin=0.2, seed=1)
    obj = LogisticObjective(ds)
    x = np.array([0.1, -0.2, 0.3])
    full = obj.node_gradients(x)[0]
    m = int(obj.local_sizes[0])
    mean = np.mean([obj.gradient(0, x, r) for r in range(m)], axis=0)
    assert np.allclose(mean, full, rtol=1e-12, atol=1e-15)


def test_scalar_expit_matches_scipy_bitwise():
    special = pytest.importorskip("scipy.special")  # the referee, in tests only
    rng = np.random.default_rng(7)
    sweep = [rng.normal(size=20_000) * scale for scale in (0.1, 1.0, 10.0, 100.0, 300.0)]
    edges = np.array([709.78, 709.79, 709.8, 710.0, 744.4, 745.0, 745.2, 746.0, 1e308, np.inf])
    z = np.concatenate(sweep + [edges, -edges, [0.0, -0.0, 5e-324, -5e-324]])
    ours = np.array([optim._expit(v) for v in z.tolist()])
    assert ours.tobytes() == special.expit(z).tobytes()


@pytest.mark.parametrize("overflowing", [[], [709.79], [709.79, 1e308, np.inf]],
                         ids=["in-range", "one-overflowing-row", "several-overflowing-rows"])
def test_vector_expit_matches_scalar_expit_bitwise(overflowing):
    # e^m overflows past m = 709.78: math.exp raises there, and the rows fall
    # back to _expit, whose sigmoid is 0.
    edges = [0.0, -0.0, 30.0, -30.0, 709.0, -709.0, 709.78, -709.78, -709.79, -1e308, -np.inf]
    rng = np.random.default_rng(13)
    margins = np.concatenate([rng.normal(size=4000) * 10.0, edges, overflowing])
    ref = np.array([optim._expit(-m) for m in margins.tolist()])
    assert optim._expit_negated(margins).tobytes() == ref.tobytes()
    stacked = margins[-43 * 93:].reshape(43, 93)  # node_gradients' (n_g, m) margins
    assert optim._expit_negated(stacked).tobytes() == ref[-43 * 93:].tobytes()


class _RecordingObjective:
    """Records each single-sample gradient call; zero gradients, x never moves."""

    # 3 * 2**30 rejects a quarter of raw draws, exercising the retry path
    local_sizes = np.array([1, 3, 5, 6, 1, 8, 100, 3 * 2**30, 2**32 - 5])
    n_nodes, dim, smoothness, strong_convexity = len(local_sizes), 1, 1.0, 1.0

    def __init__(self):
        self.calls = []

    def gradient(self, node, x, row):
        self.calls.append((node, row))
        return np.zeros(1)

    def node_gradients(self, x):
        return np.zeros((self.n_nodes, 1))

    def objective_value(self, x):
        return 0.0

    def optimum(self):
        return None

    def heterogeneity(self):
        return None

    def accuracy(self, x):
        return None


def test_block_drawn_rows_match_per_call_draws():
    obj = _RecordingObjective()
    assert isinstance(obj, optim.Objective)
    run_local_dpsgd(obj, SgdConfig(steps=3000, gamma=0.1, seed=9))
    assert len(obj.calls) == 3000
    rng = np.random.default_rng(np.random.SeedSequence(9).spawn(3)[2])  # the rows stream
    for node, got in obj.calls:
        m = int(obj.local_sizes[node])
        assert type(got) is int
        if m == 1:  # a single-row node takes row 0 and consumes no draw
            assert got == 0
        else:
            assert got == rng.integers(0, m, size=1)[0]


@pytest.mark.parametrize("block", [1, 3, 7])
def test_block_drawn_rows_match_at_any_block_size(block, monkeypatch):
    monkeypatch.setattr(optim, "_STEP_BLOCK", block)
    test_block_drawn_rows_match_per_call_draws()


def _reference_block_gradient(feats, labels, x, reg):
    """The per-call logistic gradient over a 2-D block of rows."""
    margins = labels * (feats @ x)
    weights = -labels * np.array([optim._expit(-m) for m in margins.tolist()])
    return feats.T @ weights / feats.shape[0] + reg * x


@pytest.mark.parametrize("d", [1, 3, 8, 13])
def test_single_sample_gradient_matches_block_form(d):
    ds = synth_linear(4, 6, d=d, margin=0.1, seed=d)
    obj = LogisticObjective(ds, reg=0.03)
    rng = np.random.default_rng(d)
    for scale in (0.01, 1.0, 30.0, 800.0):  # 800: margins past exp's range saturate
        x = rng.normal(size=d) * scale
        for v, idx in enumerate(ds.partition):
            for r in range(len(idx)):
                row = idx[[r]]  # the (1, d) block of sample r
                ref = _reference_block_gradient(ds.features[row], ds.labels[row], x, 0.03)
                assert obj.gradient(v, x, r).tobytes() == ref.tobytes()


def _mixed_size_objective():
    """Nine nodes holding 1 to 6 training rows, so the stacked pass has five groups."""
    rng = np.random.default_rng(5)
    raw = RawTable(features=rng.normal(size=(40, 4)), labels=rng.normal(size=40),
                   feature_names=("a", "b", "c", "d"), label_name="y")
    ds = preprocess(raw, n_users=1, seed=1)
    sizes = [3, 1, 5, 6, 1, 4, 6, 3, 3]
    parts = np.split(ds.train_indices[: sum(sizes)], np.cumsum(sizes)[:-1])
    ds = dataclasses.replace(ds, partition=tuple(parts))
    return ds, LogisticObjective(ds, reg=0.05)


def test_stacked_central_step_matches_per_node_loop():
    ds, obj = _mixed_size_objective()
    rng = np.random.default_rng(3)
    for scale in (0.0, 0.5, 5.0, 800.0):
        x = rng.normal(size=obj.dim) * scale
        grads = obj.node_gradients(x)
        assert grads.shape == (9, obj.dim)
        refs = [_reference_block_gradient(ds.features[idx], ds.labels[idx], x, 0.05)
                for idx in ds.partition]
        for v, ref in enumerate(refs):
            assert grads[v].tobytes() == ref.tobytes()
        norms = np.linalg.norm(grads, axis=1)
        delta = float(np.median(norms))
        assert norms.min() < delta < norms.max()  # some rows clipped, some not
        ref = clip(refs[0], delta)
        for v in range(1, obj.n_nodes):
            ref = ref + clip(refs[v], delta)
        assert optim._clipped_sum(grads, delta).tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim", [1, 3])
def test_averaging_stacked_round_matches_per_node_loop(dim):
    # dim 1: a (n, 1) sum over axis 0 would be pairwise, not in node order
    rng = np.random.default_rng(dim)
    obj = AveragingObjective(rng.normal(size=(256, dim)) * 10.0 ** rng.uniform(-3, 3, size=(256, 1)))
    x = rng.normal(size=dim)
    stacked = obj.node_gradients(x)
    for v in range(256):
        assert stacked[v].tobytes() == obj.gradient(v, x, 0).tobytes()
    delta = float(np.median(np.linalg.norm(stacked, axis=1)))
    ref = clip(obj.gradient(0, x, 0), delta)
    for v in range(1, 256):
        ref = ref + clip(obj.gradient(v, x, 0), delta)
    assert optim._clipped_sum(stacked, delta).tobytes() == ref.tobytes()


def test_logistic_accuracy_on_separable_data():
    ds = synth_linear(8, 20, d=4, margin=0.5, seed=2)
    obj = LogisticObjective(ds)
    # sanity: some direction classifies well above chance after a few steps
    cfg = SgdConfig(steps=2000, gamma=0.5, seed=0)
    rec = run_local_dpsgd(obj, cfg)
    assert rec.accuracy is not None
    assert rec.accuracy[-1] >= 0.9


def test_sgd_config_validation():
    with pytest.raises(ConfigError, match="steps"):
        SgdConfig(steps=-1)
    with pytest.raises(ConfigError, match="gamma"):
        SgdConfig(steps=10, gamma=-0.5)
    with pytest.raises(ConfigError, match="sigma"):
        SgdConfig(steps=10, sigma=-1.0)
    with pytest.raises(ConfigError, match="clip_threshold"):
        SgdConfig(steps=10, clip_threshold=0.0)
    # NaN fails `sigma < 0` and the loop's `noise_std > 0` alike: only a range test keeps it from a noiseless run.
    for field in ("sigma", "gamma", "clip_threshold"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                SgdConfig(steps=1, **{field: value})


# --------------------------------------------------------------------------- #
# Run loops
# --------------------------------------------------------------------------- #


def _ring_setup(n=8, seed=4):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    from tokenwalk.graphs import GraphSpec, generate
    from tokenwalk.transition import with_self_loops

    tm = with_self_loops(generate(GraphSpec(family="ring", n=n)), 1.0 / 3.0)
    return tm, AveragingObjective(values)


def _rw(tm, obj, cfg):
    """A walk run along its own seed's path."""
    return run_rw_dpsgd(tm, obj, cfg, token_path(tm, cfg))


def test_rw_run_bitwise_deterministic():
    tm, obj = _ring_setup()
    cfg = SgdConfig(steps=400, gamma=0.05, sigma=0.3, clip_threshold=2.0, seed=9)
    a = _rw(tm, obj, cfg)
    b = _rw(tm, obj, cfg)
    assert np.array_equal(a.final_x, b.final_x)
    assert np.array_equal(a.objective, b.objective)


def test_rw_schedule_is_the_spawned_walk():
    tm, obj = _ring_setup()
    cfg = SgdConfig(steps=200, gamma=0.05, seed=31)
    rec = _rw(tm, obj, cfg)
    nodes = simulate(tm, 0, 200, np.random.SeedSequence(31).spawn(3)[0]).nodes
    assert np.array_equal(token_path(tm, cfg), nodes)
    followed = optim._descent_loop(obj, cfg, nodes[:-1], "rw_dpsgd", tm)
    assert np.array_equal(rec.final_x, followed.final_x)
    assert np.array_equal(rec.objective, followed.objective)


def test_non_private_rw_converges_to_mean():
    tm, obj = _ring_setup()
    # huge clip threshold: non-private runs should not truncate gradients
    cfg = SgdConfig(steps=20_000, gamma=None, x0=10.0, seed=1, clip_threshold=1e9)
    rec = _rw(tm, obj, cfg)
    assert rec.sq_distance[-1] <= 1e-2 * float(np.var(obj.values))
    # the automatic step size came from the strongly convex analysis
    assert 0 < rec.gamma <= 0.5


def test_local_baseline_runs_and_differs():
    tm, obj = _ring_setup()
    cfg = SgdConfig(steps=300, gamma=0.05, seed=6)
    rw = _rw(tm, obj, cfg)
    local = run_local_dpsgd(obj, cfg)
    assert local.algorithm == "local_dpsgd"
    assert not np.array_equal(rw.final_x, local.final_x)


def test_central_converges_fast():
    _, obj = _ring_setup()
    cfg = SgdConfig(steps=200, gamma=0.25, clip_threshold=1e9)
    rec = run_central_dpsgd(obj, cfg)
    assert rec.algorithm == "central_dpsgd"
    assert rec.sq_distance[-1] <= 1e-10
    # with sigma > 0, per-round noise std shrinks with n: still lands close
    noisy = run_central_dpsgd(obj, SgdConfig(steps=200, gamma=0.25, sigma=0.5))
    assert noisy.sq_distance[-1] <= 5e-2


def test_node_count_mismatch_rejected():
    tm, _ = _ring_setup(8)
    other = AveragingObjective(np.zeros(5))
    cfg = SgdConfig(steps=10)
    with pytest.raises(ConfigError, match="nodes"):
        run_rw_dpsgd(tm, other, cfg, token_path(tm, cfg))
    obj = AveragingObjective(np.zeros(8))
    with pytest.raises(ConfigError, match="follows 11 nodes"):  # a path of another run's length
        run_rw_dpsgd(tm, obj, cfg, token_path(tm, SgdConfig(steps=9)))


def test_trace_recording_shape():
    tm, obj = _ring_setup()
    cfg = SgdConfig(steps=1000, gamma=0.05, trace_points=10)
    rec = _rw(tm, obj, cfg)
    assert rec.stride == 100
    assert rec.ts[0] == 0 and rec.ts[-1] == 1000
    assert len(rec.ts) == len(rec.objective) == len(rec.sq_distance)


@pytest.mark.parametrize("algorithm", ["rw", "local"])
def test_run_memory_grows_by_the_node_path_alone(algorithm, traced_peak):
    """A walk or local run holds its int64 node schedule (8 B per step) and one
    block of sampled rows and noise; nothing else grows with T.  The shorter
    run is one full block of the walk's uniforms, so both hold full blocks."""
    n = 16
    obj = LogisticObjective(synth_linear(n, 8, d=8, margin=0.3, seed=1))
    tm = hamilton_weighting(generate(GraphSpec(family="complete", n=n)))

    def run(steps):
        cfg = SgdConfig(steps=steps, gamma=0.1, sigma=1.0, seed=2, trace_points=64)
        return _rw(tm, obj, cfg) if algorithm == "rw" else run_local_dpsgd(obj, cfg)

    run(1)  # caches the chain hash
    small, large = 2**12, 2**14
    assert traced_peak(run, large) - traced_peak(run, small) <= 16 * (large - small)


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #


def test_save_run_csv(tmp_path):
    tm, obj = _ring_setup()
    rec = _rw(tm, obj, SgdConfig(steps=100, gamma=0.05, trace_points=5))
    path = tmp_path / "run.csv"
    cli._write_run(cli._Manifest(tmp_path, "sgd", {}, []), path, rec)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["t", "objective", "sq_distance"]
    assert len(lines) == 1 + len(rec.ts)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(rec.objective[0])
    meta = json.loads((tmp_path / "run.csv.json").read_text())
    assert meta["algorithm"] == "rw_dpsgd"
    assert meta["stride"] == rec.stride
    assert meta["gamma"] == rec.gamma
