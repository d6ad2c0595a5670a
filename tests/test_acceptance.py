"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package on fixed
instances: agreement between independent computation paths, closed-form
bounds, structural invariants of the accounting, and reproducibility of
the simulation and optimization layers.  Tolerances are pinned; a failure
here means a real regression, not noise.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
from tokenwalk import accountant, datasets, graphs, optim, spectral, transition, walk

ALPHA = 2.0
SIGMA2 = 16.0


def _suite_chains():
    """Five transition chains spanning the supported graph families."""
    complete = transition.hamilton_weighting(
        graphs.generate(graphs.GraphSpec(family="complete", n=16))
    )
    ring = transition.with_self_loops(
        graphs.generate(graphs.GraphSpec(family="ring", n=16)), 1e-4
    )
    star = transition.blend_self_loops(
        transition.hamilton_weighting(graphs.generate(graphs.GraphSpec(family="star", n=16))),
        1e-4,
    )
    er = transition.hamilton_weighting(
        graphs.generate(graphs.GraphSpec(family="erdos_renyi", n=32, q=0.3, seed=7))
    )
    cube = transition.hamilton_weighting(
        graphs.generate(graphs.GraphSpec(family="hypercube", n=16))
    )
    return {"complete": complete, "ring": ring, "star": star, "er": er, "cube": cube}


def test_spectral_accounting_agrees_with_dense_powers(power_kernel):
    params = accountant.PrivacyParams(alpha=ALPHA, sigma2=SIGMA2, steps=2000)
    start = time.perf_counter()
    for name, tm in _suite_chains().items():
        oracle = (params.alpha / params.sigma2) * power_kernel(tm, params.steps)
        worst = 0.0
        for u in range(tm.n):
            for v in range(tm.n):
                if u == v:
                    continue
                got = oracles.single_contribution_exact(tm, u, v, params)
                worst = max(worst, abs(got - oracle[u, v]))
        assert worst <= 1e-9, f"{name}: spectral path drifts {worst:.2e} from power oracle"
    assert time.perf_counter() - start < 30.0


def test_uniform_chain_has_no_topology_term():
    steps = 1000
    params = accountant.PrivacyParams(alpha=ALPHA, sigma2=SIGMA2, steps=steps)
    for n in (4, 64, 512):
        tm = oracles.from_array(np.full((n, n), 1.0 / n))
        log_term = spectral.matrix_log_term(tm)
        assert float(np.max(np.abs(log_term))) <= 1e-10
        # with the topology term gone the loss is the pure log/n rate
        expected = ALPHA * math.log(steps) / (SIGMA2 * n)
        got = oracles.single_contribution_closed(tm, 0, 1, params)
        assert got == pytest.approx(expected, abs=1e-12)


def test_star_closed_form_bounds_exact_loss(power_kernel):
    # The closed form is the T -> infinity sum of the chain's power series;
    # its eigenvalues are below 0.36 in magnitude here, so at T = 10^4 the
    # dense-power sum has converged to rounding.
    steps = 10_000
    params = accountant.PrivacyParams(alpha=ALPHA, sigma2=32.0, steps=steps)
    for n in (9, 33):
        for kappa in (1.0 / steps**2, 0.3, 0.9):
            kernel = power_kernel(oracles.star_walk_matrix(n, kappa), steps)
            for u, v in [(1, 2), (0, 1)]:  # leaf<->leaf, then hub<->leaf
                exact = (params.alpha * float(kernel[u, v])) / params.sigma2
                closed = oracles.closed_form_star(n, u, v, params, kappa=kappa)
                assert exact <= closed * (1.0 + 1e-12), (n, kappa, u, v)
                assert closed - exact <= 1e-12 * closed, (n, kappa, u, v)
    reference = oracles.closed_form_star(
        5, 1, 2, accountant.PrivacyParams(alpha=2.0, sigma2=16.0, steps=steps)
    )
    assert reference == pytest.approx(0.00449503238205908, abs=1e-15)


def test_star_closed_form_matches_exact_kernel_at_paper_scale():
    n, steps = 1025, 262_144
    params = accountant.PrivacyParams(alpha=ALPHA, sigma2=SIGMA2, steps=steps)
    for kappa in (0.0, 1e-6, 0.3):
        ref = oracles.star_walk_matrix(n, kappa)
        for u, v in [(1, 2), (0, 1), (1024, 0), (512, 3)]:
            exact = oracles.single_contribution_exact(ref, u, v, params)
            closed = oracles.closed_form_star(n, u, v, params, kappa=kappa)
            assert abs(closed - exact) <= 2e-11 * closed, (kappa, u, v)


def test_ring_closed_form_bounds_exact_loss():
    steps = 10_000
    kappa = 1.0 / steps**2
    params = accountant.PrivacyParams(alpha=ALPHA, sigma2=SIGMA2, steps=steps)
    for n in (8, 16):
        g = graphs.generate(graphs.GraphSpec(family="ring", n=n))
        tm = transition.with_self_loops(g, kappa)
        for d in range(1, n // 2 + 1):
            exact = oracles.single_contribution_exact(tm, 0, d, params)
            closed = oracles.closed_form_ring(
                n, 0, d, params, variant="self_loop", kappa=kappa
            )
            assert closed >= exact - 1e-9, (n, d)
            assert closed - exact <= 1e-3, (n, d)
    # the equal-probability variant matches its own exact chain very tightly
    n, short_steps = 9, 2000
    short = accountant.PrivacyParams(alpha=ALPHA, sigma2=SIGMA2, steps=short_steps)
    tm = transition.with_self_loops(graphs.generate(graphs.GraphSpec(family="ring", n=n)), 1.0 / 3.0)
    for d in range(1, n // 2 + 1):
        exact = oracles.single_contribution_exact(tm, 0, d, short)
        closed = oracles.closed_form_ring(n, 0, d, short)
        assert closed >= exact - 1e-9
        assert closed - exact <= 1e-3
    # loss decays with hop distance on a larger ring, on both computation paths
    big = transition.with_self_loops(
        graphs.generate(graphs.GraphSpec(family="ring", n=64)), 1.0 / 3.0
    )
    eps = accountant.pairwise_matrix(big, short, method="exact")
    series = [eps[0, d] for d in range(1, 33)]
    assert all(a > b for a, b in zip(series, series[1:]))
    closed_series = [
        oracles.closed_form_ring(64, 0, d, short) for d in range(1, 33)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(closed_series, closed_series[1:]))


def test_accounting_scaling_identities(er_chain, power_kernel):
    params = accountant.PrivacyParams(alpha=ALPHA, sigma2=SIGMA2, steps=200)
    doubled = accountant.PrivacyParams(alpha=ALPHA, sigma2=2 * SIGMA2, steps=200)
    base = accountant.pairwise_matrix(er_chain, params, method="exact")
    half = accountant.pairwise_matrix(er_chain, doubled, method="exact")
    off = ~np.eye(er_chain.n, dtype=bool)
    assert np.array_equal(half[off], base[off] / 2.0)  # bitwise, not approx

    # loss grows with walk length
    losses = [
        accountant.pairwise_matrix(
            er_chain, accountant.PrivacyParams(alpha=ALPHA, sigma2=SIGMA2, steps=t),
            method="exact",
        )[0, 1]
        for t in (10, 100, 1000)
    ]
    assert losses[0] < losses[1] < losses[2]

    # the exact kernel is the privacy-weighted communicability sum_i W^i / i
    scale = ALPHA * params.n_contributions(er_chain.n) / SIGMA2
    expected = scale * power_kernel(er_chain, params.steps)
    assert float(np.max(np.abs(base[off] - expected[off]))) <= 1e-10


def test_decentralized_averaging_tracks_error_bound():
    n, steps = 32, 50_000
    start = time.perf_counter()
    g = graphs.generate(graphs.GraphSpec(family="ring", n=n))
    tm = transition.with_self_loops(g, 1.0 / 3.0)
    tau = spectral.mixing_time_empirical(tm, 0.25)
    norm_errors, raw_errors, bounds = [], [], []
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        values = rng.normal(size=n)
        obj = optim.AveragingObjective(values)
        cfg = optim.SgdConfig(
            steps=steps, seed=seed, sigma=0.0, clip_threshold=1e9, x0=100.0
        )
        rec = optim.run_rw_dpsgd(tm, obj, cfg, optim.token_path(tm, cfg))
        err = float(np.sum((rec.final_x - obj.optimum()) ** 2))
        raw_errors.append(err)
        norm_errors.append(err / float(np.var(values)))

        d0 = float((100.0 - values.mean()) ** 2)
        zeta = obj.heterogeneity()
        arg = steps * d0 * 4.0 / (3.0 * optim.THEOREM2_C * 2.0 * tau * zeta**2)
        gamma = min(0.5, math.log(arg) / (2.0 * steps))
        assert rec.gamma == pytest.approx(gamma, rel=1e-12)
        bounds.append(
            oracles.error_bound_theorem2(2.0, 2.0, steps, d0, tau, zeta, 1, 0.0, 1e9, 0.0)
        )
    assert max(norm_errors) < 1e-2  # within 1% of the data variance
    assert float(np.mean(raw_errors)) <= min(bounds)
    assert time.perf_counter() - start < 60.0


def test_private_rw_beats_local_on_regression():
    houses = datasets.find_houses_csv()
    n = 256
    if houses is not None:
        raw = datasets.load_csv(houses, label_column="median_house_value")
        data = datasets.preprocess(raw, n_users=n, seed=11)
    else:
        data = datasets.synth_linear(n_users=n, per_user=8, d=8, margin=0.3, seed=11)
    g = graphs.generate(graphs.GraphSpec(family="complete", n=n))
    tm = transition.hamilton_weighting(g)
    steps = 430 * n
    target = accountant.DpPoint(epsilon=1.0, delta=1e-6)

    cal_rw = accountant.calibrate_sigma(tm, steps, target, method="exact")
    cal_local = accountant.calibrate_sigma_local(steps, target, n)
    assert cal_rw.sigma2 < cal_local.sigma2  # amplification buys smaller noise

    obj = optim.LogisticObjective(data)
    common = dict(gamma=0.5, clip_threshold=1.0, seed=0)
    rw_cfg = optim.SgdConfig(steps=steps, sigma=math.sqrt(cal_rw.sigma2), **common)
    rec_rw = optim.run_rw_dpsgd(tm, obj, rw_cfg, optim.token_path(tm, rw_cfg))
    rec_local = optim.run_local_dpsgd(
        obj, optim.SgdConfig(steps=steps, sigma=math.sqrt(cal_local.sigma2), **common)
    )
    rec_central = optim.run_central_dpsgd(
        obj,
        # steps // n rounds compose like the T/n local contributions (n divides T)
        optim.SgdConfig(steps=steps // n, sigma=math.sqrt(cal_local.sigma2), **common),
    )
    acc_rw = obj.accuracy(rec_rw.final_x)
    acc_local = obj.accuracy(rec_local.final_x)
    acc_central = obj.accuracy(rec_central.final_x)

    assert acc_central >= acc_rw >= acc_local
    assert acc_rw - acc_local >= 0.03


def test_walk_statistics_match_chain_law():
    steps = 100_000
    chains = {
        "lazy_ring": transition.with_self_loops(
            graphs.generate(graphs.GraphSpec(family="ring", n=4)), 0.25
        ),
        "complete": transition.hamilton_weighting(
            graphs.generate(graphs.GraphSpec(family="complete", n=8))
        ),
    }
    for name, tm in chains.items():
        n = tm.n
        traj = walk.simulate(tm, 0, steps, 12345)
        counts = np.bincount(traj.nodes, minlength=n)
        freqs = counts / counts.sum()
        assert float(np.max(np.abs(freqs - 1.0 / n))) <= 3.0 / math.sqrt(steps), name

        power = np.eye(n)
        for lag in range(1, 6):
            power = power @ tm.w
            arrivals = np.zeros((n, n))
            departures = np.zeros(n)
            for t in range(len(traj.nodes) - lag):
                arrivals[traj.nodes[t], traj.nodes[t + lag]] += 1
                departures[traj.nodes[t]] += 1
            for u in range(n):
                for v in range(n):
                    p = power[u, v]
                    f = arrivals[u, v] / departures[u]
                    if p == 0.0:
                        assert f == 0.0, f"{name}: impossible {lag}-step move observed"
                    else:
                        margin = 3.0 * math.sqrt(p * (1 - p) / departures[u])
                        assert abs(f - p) <= margin, (name, lag, u, v)


def test_clustered_graph_separates_privacy_by_community():
    sizes = (75, 75, 50)
    g = graphs.generate(
        graphs.GraphSpec(
            family="sbm", seed=3, cluster_sizes=sizes,
            prob_matrix=((0.25, 0.05, 0.02), (0.05, 0.35, 0.07), (0.02, 0.07, 0.40)),
        )
    )
    tm = transition.hamilton_weighting(g)
    params = accountant.PrivacyParams(alpha=ALPHA, sigma2=SIGMA2, steps=2000)
    eps = accountant.pairwise_matrix(tm, params, method="exact")
    labels = np.repeat([0, 1, 2], sizes)
    off = ~np.eye(g.n, dtype=bool)
    for c in range(3):
        inside = (labels[:, None] == c) & (labels[None, :] == c) & off
        outside = (labels[:, None] == c) & (labels[None, :] != c)
        assert eps[inside].mean() > eps[outside].mean(), f"cluster {c}"


def test_calibrator_round_trips_its_own_output():
    point = accountant.rdp_to_dp(10.0, 0.5, 1e-6)
    assert point.epsilon == pytest.approx(2.0350567, abs=1e-4)

    steps = 2000
    target = accountant.DpPoint(epsilon=1.0, delta=1e-6)
    for name, tm in _suite_chains().items():
        res = accountant.calibrate_sigma(tm, steps, target, oracles.MAX_PAIRS, method="exact")
        p = accountant.PrivacyParams(alpha=res.alpha, sigma2=res.sigma2, steps=steps)
        matrix = accountant.pairwise_matrix(tm, p, method="exact")
        stat = oracles.MAX_PAIRS.apply(matrix)
        recovered = accountant.rdp_to_dp(res.alpha, stat, 1e-6)
        assert recovered.epsilon == pytest.approx(res.epsilon, rel=1e-4), name
        assert res.epsilon <= target.epsilon + 1e-9, name
