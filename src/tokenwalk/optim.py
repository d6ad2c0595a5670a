"""Token-walk DP-SGD and its baselines.

The private walk: at each step the visiting node computes a stochastic
gradient of its local objective, clips it to the sensitivity ``delta``, adds
per-coordinate Gaussian noise of variance ``delta**2 * sigma**2``, applies the
step, and forwards the token along the transition matrix.  Local DP-SGD runs
the same update with an i.i.d. uniform node schedule; central DP-SGD averages
all clipped node gradients per round under a trusted aggregator, with a single
noise draw scaled down by ``1/n``.  All three are one loop, `_descent_loop`:
the walk and local DP-SGD feed it one node and one sampled row per step, and
a central round evaluates every node's full gradient in one stacked pass.

Step sizes can be given explicitly or derived from the strongly convex
convergence analysis (`step_size_theorem2`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .datasets import Dataset
from .errors import ConfigError
from .spectral import mixing_time_empirical, mixing_time_spectral_bound
from .transition import TransitionMatrix
from .walk import simulate

__all__ = [
    "Objective",
    "AveragingObjective",
    "LogisticObjective",
    "SgdConfig",
    "RunRecord",
    "clip",
    "step_size_theorem2",
    "token_path",
    "run_rw_dpsgd",
    "run_local_dpsgd",
    "run_central_dpsgd",
]

#: Appendix-constant of the strongly convex analysis; 3 * gamma * L * C = 39 gamma L.
THEOREM2_C = 13.0

#: Steps whose sampled rows and noise are drawn at once; 64 KiB of noise at d = 8.
_STEP_BLOCK = 1024


# --------------------------------------------------------------------------- #
# Objectives
# --------------------------------------------------------------------------- #


@runtime_checkable
class Objective(Protocol):
    """Node-decomposed objective ``f = (1/n) sum_v f_v``.

    `gradient` is a single-sample step: the gradient of one local sample,
    `row` (an ``int`` below the node's `local_sizes` entry).  `node_gradients`
    is the only full-block evaluator: every node's gradient over all of its
    samples at once, as a central round takes them.
    """

    n_nodes: int
    dim: int
    smoothness: float
    strong_convexity: float
    #: Samples held by each node; a sampled row indexes into a node's samples.
    local_sizes: np.ndarray

    def gradient(self, node: int, x: np.ndarray, row: int) -> np.ndarray:
        """Gradient of ``f_node`` at `x` on the node's local sample `row`."""
        ...

    def node_gradients(self, x: np.ndarray) -> np.ndarray:
        """Full local gradients of all nodes at `x`, stacked ``(n_nodes, dim)``."""
        ...

    def objective_value(self, x: np.ndarray) -> float: ...

    def optimum(self) -> np.ndarray | None: ...

    def heterogeneity(self) -> float | None: ...

    def accuracy(self, x: np.ndarray) -> float | None: ...


class AveragingObjective:
    """Quadratic consensus: ``f_v(x) = ||x - y_v||^2``; optimum is the mean.

    Smoothness and strong convexity are both exactly 2, and the gradient
    heterogeneity at the optimum is computable in closed form, which makes
    this the reference objective for step-size and bound checks.
    """

    def __init__(self, values: np.ndarray):
        raw = np.asarray(values, dtype=float)
        if raw.ndim == 1:  # n scalars become (n, 1)
            raw = raw[:, None]
        if raw.ndim != 2 or raw.shape[0] < 1:
            raise ConfigError(f"values must be (n,) or (n, d), got shape {raw.shape}")
        self.values = raw
        self.n_nodes = raw.shape[0]
        self.dim = raw.shape[1]
        self.smoothness = 2.0
        self.strong_convexity = 2.0
        self.local_sizes = np.ones(self.n_nodes, dtype=np.int64)
        self._mean = raw.mean(axis=0)

    def gradient(self, node, x, row):
        return 2.0 * (x - self.values[node])

    def node_gradients(self, x):
        return 2.0 * (x - self.values)

    def objective_value(self, x):
        return float(np.mean(np.sum((x[None, :] - self.values) ** 2, axis=1)))

    def optimum(self):
        return self._mean.copy()

    def heterogeneity(self):
        return float(2.0 * np.max(np.linalg.norm(self._mean[None, :] - self.values, axis=1)))

    def accuracy(self, x):
        return None


class LogisticObjective:
    """L2-regularized logistic regression over a partitioned dataset.

    ``f_v(x) = mean over v's samples of log(1 + exp(-y a.x)) + (reg/2)||x||^2``.
    Rows are unit-norm after preprocessing, so smoothness is ``1/4 + reg``.

    Nodes holding the same number of samples share one ``(n_g, m, d)``
    feature stack, and each node's block is a view into it, so a central
    round costs one stacked pass per block size.
    """

    def __init__(self, dataset: Dataset, reg: float = 0.0):
        if reg < 0:
            raise ConfigError(f"regularization must be nonnegative, got {reg}")
        self.local_sizes = np.array([len(idx) for idx in dataset.partition], dtype=np.int64)
        self.n_nodes = len(self.local_sizes)
        self._groups = []  # (nodes, features (n_g, m, d), labels (n_g, m)) per block size m
        self._blocks = [None] * self.n_nodes
        for m in sorted(set(self.local_sizes.tolist())):  # np.unique's SIMD sort pages in ~1 MB
            nodes = np.flatnonzero(self.local_sizes == m)
            idx = np.array([dataset.partition[v] for v in nodes.tolist()], dtype=np.int64)
            feats, labels = dataset.features[idx], dataset.labels[idx]
            self._groups.append((nodes, feats, labels))
            for j, v in enumerate(nodes.tolist()):
                self._blocks[v] = (feats[j], labels[j])
        self.dim = dataset.features.shape[1]
        self.reg = reg
        self.smoothness = 0.25 + reg
        self.strong_convexity = reg
        train = dataset.train_indices
        self._train = (dataset.features[train], dataset.labels[train])
        test = dataset.test_indices
        self._test = (dataset.features[test], dataset.labels[test])

    def gradient(self, node, x, row):
        # One sample on a row view: bit for bit the arithmetic of its (1, d) block.
        feats, labels = self._blocks[node]
        a, y = feats[row], labels[row]
        return a * (-y * _expit(-(y * a.dot(x)))) + self.reg * x

    def node_gradients(self, x):
        # Stacked matmuls run one gemv per node block; one flat
        # (sum m_v, d) @ x product would not be bit for bit the same.
        out = np.empty((self.n_nodes, self.dim))
        for nodes, feats, labels in self._groups:
            margins = labels * np.matmul(feats, x)
            weights = -labels * _expit_negated(margins).reshape(margins.shape)
            grads = np.matmul(feats.transpose(0, 2, 1), weights[..., None])[..., 0]
            out[nodes] = grads / feats.shape[1] + self.reg * x
        return out

    def objective_value(self, x):
        feats, labels = self._train
        margins = labels * (feats @ x)
        return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * self.reg * (x @ x))

    def optimum(self):
        return None

    def heterogeneity(self):
        return None

    def accuracy(self, x):
        feats, labels = self._test
        if feats.shape[0] == 0:
            return None
        pred = np.where(feats @ x >= 0.0, 1.0, -1.0)
        return float(np.mean(pred == labels))


# --------------------------------------------------------------------------- #
# Configuration and results
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SgdConfig:
    """Knobs for one optimization run.

    ``gamma=None`` derives the step size from the strongly convex analysis
    (`step_size_theorem2`), which needs an initial distance: ``||x0 - x*||^2``
    when the optimum is known, else the ``||x0||^2 + 1`` heuristic.  ``sigma``
    is the noise multiplier (0 for non-private runs); per-coordinate noise std
    is ``clip_threshold * sigma``.  Every coordinate of the starting point is
    ``x0``.
    """

    steps: int
    gamma: float | None = None
    sigma: float = 0.0
    clip_threshold: float = 1.0
    seed: int = 0
    x0: float = 0.0
    trace_points: int = 512

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigError(f"steps must be nonnegative, got {self.steps}")
        if self.gamma is not None and not 0.0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if not 0.0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if not 0.0 < self.clip_threshold < math.inf:
            raise ConfigError(f"clip_threshold must be finite and positive, got {self.clip_threshold}")


@dataclass(frozen=True)
class RunRecord:
    """Traces of one run, subsampled every `stride` steps (plus the last)."""

    algorithm: str
    ts: np.ndarray
    objective: np.ndarray
    sq_distance: np.ndarray | None
    accuracy: np.ndarray | None
    final_x: np.ndarray
    gamma: float
    stride: int
    wall_clock: float


# --------------------------------------------------------------------------- #
# Analysis formulas
# --------------------------------------------------------------------------- #


def _expit(z: float) -> float:
    """Logistic sigmoid ``1 / (1 + e^-z)``: scipy.special.expit's expression
    and C library ``exp``, so bit for bit the same without scipy's ~0.3 s import."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # e^-z beyond the double range: the sigmoid is 0
        return 0.0


def _expit_negated(margins: np.ndarray) -> np.ndarray:
    """``_expit(-m)`` for every margin, flat, bit for bit: C library ``exp``
    per margin (``np.exp`` differs in the last ulp), then NumPy's add and
    divide, which round as Python's float operators do."""
    flat = margins.ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, flat), float, len(flat))
    except OverflowError:  # some margin past ~709.78: per row, where that sigmoid is 0
        return np.array([_expit(-m) for m in flat])
    return 1.0 / (1.0 + e)


def clip(g: np.ndarray, delta: float) -> np.ndarray:
    """Rescale `g` onto the L2 ball of radius `delta` (no-op inside it)."""
    if not delta > 0.0:
        raise ConfigError(f"clip threshold must be positive, got {delta}")
    flat = g.ravel()
    norm = math.sqrt(flat.dot(flat))  # np.linalg.norm's formula, minus its overhead
    if norm <= delta:
        return g
    return g * (delta / norm)


def step_size_theorem2(
    l_smooth: float, mu: float, steps: int, dist0: float, tau_mix: float, zeta_star: float
) -> float:
    """Strongly convex step size ``min(1/L, ln(T d0 mu^2 / (39 L tau z^2)) / (T mu))``.

    Falls back to ``1/L`` when the log branch is undefined (zero
    heterogeneity) or non-positive (the target contraction is already met).
    """
    if min(l_smooth, mu, steps, dist0, tau_mix) <= 0:
        raise ConfigError("step_size_theorem2 requires positive L, mu, T, dist0, tau_mix")
    inv_l = 1.0 / l_smooth
    if zeta_star <= 0.0:
        return inv_l
    arg = steps * dist0 * mu**2 / (3.0 * THEOREM2_C * l_smooth * tau_mix * zeta_star**2)
    if arg <= 1.0:
        return inv_l
    return min(inv_l, math.log(arg) / (steps * mu))


# --------------------------------------------------------------------------- #
# Run loops
# --------------------------------------------------------------------------- #


def _resolve_dist0(obj: Objective, x0: np.ndarray) -> float:
    optimum = obj.optimum()
    if optimum is not None:
        return float(np.sum((x0 - optimum) ** 2))
    # Unit-norm data keeps the optimum bounded; a crude but safe default.
    return float(x0 @ x0 + 1.0)


def _resolve_gamma(
    obj: Objective, cfg: SgdConfig, x0: np.ndarray, chain: TransitionMatrix | None
) -> float:
    """``cfg.gamma``, else `step_size_theorem2` from `x0` with the mixing time
    of `chain` (1 without one); the mixing estimate runs only in that case."""
    if cfg.gamma is not None:
        return cfg.gamma
    if obj.strong_convexity <= 0.0:
        raise ConfigError(
            "automatic step size needs strong convexity > 0; pass gamma explicitly"
        )
    zeta = obj.heterogeneity()
    return step_size_theorem2(
        obj.smoothness,
        obj.strong_convexity,
        max(cfg.steps, 1),
        _resolve_dist0(obj, x0),
        1.0 if chain is None else _mixing_estimate(chain),
        zeta if zeta is not None else 0.0,
    )


def _mixing_estimate(w: TransitionMatrix) -> float:
    if w.n <= 256:
        return float(max(mixing_time_empirical(w, 0.25), 1))
    return float(max(mixing_time_spectral_bound(w), 1))


def _clipped_sum(grads: np.ndarray, delta: float) -> np.ndarray:
    """Sum over rows of `grads`, each `clip`ped to `delta`, added in row order.

    Each row's norm is its own dot product and a row inside the ball is scaled
    by exactly 1.0, so every clipped row is bit for bit ``clip(row, delta)``;
    ``cumsum`` adds the rows one after another, as a running sum would.
    """
    norms = np.sqrt(np.matmul(grads[:, None, :], grads[:, :, None]).ravel())
    scale = delta / np.maximum(norms, delta)
    return np.cumsum(grads * scale[:, None], axis=0)[-1]


def _descent_loop(
    obj: Objective,
    cfg: SgdConfig,
    schedule: np.ndarray | None,
    algorithm: str,
    chain: TransitionMatrix | None = None,
) -> RunRecord:
    """The update loop of every algorithm, and the one place a run's x0 and
    step size are resolved (`chain` sets the mixing time of a derived step).

    With a `schedule` (the walk and local DP-SGD), step t applies the clipped
    gradient of node ``schedule[t]`` on one uniformly sampled row; a node
    holding a single row takes row 0 without consuming a draw.  With
    ``schedule=None`` (central DP-SGD), step t is a round that averages the
    clipped full gradients of all n nodes (`Objective.node_gradients`),
    summed in node order.  Noise has per-coordinate std
    ``clip_threshold * sigma / k`` (k = 1, or n for a round).  Noise and
    sampled rows are drawn one block of `_STEP_BLOCK` steps at a time, one
    call each, which yields the same numbers as one draw per step or per run;
    a run holds one block of draws, not one per step.
    """
    start = time.perf_counter()
    _, noise_child, rows_child = np.random.SeedSequence(cfg.seed).spawn(3)
    steps = cfg.steps
    central = schedule is None
    k = obj.n_nodes if central else 1
    rows_rng = np.random.default_rng(rows_child)

    x = np.full(obj.dim, float(cfg.x0))
    gamma = _resolve_gamma(obj, cfg, x, chain)
    noise_std = cfg.clip_threshold * cfg.sigma / k
    noise_rng = np.random.default_rng(noise_child) if noise_std > 0.0 else None

    optimum = obj.optimum()
    stride = max(1, steps // max(cfg.trace_points, 1))

    ts: list[int] = []
    objective: list[float] = []
    sq_distance: list[float] = []
    accuracy: list[float] = []
    track_acc = obj.accuracy(x) is not None

    def record(t: int) -> None:
        ts.append(t)
        objective.append(obj.objective_value(x))
        if optimum is not None:
            sq_distance.append(float(np.sum((x - optimum) ** 2)))
        if track_acc:
            accuracy.append(obj.accuracy(x))

    gradient, delta = obj.gradient, cfg.clip_threshold
    record(0)
    for begin in range(0, steps, _STEP_BLOCK):
        end = min(begin + _STEP_BLOCK, steps)
        if not central:
            # A bound of 1 returns 0 without consuming the stream.
            nodes = schedule[begin:end]
            calls = zip(nodes.tolist(), rows_rng.integers(0, obj.local_sizes[nodes]).tolist())
        if noise_rng is not None:
            noise = iter(noise_rng.normal(0.0, noise_std, size=(end - begin, obj.dim)))
        for t in range(begin, end):
            if central:
                g = _clipped_sum(obj.node_gradients(x), delta) / k
            else:
                v, r = next(calls)
                g = clip(gradient(v, x, r), delta)
            if noise_rng is not None:
                g = g + next(noise)
            x = x - gamma * g
            if (t + 1) % stride == 0 or t + 1 == steps:
                record(t + 1)

    return RunRecord(
        algorithm=algorithm,
        ts=np.asarray(ts, dtype=np.int64),
        objective=np.asarray(objective),
        sq_distance=np.asarray(sq_distance) if optimum is not None else None,
        accuracy=np.asarray(accuracy) if track_acc else None,
        final_x=x,
        gamma=gamma,
        stride=stride,
        wall_clock=time.perf_counter() - start,
    )


def token_path(w: TransitionMatrix, cfg: SgdConfig) -> np.ndarray:
    """The token's walk v_0, ..., v_T over `w` for ``cfg.seed`` and ``cfg.steps``,
    from node 0: the read-only int64 path that :func:`run_rw_dpsgd` follows.

    It draws from the first of the three sub-streams spawned from ``cfg.seed``
    and reads nothing else of `cfg`, so runs that differ only in their noise
    (one per privacy target, say) share one path.
    """
    walk_child = np.random.SeedSequence(cfg.seed).spawn(3)[0]
    return simulate(w, 0, cfg.steps, walk_child).nodes


def run_rw_dpsgd(w: TransitionMatrix, obj: Objective, cfg: SgdConfig, nodes: np.ndarray) -> RunRecord:
    """Private random-walk gradient descent over the chain `w` along `nodes`,
    the walk ``token_path(w, cfg)``.

    The walk, the Gaussian noise, and row sampling draw from three sub-streams
    spawned from ``cfg.seed``, so runs are bitwise reproducible and the
    schedule is independent of the noise.  Step t updates at ``nodes[t]``.
    """
    if w.n != obj.n_nodes:
        raise ConfigError(f"chain has {w.n} nodes but objective has {obj.n_nodes}")
    if nodes.shape != (cfg.steps + 1,):
        raise ConfigError(f"a run of {cfg.steps} steps follows {cfg.steps + 1} nodes, got shape {nodes.shape}")
    return _descent_loop(obj, cfg, nodes[:-1], "rw_dpsgd", w)


def run_local_dpsgd(obj: Objective, cfg: SgdConfig) -> RunRecord:
    """Local DP-SGD baseline: i.i.d. uniform node schedule, no amplification.

    Shares the update machinery with the walk variant; only the schedule and
    the externally calibrated `sigma` differ.
    """
    schedule_child = np.random.SeedSequence(cfg.seed).spawn(3)[0]
    schedule = np.random.default_rng(schedule_child).integers(0, obj.n_nodes, size=cfg.steps)
    return _descent_loop(obj, cfg, schedule, "local_dpsgd")


def run_central_dpsgd(obj: Objective, cfg: SgdConfig) -> RunRecord:
    """Trusted-aggregator baseline: per-round averaged clipped gradients.

    ``cfg.steps`` counts rounds.  Each round every node contributes its full
    clipped local gradient (all n evaluated at once by
    `Objective.node_gradients`); one Gaussian draw of per-coordinate std
    ``clip_threshold * sigma / n`` is added to the average.
    """
    return _descent_loop(obj, cfg, None, "central_dpsgd")

