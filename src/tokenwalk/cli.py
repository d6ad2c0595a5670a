"""Config-driven command-line runner.

Five subcommands cover the pipeline: ``graph`` (generate/export topologies),
``privacy`` (pairwise accounting and distance series), ``sgd`` (preset
experiment runs), ``calibrate`` (noise search for a DP target), and
``report`` (merge distance series into one long-format CSV).

Each flag is declared once, in :data:`_FLAGS`, which drives the parser, the
``--config`` keys and the defaults.  A numeric flag's ``type`` is its domain
(:func:`_domain`), so a number outside it exits 2 before any work, from the
command line or the config file alike.  A config file is a JSON object with
``"schema_version": 1`` and flag names (``_`` for ``-``) as keys, each value
typed and checked like its flag.  Command line > config file > default, and a
required flag may come from the config file.  :data:`_PRESETS` holds the flags
each ``sgd`` preset reads and its defaults; any other flag given there exits 2.

:func:`main` reads each run's seeds and refuses an ``--out`` with a file in the
way; the first file written makes the directory, so a refused run leaves none.
Once the command succeeds, main writes ``manifest.json``: the resolved config
hash, tool version, output checksums, wall clock, and seeds, so identical
configs can be verified to reproduce identical artifacts, plus the OpenBLAS
environment variables it ran under (``diagnostics.blas``, null when unset) and
the malloc setting (``diagnostics.malloc``).  A command only adds its files to
the manifest it is given.

Importing this module changes two things for the whole process.  Unless the
environment sets ``MALLOC_MMAP_THRESHOLD_`` or ``MALLOC_TRIM_THRESHOLD_``, it
fixes glibc's mmap and trim thresholds at 128 KiB, where a C library has
``mallopt``.  And it freezes every object that exists once its imports are
done (:func:`gc.freeze`), so the collector never scans them again, at exit
included.

Exit codes: 0 on success; a run that a package error ends exits with that
error's ``exit_code`` and prints its ``label`` (the table is in
:mod:`tokenwalk.errors`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

# OpenBLAS reads this once, when NumPy loads it.  Its idle workers spin for
# 2^28 TSC cycles (~0.1 s) after the library loads and after each burst of
# BLAS calls before they sleep: CPU time that buys a CLI process no wall clock.
# 2^20 cycles (well under 1 ms) keeps both threads, so the threaded eigh
# keeps its speed.  A user's own value wins, and a process that loaded NumPy
# first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

# glibc raises its mmap threshold, up to 32 MiB, each time it frees an mmapped
# block, and its trim threshold to twice that.  Later n x n temporaries then
# come from the brk heap, where a live block above them keeps their pages
# resident, and the peak depends on heap layout (compiling this module from
# source already frees such a block).  Setting both back to glibc's starting
# value, 128 KiB, stops the sliding; it is done before NumPy loads so that
# NumPy's own blocks follow it too.  A user who sets MALLOC_MMAP_THRESHOLD_ or
# MALLOC_TRIM_THRESHOLD_ fixes the thresholds for glibc and wins, and a C
# library that has no mallopt, or refuses a call, is left as it is.
_MMAP_THRESHOLD = None
if os.name == "posix" and not {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & os.environ.keys():
    import ctypes

    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        if _mallopt(-3, 1 << 17) == 1 and _mallopt(-1, 1 << 17) == 1:  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
            _MMAP_THRESHOLD = 1 << 17

import numpy as np

import tokenwalk  # annotations name datasets and optim, which only sgd loads, through it

from . import __version__, accountant, graphs, transition
from .errors import ConfigError, DataError, TokenwalkError
from .ioutil import (
    atomic_write_text,
    dump_json,
    sha256_of_file,
    sha256_of_text,
    sidecar,
    write_matrix_csv,
    write_rows_csv,
)

__all__ = ["main"]

# What exists now lives until the process exits; frozen, the collector skips it
# in every later collection and in the teardown at exit.
gc.freeze()

SCHEMA_VERSION = 1

_FAMILY_ALIASES = {"erdos-renyi": "erdos_renyi", "edge-list": "edge_list", "exponential": "hypercube"}


# --------------------------------------------------------------------------- #
# Shared plumbing
# --------------------------------------------------------------------------- #


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [_COUNT(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"invalid seed list {text!r} (expected comma-separated nonnegative ints)") from None
    if not seeds:
        raise ConfigError(f"empty seed list {text!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"duplicate seed in {text!r}")
    return seeds


def _parse_numbers(text: str, parse, flag: str) -> tuple:
    """The comma-separated numbers `text` of `flag`, each read by `parse`."""
    try:
        return tuple(parse(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"invalid {flag} {text!r} (expected comma-separated numbers)") from None


def _graph_spec_from_args(args: argparse.Namespace, seed: int | None) -> graphs.GraphSpec:
    family = _FAMILY_ALIASES.get(args.family, args.family)
    cluster_sizes = prob_matrix = None
    if args.cluster_sizes:
        cluster_sizes = _parse_numbers(args.cluster_sizes, int, "--cluster-sizes")
    if args.prob_matrix:
        prob_matrix = tuple(_parse_numbers(row, float, "--prob-matrix row") for row in args.prob_matrix.split(";"))
    return graphs.GraphSpec(
        family=family,
        n=args.n,
        rows=args.rows,
        cols=args.cols,
        dim=args.dim,
        q=args.q,
        radius=args.radius,
        cluster_sizes=cluster_sizes,
        prob_matrix=prob_matrix,
        path=args.edge_file,
        seed=seed,
    )


def _self_loop_mass(args: argparse.Namespace) -> float | None:
    """The ``--kappa`` mass, ``auto`` read as 1/T^2; None when the flag is unset."""
    if args.kappa == "auto":
        if not args.steps:
            raise ConfigError("--kappa auto needs --steps to derive 1/T^2")
        return 1.0 / float(args.steps) ** 2
    return None if args.kappa is None else float(args.kappa)


def _build_chain(g: graphs.Graph, kappa: float | None) -> transition.TransitionMatrix:
    tm = transition.hamilton_weighting(g)
    return tm if kappa is None else transition.blend_self_loops(tm, kappa)


def _read_json_object(path: Path, what: str) -> dict:
    """The JSON object in the file `path`; anything else there, a directory or
    no file at all is a config error."""
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return obj


def _config_value(value, options: dict, where: str):
    """Config `value` read as the command line reads the flag with argparse `options`."""
    if options.get("action") == "store_true":
        expected, ok = "true or false", isinstance(value, bool)
    elif "nargs" in options:
        expected, ok = "a list of strings", isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif "type" in options:
        expected, ok = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
        if options["type"] is _SELF_LOOPS:  # its domain holds a word, 'auto'
            expected, ok = "a number or a string", ok or isinstance(value, str)
    else:
        expected, ok = "a string", isinstance(value, str)
    if not ok:
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    if "type" in options:
        try:  # the number's string form, as on the command line: 6.5 is no int
            value = options["type"](str(value))
        except ValueError:
            raise ConfigError(f"{where}: invalid {options['type'].__name__} value {value!r}") from None
    if "choices" in options and value not in options["choices"]:
        raise ConfigError(f"{where}: invalid choice {value!r} (choose from {', '.join(options['choices'])})")
    return value


def _resolve_flags(args: argparse.Namespace) -> None:
    """Overlay the ``--config`` stanza, then fill every flag still unset.

    Flags are parsed with ``default=argparse.SUPPRESS``, so the namespace
    holds exactly the flags given on the command line: those win over the
    config file, which wins over the default declared in :data:`_FLAGS`.
    """
    flags = _FLAGS[args.command]
    stanza = {}
    if "config" in args:
        path = Path(args.config)
        stanza = _read_json_object(path, "config")
        version = stanza.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
        options = {key: opts for key, _, _, _, opts in flags}
        unknown = set(stanza) - set(options)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        stanza = {key: _config_value(value, options[key], f"{path}: {key}") for key, value in stanza.items()}
    for key, name, default, required, _ in flags:
        if key in args:
            continue
        if key not in stanza and required:
            raise ConfigError(f"{name} is required (on the command line or in --config)")
        setattr(args, key, stanza.get(key, default))


class _Manifest:
    """Collects outputs and timings for a command run."""

    def __init__(self, out_dir: Path, command: str, config: dict, seeds: list[int]):
        self.out_dir = out_dir
        self.command = command
        self.config = config
        self.seeds = seeds
        self.t0 = time.perf_counter()
        self.files: list[Path] = []

    def add(self, path: Path, meta: dict | None = None) -> Path:
        """Record `path`; given `meta`, write it as `path`'s JSON sidecar and record that too."""
        self.files.append(path)
        if meta is not None:
            meta_path = sidecar(path)
            dump_json(meta_path, meta)
            self.files.append(meta_path)
        return path

    def write(self) -> None:
        """Write ``manifest.json`` with the digest of every recorded file; one never written raises."""
        canonical = json.dumps(self.config, sort_keys=True, default=str)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config_hash": sha256_of_text(canonical),
            "tool_version": __version__,
            "seeds": self.seeds,
            "wall_clock": time.perf_counter() - self.t0,
            "files": {p.name: sha256_of_file(p) for p in self.files},
            "diagnostics": {
                "blas": {
                    "openblas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
                    "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                },
                "malloc": {
                    "mmap_threshold": _MMAP_THRESHOLD,
                    "malloc_mmap_threshold_": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
                    "malloc_trim_threshold_": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
                },
            },
        }
        dump_json(self.out_dir / "manifest.json", payload)


def _public_config(args: argparse.Namespace) -> dict:
    return {
        k: v
        for k, v in vars(args).items()
        if not k.startswith("_") and k not in ("func", "config") and v is not None
    }


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #


def cmd_graph(args: argparse.Namespace, manifest: _Manifest) -> None:
    out = manifest.out_dir
    g = graphs.generate(_graph_spec_from_args(args, args.seed))
    edges = out / "edges.txt"
    atomic_write_text(edges, g.edge_lines())
    manifest.add(edges, {"n": g.n, "family": g.family, "seed": g.seed, "retries": g.retries,
                         "edge_count": len(g.edges), "hash": g.content_hash()})
    deg = g.degrees
    dist = graphs.shortest_path_distances(g)
    dump_json(
        manifest.add(out / "stats.json"),
        {
            "n": g.n,
            "edges": len(g.edges),
            "degree_min": int(deg.min()),
            "degree_max": int(deg.max()),
            "diameter": int(dist.max()),
            "retries": g.retries,
            "hash": g.content_hash(),
        },
    )


def _privacy_seed(args: argparse.Namespace, manifest: _Manifest, p: accountant.PrivacyParams,
                  kappa: float | None, seed: int) -> list[accountant.DistanceBucket]:
    """One seed of ``privacy``: write its pairwise CSV and distance series, return the series.

    The chain, which holds W and its cached n x n decomposition, goes as soon
    as its matrix and hash are read, so the eigensolve sets the peak; the
    seed's other arrays go on return, before the next seed's graph.
    """
    out = manifest.out_dir
    g = graphs.generate(_graph_spec_from_args(args, seed))
    tm = _build_chain(g, kappa)
    transition.validate(tm, g).raise_if_failed()
    eps = accountant.pairwise_matrix(tm, p, method=args.method)
    meta = {
        "alpha": p.alpha, "sigma2": p.sigma2, "steps": p.steps,
        # schema keys: every node composes over its expected T/n contributions
        "contributions": "expected", "max_contributions": None,
        "method": args.method, "graph_hash": tm.content_hash(), "hash_version": transition.HASH_VERSION,
    }
    del tm
    pairwise = out / f"pairwise_seed{seed}.csv"
    write_matrix_csv(pairwise, eps)
    manifest.add(pairwise, meta)
    buckets = accountant.mean_loss_by_distance(eps, graphs.shortest_path_distances(g))
    _write_distance_series(manifest.add(out / f"distance_seed{seed}.csv", meta), buckets)
    return buckets


def cmd_privacy(args: argparse.Namespace, manifest: _Manifest) -> None:
    out, seeds = manifest.out_dir, manifest.seeds
    p = accountant.PrivacyParams(alpha=args.alpha, sigma2=args.sigma2, steps=args.steps)
    # The conversion's delta term.
    tail = accountant.rdp_to_dp(args.alpha, 0.0, args.delta).epsilon
    kappa = _self_loop_mass(args)
    per_seed_series = [_privacy_seed(args, manifest, p, kappa, seed) for seed in seeds]

    merged: dict[int, list[accountant.DistanceBucket]] = {}
    for series in per_seed_series:
        for b in series:
            merged.setdefault(b.distance, []).append(b)
    averaged = []
    converted = []
    for d in sorted(merged):
        means = np.array([b.mean for b in merged[d]])
        counts = sum(b.count for b in merged[d])
        averaged.append(
            accountant.DistanceBucket(
                distance=d,
                mean=float(means.mean()),
                std=float(means.std()),
                count=counts,
            )
        )
        converted.append((d, float(means.mean()) + tail, args.delta, counts))
    # No graph hash: each seed may have drawn a different graph.
    mean_meta = {"alpha": p.alpha, "sigma2": p.sigma2, "steps": p.steps, "method": args.method, "seeds": seeds}
    _write_distance_series(manifest.add(out / "distance_mean.csv", mean_meta), averaged)
    write_rows_csv(
        manifest.add(out / "distance_dp.csv"),
        ["distance", "epsilon_dp", "delta", "count"],
        converted,
    )


def _write_distance_series(path: Path, buckets: list[accountant.DistanceBucket]) -> None:
    rows = [(b.distance, b.mean, b.std, b.count) for b in buckets]
    write_rows_csv(path, ["distance", "mean", "std", "count"], rows)


def _read_distance_series(path: Path) -> list[accountant.DistanceBucket]:
    """Parse a (distance, mean[, std, count]) series; values are pass-through.

    External overlays may omit std/count columns; those default to 0.  A file
    that is no such series is a :class:`ConfigError`.
    """
    unreadable = f"unreadable distance series: {path}"
    try:
        header, *lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError:
        raise ConfigError(f"{unreadable}: not UTF-8 text") from None
    if header.strip().split(",")[0] != "distance":
        raise ConfigError(f"{unreadable}: expected a 'distance' first column")
    buckets: list[accountant.DistanceBucket] = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.strip().split(",")
        if len(cells) < 2:
            raise ConfigError(f"{unreadable}:{lineno}: need at least distance,mean")
        try:
            buckets.append(
                accountant.DistanceBucket(
                    distance=int(cells[0]),
                    mean=float(cells[1]),
                    std=float(cells[2]) if len(cells) > 2 else 0.0,
                    count=int(cells[3]) if len(cells) > 3 else 0,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{unreadable}:{lineno}: {exc}") from exc
    return buckets


def _load_houses_or_die(n_users: int, seed: int) -> tokenwalk.datasets.Dataset:
    from . import datasets

    path = datasets.find_houses_csv()
    if path is None:
        raise DataError(
            "Houses dataset not found. Fetch it with scripts/fetch_houses.py and "
            f"point {datasets.DATA_DIR_ENV} at the directory containing houses.csv "
            "(a 256-row sample ships in data/houses_sample.csv for smoke tests)."
        )
    raw = datasets.load_csv(path, label_column="median_house_value")
    return datasets.preprocess(raw, n_users=n_users, seed=seed)


def _write_run(manifest: _Manifest, path: Path, rec: tokenwalk.optim.RunRecord) -> None:
    """(t, objective, sq_distance?, accuracy?) rows, blank where untracked, and a
    sidecar with the algorithm, stride, step size and wall clock."""
    rows = [
        (
            int(t),
            float(rec.objective[i]),
            float(rec.sq_distance[i]) if rec.sq_distance is not None else "",
            float(rec.accuracy[i]) if rec.accuracy is not None else "",
        )
        for i, t in enumerate(rec.ts)
    ]
    write_rows_csv(path, ["t", "objective", "sq_distance", "accuracy"], rows)
    manifest.add(path, {"algorithm": rec.algorithm, "stride": rec.stride, "gamma": rec.gamma,
                        "steps": int(rec.ts[-1]) if rec.ts.size else 0, "wall_clock": rec.wall_clock})


def _summary_row(rec: tokenwalk.optim.RunRecord, **extra) -> dict:
    row = {
        "algorithm": rec.algorithm,
        "gamma": rec.gamma,
        "final_objective": float(rec.objective[-1]),
        "wall_clock": rec.wall_clock,
    }
    if rec.accuracy is not None:
        row["final_accuracy"] = float(rec.accuracy[-1])
    if rec.sq_distance is not None:
        row["final_sq_distance"] = float(rec.sq_distance[-1])
    return {**row, **extra}


# The flags each sgd preset reads, with its defaults (None: the library's).  Only
# fig2 of the two regression presets reads --target-eps; table1-rw runs 0.5, 1 and 2.
_REGRESSION = {"n": 2048, "epochs": 256, "steps": None, "per_user": 8, "gamma": 0.1, "clip": 1.0,
               "delta": 1e-6, "synthetic": False}
_PRESETS = {
    "fig2": {**_REGRESSION, "target_eps": 1.0},
    "table1-rw": _REGRESSION,
    "heterogeneity": {"n": 200, "epochs": 50, "steps": None, "gamma": 1.0, "sigma": 0.0, "clip": 1.0},
    "averaging": {"n": 32, "epochs": 1563, "steps": None, "gamma": None, "sigma": 0.0, "clip": 1e9},
}


def _preset_options(args: argparse.Namespace, seeds: list[int]) -> dict:
    """Each flag `args.preset` reads, else the preset's default; a given flag it does not read is an error."""
    reads = dict(_PRESETS[args.preset])
    if args.steps is not None:  # --steps replaces --epochs
        del reads["epochs"]
    if not args.synthetic:  # only the synthetic dataset has a per-user row count
        reads.pop("per_user", None)
    unread = [name for key, name, default, _, _ in _FLAGS["sgd"]
              if key not in (*reads, "preset", "seeds", "out") and getattr(args, key) != default]
    if unread:
        raise ConfigError(f"--preset {args.preset} does not read {', '.join(unread)}")
    if args.preset == "heterogeneity" and len(seeds) > 1:
        raise ConfigError(f"--preset heterogeneity runs one seed, got --seeds {args.seeds}")
    options = {key: default if getattr(args, key) is None else getattr(args, key) for key, default in reads.items()}
    if options["steps"] is None:
        options["steps"] = options.pop("epochs") * options["n"]
    return options


def cmd_sgd(args: argparse.Namespace, manifest: _Manifest) -> None:
    # Only sgd samples data and runs descent loops; the other commands never load them.
    from . import datasets, optim

    out, seeds = manifest.out_dir, manifest.seeds
    opts = _preset_options(args, seeds)
    n, steps = opts["n"], opts["steps"]
    # Every run's settings, checked before any dataset, graph or calibration;
    # each run replaces its seed, and the calibrated runs their sigma.
    cfg = optim.SgdConfig(steps=steps, gamma=opts["gamma"], sigma=opts.get("sigma", 0.0),
                          clip_threshold=opts["clip"], x0=100.0 if args.preset == "averaging" else 0.0)
    if args.preset in ("fig2", "table1-rw"):
        targets = [accountant.DpPoint(epsilon=eps, delta=opts["delta"])
                   for eps in ([opts["target_eps"]] if args.preset == "fig2" else [0.5, 1.0, 2.0])]
    summary: dict = {"preset": args.preset, "runs": []}

    if args.preset == "averaging":
        tm = transition.with_self_loops(graphs.generate(graphs.GraphSpec(family="ring", n=n)), 1.0 / 3.0)
        for seed in seeds:
            values = np.random.default_rng(np.random.SeedSequence(seed)).normal(size=n)
            rec = optim.run_rw_dpsgd(tm, optim.AveragingObjective(values), dataclasses.replace(cfg, seed=seed))
            _write_run(manifest, out / f"averaging_seed{seed}.csv", rec)
            summary["runs"].append(_summary_row(rec, seed=seed, var_y=float(np.var(values))))

    elif args.preset == "heterogeneity":
        g = graphs.generate(graphs.GraphSpec(family="geometric", n=n, seed=seeds[0]))
        tm = transition.blend_self_loops(transition.hamilton_weighting(g), 0.1)
        cfg = dataclasses.replace(cfg, seed=seeds[0])
        for shuffled in (False, True):
            ds = datasets.synth_heterogeneous_geometric(g, seed=seeds[0], shuffled=shuffled)
            rec = optim.run_rw_dpsgd(tm, optim.LogisticObjective(ds), cfg)
            tag = "shuffled" if shuffled else "spatial"
            _write_run(manifest, out / f"heterogeneity_{tag}.csv", rec)
            summary["runs"].append(_summary_row(rec, shuffled=shuffled))

    else:  # fig2 or table1-rw
        if opts["synthetic"]:
            ds = datasets.synth_linear(n, opts["per_user"], d=8, margin=0.3, seed=seeds[0])
        else:
            ds = _load_houses_or_die(n, seed=seeds[0])
        obj = optim.LogisticObjective(ds)
        # No graph stays alive beside the chain: calibration's eigh sets the peak.
        tm = transition.hamilton_weighting(graphs.generate(graphs.GraphSpec(family="complete", n=n)))
        for target in targets:
            cal_rw = accountant.calibrate_sigma(tm, steps, target, method="exact")
            cal_local = accountant.calibrate_sigma_local(steps, target, n)
            for seed in seeds:
                runs = [optim.run_rw_dpsgd(tm, obj, dataclasses.replace(
                    cfg, seed=seed, sigma=float(np.sqrt(cal_rw.sigma2))))]
                if args.preset == "fig2":
                    local_cfg = dataclasses.replace(cfg, seed=seed, sigma=float(np.sqrt(cal_local.sigma2)))
                    runs.append(optim.run_local_dpsgd(obj, local_cfg))
                    runs.append(optim.run_central_dpsgd(obj, dataclasses.replace(local_cfg, steps=max(1, steps // n))))
                for rec in runs:
                    _write_run(manifest, out / f"{rec.algorithm}_eps{target.epsilon}_seed{seed}.csv", rec)
                    summary["runs"].append(_summary_row(rec, seed=seed, target_eps=target.epsilon,
                                                        sigma2_rw=cal_rw.sigma2, sigma2_local=cal_local.sigma2))

    dump_json(manifest.add(out / "summary.json"), summary)


def cmd_calibrate(args: argparse.Namespace, manifest: _Manifest) -> None:
    target = accountant.DpPoint(epsilon=args.target_eps, delta=args.delta)
    stat_name = args.statistic.replace("-", "_")
    if stat_name == "mean_at_distance" and args.distance is None:
        raise ConfigError("--statistic mean_at_distance needs --distance")
    if stat_name != "mean_at_distance" and args.distance is not None:
        raise ConfigError(f"--statistic {stat_name} does not read --distance")
    kappa = _self_loop_mass(args)
    g = graphs.generate(_graph_spec_from_args(args, args.seed))
    if stat_name == "mean_at_distance":
        statistic, dist = accountant.mean_at_distance(args.distance), graphs.shortest_path_distances(g)
    else:
        statistic, dist = accountant.Statistic(stat_name), None
    tm = _build_chain(g, kappa)
    del g  # calibration's eigh sets the run's peak memory: hold no edge list beside it
    result = accountant.calibrate_sigma(tm, args.steps, target, statistic, dist=dist, method=args.method)
    dump_json(
        manifest.add(manifest.out_dir / "calibration.json"),
        {
            "sigma2": result.sigma2,
            "epsilon": result.epsilon,
            "alpha": result.alpha,
            "rdp_statistic": result.rdp_statistic,
            "gap_limited": result.gap_limited,
            "target_eps": target.epsilon,
            "delta": target.delta,
            "statistic": stat_name,
            "method": args.method,
        },
    )


def cmd_report(args: argparse.Namespace, manifest: _Manifest) -> None:
    if not args.inputs:
        raise ConfigError("report needs at least one input distance-series CSV")
    rows = []
    for spec in args.inputs:
        if "=" in spec:
            path_text, source = spec.split("=", 1)
        else:
            path_text, source = spec, Path(spec).stem
        path = Path(path_text)
        if not path.is_file():
            raise ConfigError(f"input not found: {path}")
        buckets = _read_distance_series(path)
        method = graph_name = ""
        if sidecar(path).exists():
            meta = _read_json_object(sidecar(path), "sidecar")
            method = str(meta.get("method", ""))
            graph_name = str(meta.get("graph", meta.get("graph_hash", "")))[:12]
        for b in buckets:
            rows.append((b.distance, b.mean, b.std, method, graph_name, source))
    write_rows_csv(
        manifest.add(manifest.out_dir / "report.csv"),
        ["distance", "mean", "std", "method", "graph", "source"],
        rows,
    )


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #


def _domain(name: str, parse, accepts):
    """An argparse ``type`` named `name`: the number `parse` reads, if `accepts` it."""
    def read(text: str):
        if not accepts(value := parse(text)):
            raise ValueError(name)
        return value

    read.__name__ = name  # argparse and _config_value print it
    return read


_COUNT = _domain("nonnegative int", int, lambda x: x >= 0)
_SIZE = _domain("positive int", int, lambda x: x >= 1)
_NONNEGATIVE = _domain("finite nonnegative float", float, lambda x: 0.0 <= x < math.inf)
_POSITIVE = _domain("finite positive float", float, lambda x: 0.0 < x < math.inf)
_PROBABILITY = _domain("float in (0, 1)", float, lambda x: 0.0 < x < 1.0)
_ORDER = _domain("finite float > 1", float, lambda x: 1.0 < x < math.inf)
_VARIANCE = _domain("positive float or inf", float, lambda x: x > 0.0)  # sigma2 = inf: zero loss
# 'auto', or the number's shortest text, so that 0.5, .5 and 5e-1 (and -0 and 0)
# hash alike in the config; _self_loop_mass reads the number.
_SELF_LOOPS = _domain("'auto' or float in [0, 1)", lambda t: t if t == "auto" else repr(float(t) + 0.0),
                      lambda t: t == "auto" or 0.0 <= float(t) < 1.0)


def _flag(name: str, default=None, *, required: bool = False, **options) -> tuple:
    """A row of :data:`_FLAGS`: config key, flag, default, required, argparse options."""
    return name.lstrip("-").replace("-", "_"), name, default, required, options


_GRAPH_FLAGS = (
    _flag("--family", required=True,
          help="complete|ring|star|grid2d|hypercube|erdos-renyi|geometric|sbm|edge-list|exponential"),
    *(_flag(name, type=_SIZE) for name in ("--n", "--rows", "--cols", "--dim")),
    *(_flag(name, type=float) for name in ("--q", "--radius")),
    *(_flag(name) for name in ("--cluster-sizes", "--prob-matrix", "--edge-file")),
)
_KAPPA = _flag("--kappa", type=_SELF_LOOPS, help="self-loop mass to blend in, or 'auto' for 1/T^2")
_STEPS = _flag("--steps", required=True, type=_COUNT)
_METHOD = _flag("--method", "closed", choices=["exact", "closed"])
_DELTA = _flag("--delta", 1e-6, type=_PROBABILITY)
_OUT = _flag("--out", required=True)
_STATISTIC = _flag("--statistic", "mean_pairs",  # each name also with '-' for '_'
                   choices=[*accountant.STATISTICS, *(s.replace("_", "-") for s in accountant.STATISTICS)])

# Every flag of every subcommand.  sgd's numeric flags default to None: each
# preset fills its own defaults (:data:`_PRESETS`), which stay out of the hashed config.
_FLAGS: dict[str, tuple] = {
    "graph": (*_GRAPH_FLAGS, _flag("--seed", type=_COUNT), _OUT),
    "privacy": (*_GRAPH_FLAGS, _KAPPA, _flag("--alpha", 2.0, type=_ORDER), _flag("--sigma2", 16.0, type=_VARIANCE),
                _STEPS, _METHOD, _DELTA, _flag("--seeds", "0"), _OUT),
    "sgd": (
        _flag("--preset", required=True, choices=["fig2", "table1-rw", "heterogeneity", "averaging"]),
        *(_flag(name, type=domain) for name, domain in (
            ("--n", _SIZE), ("--epochs", _COUNT), ("--steps", _COUNT), ("--per-user", _SIZE),
            ("--gamma", _NONNEGATIVE), ("--sigma", _NONNEGATIVE), ("--clip", _POSITIVE),
            ("--target-eps", _NONNEGATIVE), ("--delta", _PROBABILITY))),
        _flag("--synthetic", False, action="store_true", help="use the synthetic linear dataset instead of Houses"),
        _flag("--seeds", "0"), _OUT,
    ),
    "calibrate": (*_GRAPH_FLAGS, _KAPPA, _flag("--target-eps", required=True, type=_NONNEGATIVE), _DELTA,
                  _STATISTIC, _flag("--distance", type=_SIZE), _STEPS, _METHOD, _flag("--seed", type=_COUNT), _OUT),
    "report": (_flag("inputs", (), nargs="*", metavar="CSV[=label]"), _OUT),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenwalk",
        description="Simulate private token walks and account their pairwise privacy loss.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, argument_default=argparse.SUPPRESS),
    )
    for command, func, help_text in (
        ("graph", cmd_graph, "generate a graph and export edge list + stats"),
        ("privacy", cmd_privacy, "pairwise loss matrices and distance series"),
        ("sgd", cmd_sgd, "run a preset experiment"),
        ("calibrate", cmd_calibrate, "search sigma2 for a DP target"),
        ("report", cmd_report, "merge distance series into a long-format CSV"),
    ):
        sp = sub.add_parser(command, help=help_text)
        for _, name, _, required, options in _FLAGS[command]:
            if required:  # not argparse's `required`: the config file may give it
                options = {**options, "help": f"{options.get('help', '')} (required, here or in --config)".lstrip()}
            sp.add_argument(name, **options)
        sp.add_argument("--config", help="JSON file of flag values (schema_version 1)")
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_flags(args)
        if args.command in ("privacy", "sgd"):
            seeds = _parse_seeds(args.seeds)
        else:  # graph and calibrate record the --seed they were given
            seeds = [args.seed] if getattr(args, "seed", None) is not None else []
        out = Path(args.out)  # made by the first file written; refused here if a file is on the way
        if not (blocker := next(p for p in (out, *out.parents) if os.path.lexists(p))).is_dir():
            why = "File exists" if blocker == out else "Not a directory"
            raise ConfigError(f"--out {out}: cannot make a directory ({why})")
        label = f"sgd:{args.preset}" if args.command == "sgd" else args.command
        manifest = _Manifest(out, label, _public_config(args), seeds)
        args.func(args, manifest)
        manifest.write()
        return 0
    except TokenwalkError as exc:  # each error type carries its exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
