"""End-to-end and per-layer benchmark of the tokenwalk CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload privacy-er --seed 0 --seconds 20 --trace 0

Each run is a closed loop: one CLI process at a time, started fresh, because a
user pays interpreter start, imports and first-LAPACK cost on every
invocation.  An untimed warm-up invocation first fills the page cache and
writes the bytecode caches.  Every invocation's outputs are checked (see
``checks.py``); a nonzero exit, a timeout or a failed check counts as failed.

``--trace 0`` times untraced invocations for ``--seconds`` and reports the
median wall clock, CPU time, set-up time and peak RSS.  ``--trace 1``
alternates traced invocations (``traced.py``) with untraced ones and reports
per-layer self times and counts, medians over the traced invocations, plus
the tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_run"
REFERENCE = BENCH / "reference.json"

INVOCATION_TIMEOUT_S = 30.0  # ~15x the slowest workload
RUN_BUDGET_S = 120.0  # stop starting invocations after this, whatever --seconds says
MIN_SAMPLES = 3

# The timed process is what the ``tokenwalk`` console script runs: import
# tokenwalk.cli, call main().  The stamp written in between gives set-up time
# (spawn until the CLI is imported and ready to parse arguments) from the same
# processes that give the wall clock.
LAUNCH = (
    "import sys, time\n"
    "from tokenwalk.cli import main\n"
    "ready = time.monotonic()\n"
    "with open(sys.argv[1], 'w') as fh: fh.write(repr(ready))\n"
    "sys.exit(main(sys.argv[2:]))\n"
)

NOT_SGD = {"walk.simulate", "optim.run_rw_dpsgd", "optim.run_local_dpsgd",
           "optim.run_central_dpsgd", "optim.gradient", "datasets.synth_linear"}
PRIVACY_LAYERS = {"graphs.generate", "graphs.shortest_path_distances", "transition.validate",
                  "transition.content_hash", "spectral.decompose", "spectral.eigh",
                  "accountant.pairwise_matrix", "accountant.mean_loss_by_distance",
                  "ioutil.write_matrix_csv", "ioutil.write_rows_csv", "ioutil.sha256_of_file"}


@dataclass(frozen=True)
class Workload:
    kind: str  # which checks apply: privacy, calibrate or sgd
    args: tuple[str, ...]  # CLI arguments without the seed and --out
    seed_flag: str
    seeded: bool  # whether the seed changes the CLI's inputs
    graph: dict  # GraphSpec fields of the graph the command builds
    steps: int  # walk length T
    require: frozenset  # spans that must record calls in a traced run
    absent: frozenset  # spans that must record none


WORKLOADS = {
    # Sparse irregular graph: hop distances, kernel, pairwise CSV and the
    # chain hash each own a visible share.
    "privacy-er": Workload(
        "privacy",
        ("privacy", "--family", "erdos-renyi", "--n", "320", "--q", "0.06",
         "--steps", "65536", "--method", "exact"),
        "--seeds", True, {"family": "erdos_renyi", "n": 320, "q": 0.06}, 65536,
        frozenset(PRIVACY_LAYERS | {"transition.hamilton_weighting"}),
        frozenset(NOT_SGD | {"accountant.calibrate_sigma"}),
    ),
    # Even lazy ring, kappa = 1/T^2: lambda_min ~ -1 + 2/T^2 keeps the
    # harmonic power-sum loop running all T iterations; graph cost ~0.
    "privacy-ring-lazy": Workload(
        "privacy",
        ("privacy", "--family", "ring", "--n", "256", "--kappa", "auto",
         "--steps", "50000", "--method", "exact"),
        "--seeds", False, {"family": "ring", "n": 256}, 50000,
        frozenset(PRIVACY_LAYERS | {"transition.hamilton_weighting", "transition.blend_self_loops"}),
        frozenset(NOT_SGD | {"accountant.calibrate_sigma"}),
    ),
    # Dense graph: generation and hamilton_weighting over ~131k edges dominate
    # and set peak RSS; no CSV, no hash; kernel loop exits in ~100 iterations.
    "calibrate-complete": Workload(
        "calibrate",
        ("calibrate", "--family", "complete", "--n", "512", "--steps", "65536",
         "--target-eps", "0.95", "--method", "exact"),
        "--seed", False, {"family": "complete", "n": 512}, 65536,
        frozenset({"graphs.generate", "transition.hamilton_weighting", "spectral.decompose",
                   "spectral.eigh", "accountant.calibrate_sigma", "ioutil.dump_json"}),
        frozenset(NOT_SGD | {"graphs.shortest_path_distances", "transition.validate",
                             "transition.content_hash", "accountant.pairwise_matrix",
                             "accountant.mean_loss_by_distance", "ioutil.write_matrix_csv",
                             "ioutil.write_rows_csv"}),
    ),
    # The only workload with walk sampling and descent loops.
    "sgd-fig2": Workload(
        "sgd",
        ("sgd", "--preset", "fig2", "--synthetic", "--n", "256", "--epochs", "32"),
        "--seeds", True, {"family": "complete", "n": 256}, 32 * 256,
        frozenset(NOT_SGD | {"transition.content_hash", "accountant.calibrate_sigma",
                             "ioutil.write_rows_csv"}),
        frozenset({"graphs.shortest_path_distances", "transition.validate",
                   "accountant.pairwise_matrix", "ioutil.write_matrix_csv"}),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Published per-layer metrics: name -> unit.
LAYER_UNITS = {
    "graphs.shortest_path_distances.self_s": "s",
    "graphs.generate.self_s": "s",
    "graphs.generate.attempts": "count",
    "graphs.edges": "count",
    "transition.build.self_s": "s",
    "transition.validate.self_s": "s",
    "transition.content_hash.self_s": "s",
    "transition.content_hash.calls": "count",
    "spectral.decompose.self_s": "s",
    "spectral.decompose.calls": "count",
    "spectral.eigh_s": "s",
    "spectral.eigh.calls": "count",
    "spectral.eigh.share": "ratio",
    "accountant.pairwise_matrix.self_s": "s",
    "accountant.calibrate_sigma.self_s": "s",
    "accountant.mean_loss_by_distance.self_s": "s",
    "ioutil.write_matrix_csv.self_s": "s",
    "ioutil.write_rows_csv.self_s": "s",
    "ioutil.sha256_of_file.self_s": "s",
    "ioutil.bytes_written": "bytes",
    "walk.simulate.self_s": "s",
    "walk.steps": "count",
    "walk.steps_per_s": "1/s",
    "optim.run_rw_dpsgd.self_s": "s",
    "optim.run_local_dpsgd.self_s": "s",
    "optim.run_central_dpsgd.self_s": "s",
    "optim.gradient.calls": "count",
    "optim.gradient.self_s": "s",
    "datasets.synth_linear.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    exited: bool  # exit code 0; its timings count even if a check failed
    problems: list[str]


class Bench:
    """One benchmark run: a workload at a seed, with attempt and failure counts."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        refs = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
        self.ref = refs.get("any") or refs.get(str(seed))
        self.out = WORK / "out"

    def cli_args(self) -> list[str]:
        return [*self.w.args, self.w.seed_flag, str(self.seed), "--out", str(self.out)]

    def _spawn(self, cmd: list[str], stamp: Path | None) -> Invocation:
        if self.out.exists():
            shutil.rmtree(self.out)
        log = WORK / "stderr.txt"
        with open(log, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = None
        if stamp is not None and stamp.exists():
            setup = float(stamp.read_text(encoding="utf-8")) - t0
            stamp.unlink()
        if proc.returncode == 0:
            problems = checks.check_outputs(self.w.kind, self.out, self.seed, self.w.graph["n"], self.ref)
        elif t1 - t0 >= INVOCATION_TIMEOUT_S:
            problems = [f"timed out after {INVOCATION_TIMEOUT_S:.0f} s"]
        else:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            problems = [f"exit code {proc.returncode}: {' | '.join(tail)}"]
        inv = Invocation(t1 - t0, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, setup,
                         proc.returncode == 0, problems)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return inv

    def untraced(self) -> Invocation:
        stamp = WORK / "ready.txt"
        return self._spawn([sys.executable, "-c", LAUNCH, str(stamp), *self.cli_args()], stamp)

    def traced(self) -> tuple[Invocation, list]:
        spans_path = WORK / "spans.json"
        spans_path.unlink(missing_ok=True)
        inv = self._spawn([sys.executable, str(BENCH / "traced.py"), str(spans_path), *self.cli_args()], None)
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else []
        calls = {s[0] for s in spans}
        missing = sorted(self.w.require - calls)
        present = sorted(self.w.absent & calls)
        if not inv.problems and (missing or present):
            self.failed += 1
            self.problems.append(f"span guard: no calls to {missing}, unexpected calls to {present}")
        return inv, spans

    def record(self) -> dict:
        spec = dict(self.w.graph, seed=self.seed) if self.w.seeded else self.w.graph
        proc = subprocess.run([sys.executable, str(BENCH / "record.py"), json.dumps(spec)], cwd=ROOT,
                              env=self.env, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"run record failed: {proc.stderr.strip()}")
        rec = json.loads(proc.stdout)
        nproc = len(os.sched_getaffinity(0))
        if rec["blas_threads"] is not None and rec["blas_threads"] > nproc:
            self.problems.append(f"OpenBLAS uses {rec['blas_threads']} threads on {nproc} CPUs")
        return {
            "workload": self.name, "seed": self.seed, "argv": self.cli_args()[:-2],
            "nproc": nproc, "cpu_model": cpu_model(), "commit": git_commit(),
            **rec, "steps": self.w.steps,
        }


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced invocation (see LAYER_UNITS)."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    for i, (name, parent, start, end, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        for key, value in (extra or {}).items():
            attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value
    top = sum(end - start for _, parent, start, end, _ in spans if parent < 0)

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    m = {k: s(k.removesuffix(".self_s")) for k in LAYER_UNITS if k.endswith(".self_s")}
    m.update({k: calls.get(k.removesuffix(".calls"), 0) for k in LAYER_UNITS if k.endswith(".calls")})
    m["graphs.generate.attempts"] = attrs.get("graphs.generate.attempts", 0)
    m["graphs.edges"] = attrs.get("graphs.generate.edges", 0)
    m["transition.build.self_s"] = sum(s(f"transition.{b}") for b in (
        "hamilton_weighting", "blend_self_loops", "with_self_loops"))
    m["spectral.eigh_s"] = s("spectral.eigh")
    m["spectral.eigh.share"] = s("spectral.eigh") / wall_s
    m["ioutil.bytes_written"] = sum(attrs.get(f"ioutil.{f}.bytes", 0) for f in (
        "write_matrix_csv", "write_rows_csv", "dump_json"))
    m["walk.steps"] = attrs.get("walk.simulate.steps", 0)
    m["walk.steps_per_s"] = m["walk.steps"] / s("walk.simulate") if s("walk.simulate") > 0 else 0.0
    m["cli.self_s"] = wall_s - top
    m["trace.wall_s"] = wall_s
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tokenwalk" / "cli.py").exists():
        print(f"tokenwalk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    started = time.monotonic()
    bench = Bench(args.workload, args.seed)
    bench.untraced()  # warm-up: page cache and bytecode caches; checked, not timed
    record = bench.record()

    timed: list[Invocation] = []
    traced: list[tuple[Invocation, list]] = []
    deadline = time.monotonic() + args.seconds
    while len(timed) < MIN_SAMPLES or time.monotonic() < deadline:
        if time.monotonic() - started > RUN_BUDGET_S:
            break
        if args.trace:
            traced.append(bench.traced())
        timed.append(bench.untraced())
    shutil.rmtree(WORK)

    ok = [inv for inv in timed if inv.exited]
    if not ok:
        print(f"no untraced invocation exited cleanly: {bench.problems[:3]}", file=sys.stderr)
        return 1
    values: dict[str, list[float]] = {
        "wall_s": [i.wall_s for i in ok],
        "cpu_s": [i.cpu_s for i in ok],
        "setup_s": [i.setup_s for i in ok],
        "peak_rss_mb": [i.peak_rss_mb for i in ok],
    }
    units = END_TO_END_UNITS
    if args.trace:
        layers = [layer_metrics(spans, inv.wall_s) for inv, spans in traced if inv.exited]
        if not layers:
            print(f"no traced invocation exited cleanly: {bench.problems[:3]}", file=sys.stderr)
            return 1
        untraced_wall = statistics.median(values["wall_s"])
        values = {k: [m[k] for m in layers] for k in LAYER_UNITS if k != "trace.overhead_s"}
        values["trace.overhead_s"] = [m["trace.wall_s"] - untraced_wall for m in layers]
        units = LAYER_UNITS

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{bench.attempted} invocations, {bench.failed} failed")
    for name, vals in values.items():
        print(f"{name:42s} {statistics.median(vals):12.6g} {units[name]:6s} median of {len(vals)} (min {min(vals):.4g}, max {max(vals):.4g})")
    print(f"{'failed_frac':42s} {bench.failed / bench.attempted:12.6g} {'ratio':6s} "
          f"{bench.failed} of {bench.attempted} invocations")
    for problem in bench.problems[:10]:
        print(f"# problem: {problem}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": statistics.median(v), "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
