"""Run the tokenwalk CLI with spans around the public function of each layer.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/traced.py SPANS.json <tokenwalk CLI arguments...>

Every function in :data:`SPANS` is replaced by a wrapper wherever a tokenwalk
module holds a reference to it, not only in the module that defines it:
``accountant`` binds ``decompose`` and the CSV writers by name and ``optim``
binds ``simulate``, so patching only the defining module would miss those
calls.  Methods are wrapped on their class.  Spans stay in memory and are
written to SPANS.json when the command returns, as a list of
``[name, parent_index, start, end, attrs]`` with parent -1 at the top level.
The program under ``src/`` is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _graph_attrs(args, kwargs, g):
    return {"attempts": g.retries + 1, "edges": len(g.edges)}


def _bytes_attrs(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _walk_attrs(args, kwargs, traj):
    return {"steps": traj.steps}


# span name -> (module, attribute path, attrs(args, kwargs, result) or None)
SPANS = {
    "graphs.generate": ("tokenwalk.graphs", "generate", _graph_attrs),
    "graphs.shortest_path_distances": ("tokenwalk.graphs", "shortest_path_distances", None),
    "transition.hamilton_weighting": ("tokenwalk.transition", "hamilton_weighting", None),
    "transition.blend_self_loops": ("tokenwalk.transition", "blend_self_loops", None),
    "transition.with_self_loops": ("tokenwalk.transition", "with_self_loops", None),
    "transition.validate": ("tokenwalk.transition", "validate", None),
    "transition.content_hash": ("tokenwalk.transition", "TransitionMatrix.content_hash", None),
    "spectral.decompose": ("tokenwalk.spectral", "decompose", None),
    "spectral.matrix_log_term": ("tokenwalk.spectral", "matrix_log_term", None),
    "spectral.eigh": ("numpy.linalg", "eigh", None),
    "accountant.pairwise_matrix": ("tokenwalk.accountant", "pairwise_matrix", None),
    "accountant.calibrate_sigma": ("tokenwalk.accountant", "calibrate_sigma", None),
    "accountant.calibrate_sigma_local": ("tokenwalk.accountant", "calibrate_sigma_local", None),
    "accountant.mean_loss_by_distance": ("tokenwalk.accountant", "mean_loss_by_distance", None),
    "ioutil.write_matrix_csv": ("tokenwalk.ioutil", "write_matrix_csv", _bytes_attrs),
    "ioutil.write_rows_csv": ("tokenwalk.ioutil", "write_rows_csv", _bytes_attrs),
    "ioutil.dump_json": ("tokenwalk.ioutil", "dump_json", _bytes_attrs),
    "ioutil.sha256_of_file": ("tokenwalk.ioutil", "sha256_of_file", None),
    "walk.simulate": ("tokenwalk.walk", "simulate", _walk_attrs),
    "optim.run_rw_dpsgd": ("tokenwalk.optim", "run_rw_dpsgd", None),
    "optim.run_local_dpsgd": ("tokenwalk.optim", "run_local_dpsgd", None),
    "optim.run_central_dpsgd": ("tokenwalk.optim", "run_central_dpsgd", None),
    "optim.gradient": ("tokenwalk.optim", "LogisticObjective.gradient", None),
    "datasets.synth_linear": ("tokenwalk.datasets", "synth_linear", None),
}


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of SPANS at its definition and at each import site."""
        sites = [m for n, m in sys.modules.items() if n == "tokenwalk" or n.startswith("tokenwalk.")]
        for name, (module_name, attr, attrs) in SPANS.items():
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:  # a method: wrapping the class covers every caller
                owner = getattr(module, owner_name)
                setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), attrs))
                continue
            original = getattr(module, leaf)
            wrapper = self.wrap(name, original, attrs)
            for site in [module, *sites]:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from tokenwalk import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
