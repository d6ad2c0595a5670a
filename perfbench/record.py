"""Print one JSON line describing the Python stack and a workload's graph.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/record.py '{"family": "ring", "n": 256}'

The argument holds the ``GraphSpec`` fields of the workload's graph; the graph
is generated to report its node and edge counts.  The BLAS thread count is
read from the OpenBLAS library loaded by NumPy, so it is the count the CLI's
``eigh`` and matrix products run with.
"""

from __future__ import annotations

import ctypes
import json
import platform
import sys

import numpy
import scipy

from tokenwalk import graphs

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def openblas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_json: str) -> None:
    g = graphs.generate(graphs.GraphSpec(**json.loads(spec_json)))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
        "n": g.n,
        "edges": len(g.edges),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
