"""Small I/O helpers: atomic writes, full-precision CSV, content hashes."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable

import numpy as np

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "format_float",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_rows_csv",
    "sha256_of_file",
    "sha256_of_text",
    "dump_json",
]

# 17 significant digits round-trip any IEEE double.
_FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless for doubles)."""
    return _FLOAT_FMT % x


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write bytes to `path` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_matrix_csv(path: str | Path, matrix: np.ndarray, *, nan_as_empty: bool = False) -> None:
    """Write a dense 2-D array as CSV at full precision.

    NaN entries are written as empty cells when `nan_as_empty` is set (used for
    the undefined diagonal of pairwise loss matrices).  Each row is one
    newline-terminated line, so a matrix without rows is an empty file.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    row_fmt = ",".join([_FLOAT_FMT] * m.shape[1])
    lines = [row_fmt % tuple(row) for row in m.tolist()]
    text = "\n".join(lines) + "\n" if lines else ""
    if nan_as_empty:
        text = text.replace("nan", "")  # %.17g writes every NaN, and nothing else, as "nan"
    atomic_write_text(path, text)


def read_matrix_csv(path: str | Path, *, empty_as_nan: bool = False) -> np.ndarray:
    """Inverse of :func:`write_matrix_csv`: a blank line is one empty cell in a
    one-column file, and skipped in a file with more columns."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if any("," in line for line in lines):
        lines = [line for line in lines if line]
    rows = [
        [np.nan if (empty_as_nan and c == "") else float(c) for c in line.split(",")]
        for line in lines
    ]
    return np.asarray(rows, dtype=float)


def write_rows_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write a header + rows CSV; floats get full precision, the rest str()."""

    def cell(x: Any) -> str:
        if isinstance(x, float) or isinstance(x, np.floating):
            return format_float(float(x))
        return str(x)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def sha256_of_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dump_json(path: str | Path, obj: Any) -> None:
    """Write JSON with stable key order (atomic)."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
