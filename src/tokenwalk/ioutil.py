"""Small I/O helpers: atomic writes, full-precision CSV, content hashes, sidecar names."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

import numpy as np

__all__ = [
    "atomic_write_text",
    "write_matrix_csv",
    "write_rows_csv",
    "new_sha256",
    "sha256_of_file",
    "sha256_of_text",
    "dump_json",
    "sidecar",
]

# 17 significant digits round-trip any IEEE double.
_FLOAT_FMT = "%.17g"

# Rows per block of `write_matrix_csv`'s streamed text: at most
# _CSV_BLOCK_ROWS, and at most _CSV_BLOCK_CELLS cells unless one row holds more.
# At 25 bytes a cell, a block's text, its NaN-free copy and its bytes then stay
# under the 128 KiB mmap threshold that tokenwalk.cli fixes, so they are reused
# from the heap instead of being mapped and faulted in anew for every block.
_CSV_BLOCK_ROWS = 64
_CSV_BLOCK_CELLS = 4096


@contextlib.contextmanager
def _atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """Binary file handle on a temp file in `path`'s directory, renamed onto
    `path` when the block exits cleanly and removed when it raises.  The
    directory is made here, the package's one maker of directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write `text`, or each of its chunks in turn, as UTF-8 to `path` via a
    temp file + rename in the same directory."""
    with _atomic_file(path) as fh:
        for chunk in [text] if isinstance(text, str) else text:
            fh.write(chunk.encode("utf-8"))


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    """Write a dense 2-D array as CSV at full precision.

    NaN entries (the undefined diagonal of pairwise loss matrices) are written
    as empty cells.  Each row is one newline-terminated line, so a matrix
    without rows is an empty file.

    The text is formatted, encoded and written a block of whole rows at a
    time: ``_CSV_BLOCK_ROWS`` rows, fewer where that would exceed
    ``_CSV_BLOCK_CELLS`` cells, and at least one.  Beyond the matrix itself
    the writer holds at most two copies of one block's text, whatever the row
    count: a cell takes at most 25 bytes, so that is about 200 kB, or 50 bytes
    per column where one row holds more cells.  The file appears at `path`
    only once complete.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    row_fmt = ",".join([_FLOAT_FMT] * m.shape[1]) + "\n"
    block = max(1, min(_CSV_BLOCK_ROWS, _CSV_BLOCK_CELLS // max(1, m.shape[1])))
    with _atomic_file(path) as fh:
        for start in range(0, m.shape[0], block):
            fh.write(_csv_block(m[start : start + block], row_fmt))


def _csv_block(rows: np.ndarray, row_fmt: str) -> bytes:
    """`rows` as encoded CSV lines; its text is freed when it returns."""
    text = "".join([row_fmt % tuple(row.tolist()) for row in rows])
    # %.17g writes every NaN, and nothing else, as "nan"; a block holds whole
    # cells, so no "nan" spans two blocks.
    text = text.replace("nan", "")
    return text.encode("utf-8")


def write_rows_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write a header + rows CSV; floats get full precision, the rest str()."""

    def cell(x: Any) -> str:
        if isinstance(x, float) or isinstance(x, np.floating):
            return _FLOAT_FMT % float(x)
        return str(x)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def new_sha256(data: bytes = b""):
    """``hashlib.sha256(data)``, with `hashlib` imported at the first hash.

    Importing `hashlib` maps OpenSSL's libcrypto (a few MB of resident memory),
    so a run that hashes only its outputs maps it after its numerical work.
    """
    import hashlib

    return hashlib.sha256(data)


def sha256_of_file(path: str | Path) -> str:
    h = new_sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_of_text(text: str) -> str:
    return new_sha256(text.encode("utf-8")).hexdigest()


def dump_json(path: str | Path, obj: Any) -> None:
    """Write JSON with stable key order (atomic)."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def sidecar(path: str | Path) -> Path:
    """The JSON metadata file that accompanies `path`: ``edges.txt`` -> ``edges.txt.json``."""
    path = Path(path)
    return path.with_name(path.name + ".json")
