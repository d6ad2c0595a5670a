"""Full-precision matrix CSV: the row-formatted writer against a per-cell reference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import read_matrix_csv
from tokenwalk import ioutil
from tokenwalk.ioutil import write_matrix_csv

_TINY = 5e-324  # smallest subnormal


def _reference_csv(matrix: np.ndarray) -> bytes:
    """One cell at a time: '' for NaN, else 17 significant digits."""
    lines = []
    for row in matrix:
        cells = []
        for x in row:
            if math.isnan(x):
                cells.append("")
            else:
                cells.append("%.17g" % float(x))
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode("utf-8")


def _special_values() -> np.ndarray:
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 7)) * 10.0 ** rng.integers(-300, 300, size=(6, 7))
    m[0, :4] = [np.nan, 0.0, -0.0, np.inf]
    m[1, 1:6] = [-np.inf, _TINY, -_TINY, 2.2250738585072009e-308, 1e308]
    m[2, [0, 6]] = [-1e308, np.nan]
    m[4, :] = np.nan
    return m


def _multi_block() -> np.ndarray:
    """150 x 7: the writer's three 64-row blocks, NaN rows on both sides of each block edge."""
    rng = np.random.default_rng(9)
    m = rng.standard_normal((150, 7)) * 10.0 ** rng.integers(-20, 20, size=(150, 7))
    m[[0, 63, 64, 127, 128, 149], :] = np.nan
    m[np.arange(150), np.arange(150) % 7] = np.nan
    return m


_CASES = {
    "special": _special_values(),
    "150x7-blocks": _multi_block(),
    "1x1": np.array([[0.1]]),
    "1x1-nan": np.array([[np.nan]]),
    "1x5": np.array([[1.0, np.nan, -0.0, 1 / 3, -np.inf]]),
    "5x1": np.array([[np.nan], [0.0], [1e-310], [-2.5], [np.inf]]),
    "0x3": np.zeros((0, 3)),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_write_matrix_csv_matches_per_cell_reference(tmp_path, name):
    m = _CASES[name]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert path.read_bytes() == _reference_csv(m)
    back = read_matrix_csv(path)
    if m.size:
        assert back.shape == m.shape
        assert back.tobytes() == m.tobytes()
    else:  # an empty file: no rows, and no column count to recover
        assert back.size == 0


def test_write_matrix_csv_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_matrix_csv(tmp_path / "m.csv", np.zeros(3))


def test_write_matrix_csv_failure_mid_stream_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    path.write_bytes(b"old contents\n")
    blocks = []
    format_block = ioutil._csv_block

    def fail_on_second_block(*args):
        if blocks:
            raise OSError("disk full")
        blocks.append(format_block(*args))
        return blocks[-1]

    monkeypatch.setattr(ioutil, "_csv_block", fail_on_second_block)
    with pytest.raises(OSError, match="disk full"):
        write_matrix_csv(path, _multi_block())
    assert len(blocks) == 1  # the first block was written to the temp file
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]


def test_write_matrix_csv_blocks_stay_under_the_mmap_threshold(tmp_path, monkeypatch):
    # 25-byte cells, 1024 to a row: 64-row blocks would be 1.6 MB of text each.
    blocks = []
    format_block = ioutil._csv_block

    def recording(*args):
        blocks.append(format_block(*args))
        return blocks[-1]

    monkeypatch.setattr(ioutil, "_csv_block", recording)
    m = np.full((9, 1024), -1.2345678901234567e-300)
    write_matrix_csv(tmp_path / "m.csv", m)
    assert b"".join(blocks) == _reference_csv(m)
    assert len(blocks) == 3 and max(map(len, blocks)) < 2**17


def test_write_matrix_csv_memory_is_one_block(tmp_path, traced_peak):
    # The whole text of this matrix is ~5.5 MB; the writer holds one block's.
    m = np.random.default_rng(3).random((512, 512)) * 1e-3
    np.fill_diagonal(m, np.nan)
    assert traced_peak(write_matrix_csv, tmp_path / "m.csv", m) <= 2 * 2**20
