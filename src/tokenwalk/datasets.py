"""Dataset loading, preprocessing, and synthetic generators.

Pipeline for real tables: z-score each feature with training statistics,
normalize every row to unit L2 norm, binarize the continuous target at the
training median, split 80/20, and partition the training set uniformly across
users.  Synthetic generators produce the same `Dataset` shape so the
optimizers never care where data came from.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .graphs import Graph

__all__ = [
    "RawTable",
    "Dataset",
    "load_csv",
    "require_users",
    "preprocess",
    "synth_linear",
    "synth_heterogeneous_geometric",
    "find_houses_csv",
    "DATA_DIR_ENV",
]

DATA_DIR_ENV = "TOKENWALK_DATA_DIR"

_STD_FLOOR = 1e-12

# preprocess holds out this share of a real table's rows for testing.
_TEST_FRACTION = 0.2

# synth_linear's rejection sampling gives up past this many draws per row it needs.
_MAX_DRAWS_PER_ROW = 1000

# synth_heterogeneous_geometric: training rows per node, the std of each row's
# offset from its node's position, and the gap opened between the two classes.
_GEOMETRIC_PER_USER = 8
_GEOMETRIC_JITTER = 0.05
_GEOMETRIC_MARGIN = 0.5


@dataclass(frozen=True)
class RawTable:
    """A parsed numeric CSV: feature matrix, raw (continuous) labels, names."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    label_name: str


@dataclass(frozen=True)
class Dataset:
    """Preprocessed, split, and partitioned data.

    `features` holds all rows (train and test) already transformed; training
    rows have unit L2 norm and labels are exactly +-1.  `partition` maps each
    node to its disjoint block of training row indices, so its length is the
    node count.
    """

    features: np.ndarray
    labels: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray
    partition: tuple[np.ndarray, ...]


# --------------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------------- #


def load_csv(path: str | Path, label_column: str) -> RawTable:
    """Read a numeric CSV with a header row.

    Non-numeric or missing cells are rejected with their (line, column)
    location; a header-only file is an empty-dataset error.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if label_column not in header:
                raise DataError(f"{path}: label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)
            feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

            rows: list[list[float]] = []
            labels: list[float] = []
            for lineno, cells in enumerate(reader, start=2):
                if not cells or (len(cells) == 1 and not cells[0].strip()):
                    continue
                if len(cells) != len(header):
                    raise DataError(
                        f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
                    )
                parsed: list[float] = []
                for col, cell in enumerate(cells):
                    text = cell.strip()
                    if not text:
                        raise DataError(
                            f"{path}: line {lineno}, column {header[col]!r}: missing value"
                        )
                    try:
                        value = float(text)
                    except ValueError:
                        raise DataError(
                            f"{path}: line {lineno}, column {header[col]!r}: "
                            f"non-numeric cell {text!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: line {lineno}, column {header[col]!r}: non-finite value"
                        )
                    parsed.append(value)
                labels.append(parsed.pop(label_idx))
                rows.append(parsed)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise DataError(f"{path}: no data rows (empty dataset)")
    return RawTable(
        features=np.asarray(rows, dtype=float),
        labels=np.asarray(labels, dtype=float),
        feature_names=feature_names,
        label_name=label_column,
    )


# --------------------------------------------------------------------------- #
# Preprocessing
# --------------------------------------------------------------------------- #


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms < _STD_FLOOR, 1.0, norms)
    return x / safe


def _test_rows(m: int) -> int:
    """Rows of an m-row table that :func:`preprocess` holds out for testing."""
    return int(round(m * _TEST_FRACTION))


def _require_users(n_train: int, n_users: int) -> None:
    if not 1 <= n_users <= n_train:
        raise DataError(f"cannot partition {n_train} training rows across {n_users} users")


def _partition_train(train_idx: np.ndarray, n_users: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    _require_users(train_idx.shape[0], n_users)
    shuffled = train_idx.copy()
    rng.shuffle(shuffled)
    return tuple(np.sort(block) for block in np.array_split(shuffled, n_users))


def require_users(raw: RawTable, n_users: int) -> None:
    """Refuse `n_users` for `raw` as :func:`preprocess` would, from the row
    count alone: no split is drawn and no feature is read."""
    m = raw.features.shape[0]
    _require_users(m - _test_rows(m), n_users)


def preprocess(raw: RawTable, n_users: int, seed: int) -> Dataset:
    """Standardize, normalize, binarize, split 80/20, and partition a raw table.

    All statistics (feature mean/std, label median) come from the training
    split only.  Features with train std below 1e-12 are zeroed.  Labels are
    +1 at or above the training median, -1 below.  The remainder of an uneven
    partition goes to the earliest blocks, one extra row each.
    """
    m = raw.features.shape[0]
    root = np.random.SeedSequence(seed)
    split_rng, part_rng = (np.random.default_rng(c) for c in root.spawn(2))

    order = split_rng.permutation(m)
    n_test = _test_rows(m)
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])
    if train_idx.size == 0:
        raise DataError("empty training split")

    mean = raw.features[train_idx].mean(axis=0)
    std = raw.features[train_idx].std(axis=0)
    scale = np.where(std < _STD_FLOOR, np.inf, std)  # degenerate columns -> 0
    features = _normalize_rows((raw.features - mean) / scale)

    median = float(np.median(raw.labels[train_idx]))
    labels = np.where(raw.labels >= median, 1.0, -1.0)

    return Dataset(
        features=features,
        labels=labels,
        train_indices=train_idx,
        test_indices=test_idx,
        partition=_partition_train(train_idx, n_users, part_rng),
    )


# --------------------------------------------------------------------------- #
# Synthetic data
# --------------------------------------------------------------------------- #


def synth_linear(
    n_users: int, per_user: int, d: int, margin: float, seed: int
) -> Dataset:
    """Linearly separable unit-norm Gaussian data from a random hyperplane.

    Rows with normalized margin below `margin` are resampled, so a separator
    with that margin exists by construction.  Training size is exactly
    ``n_users * per_user``; a 25%-of-train test set uses the same law.
    Resampling stops with :class:`DataError` after about
    ``_MAX_DRAWS_PER_ROW`` draws per row, that is when `margin` accepts
    fewer than ~0.1% of draws (margin 0.9 in d = 8; 0.3 accepts 43%).
    """
    if min(n_users, per_user, d) < 1:
        raise DataError("n_users, per_user, d must all be positive")
    if margin < 0.0 or margin >= 1.0:
        raise DataError(f"margin must be in [0, 1), got {margin}")
    root = np.random.SeedSequence(seed)
    plane_rng, sample_rng, part_rng = (np.random.default_rng(c) for c in root.spawn(3))

    w = plane_rng.normal(size=d)
    w /= np.linalg.norm(w)

    n_train = n_users * per_user
    n_test = int(math.ceil(0.25 * n_train))
    need = n_train + n_test
    feats = np.empty((need, d))
    labs = np.empty(need)
    have = drawn = 0
    while have < need:
        if drawn >= _MAX_DRAWS_PER_ROW * need:
            raise DataError(
                f"margin {margin} accepted {have} of {drawn} draws in d = {d} (rate {have / drawn:.2g}); "
                f"{need} rows would take more than {_MAX_DRAWS_PER_ROW} draws per row"
            )
        batch = _normalize_rows(sample_rng.normal(size=(2 * (need - have) + 16, d)))
        drawn += len(batch)
        margins = batch @ w
        keep = np.abs(margins) >= margin
        take = min(int(keep.sum()), need - have)
        feats[have : have + take] = batch[keep][:take]
        labs[have : have + take] = np.where(margins[keep][:take] >= 0.0, 1.0, -1.0)
        have += take

    train_idx = np.arange(n_train)
    test_idx = np.arange(n_train, need)
    return Dataset(
        features=feats,
        labels=labs,
        train_indices=train_idx,
        test_indices=test_idx,
        partition=_partition_train(train_idx, n_users, part_rng),
    )


def synth_heterogeneous_geometric(graph: Graph, seed: int, shuffled: bool = False) -> Dataset:
    """Spatially correlated data on a geometric graph.

    Each node holds ``_GEOMETRIC_PER_USER`` training rows and a quarter as
    many (at least one) test rows, which jitter around its stored position
    with std ``_GEOMETRIC_JITTER``; the label is the sign of the coordinate
    sum relative to its median, and the two classes are pushed
    ``_GEOMETRIC_MARGIN`` apart along the diagonal so the label is strongly
    recoverable from the coordinates.  Features are row-normalized
    ``[x1, x2, 1]`` -- the raw coordinate sum stays recoverable as
    ``(f1 + f2) / f3``.  With `shuffled`, labels are permuted uniformly
    (same features, same label multiset, spatial correlation destroyed).
    """
    if graph.positions is None:
        raise DataError("heterogeneous synthesis needs a graph with node positions")
    root = np.random.SeedSequence(seed)
    jitter_rng, split_rng, shuffle_rng = (np.random.default_rng(c) for c in root.spawn(3))

    n = graph.n
    n_test_per_user = max(1, int(math.ceil(0.25 * _GEOMETRIC_PER_USER)))
    total_per_user = _GEOMETRIC_PER_USER + n_test_per_user
    coords = np.repeat(graph.positions, total_per_user, axis=0)
    coords = coords + jitter_rng.normal(scale=_GEOMETRIC_JITTER, size=coords.shape)

    sums = coords.sum(axis=1)
    median = float(np.median(sums))
    labels = np.where(sums >= median, 1.0, -1.0)
    coords = coords + (_GEOMETRIC_MARGIN / 4.0) * labels[:, None]  # open a gap along (1,1)

    features = _normalize_rows(
        np.column_stack([coords[:, 0], coords[:, 1], np.ones(coords.shape[0])])
    )
    if shuffled:
        labels = labels[shuffle_rng.permutation(labels.shape[0])]

    # Per node: first _GEOMETRIC_PER_USER rows train, the rest test (held out uniformly
    # in expectation because jitter draws are exchangeable).
    train_rows, test_rows, partition = [], [], []
    for v in range(n):
        block = np.arange(v * total_per_user, (v + 1) * total_per_user)
        local_order = split_rng.permutation(total_per_user)
        train_block = np.sort(block[local_order[:_GEOMETRIC_PER_USER]])
        train_rows.append(train_block)
        test_rows.append(block[local_order[_GEOMETRIC_PER_USER:]])
        partition.append(train_block)

    return Dataset(
        features=features,
        labels=labels,
        train_indices=np.sort(np.concatenate(train_rows)),
        test_indices=np.sort(np.concatenate(test_rows)),
        partition=tuple(partition),
    )


# --------------------------------------------------------------------------- #
# Data discovery
# --------------------------------------------------------------------------- #


def find_houses_csv() -> Path | None:
    """Full Houses table under $TOKENWALK_DATA_DIR, if fetched."""
    base = os.environ.get(DATA_DIR_ENV)
    if not base:
        return None
    candidate = Path(base) / "houses.csv"
    return candidate if candidate.is_file() else None

