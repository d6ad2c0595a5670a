"""Dataset loading, preprocessing, and synthetic generators."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from tokenwalk import datasets
from tokenwalk.datasets import (
    Dataset,
    RawTable,
    load_csv,
    preprocess,
    synth_heterogeneous_geometric,
    synth_linear,
)
from tokenwalk.errors import DataError
from tokenwalk.graphs import GraphSpec, generate
from tokenwalk.optim import LogisticObjective, SgdConfig, run_local_dpsgd


# --------------------------------------------------------------------------- #
# CSV loading
# --------------------------------------------------------------------------- #


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_round_trip(tmp_path):
    p = _write(tmp_path, "ok.csv", "a,b,target\n1,2,3\n4,5,6\n")
    raw = load_csv(p, "target")
    assert raw.feature_names == ("a", "b")
    assert raw.label_name == "target"
    assert np.array_equal(raw.features, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(raw.labels, [3.0, 6.0])


def test_load_csv_label_position_agnostic(tmp_path):
    p = _write(tmp_path, "mid.csv", "a,target,b\n1,9,2\n")
    raw = load_csv(p, "target")
    assert np.array_equal(raw.features, [[1.0, 2.0]])
    assert raw.labels[0] == 9.0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("a,b\n1,2\n", "label column"),
        ("a,target\n1\n", "line 2: expected 2 cells"),
        ("a,target\n1,\n", "line 2, column 'target': missing"),
        ("a,target\nx,2\n", "line 2, column 'a': non-numeric"),
        ("a,target\ninf,2\n", "non-finite"),
        ("a,target\n", "no data rows"),
        ("", "empty file"),
    ],
)
def test_load_csv_errors(tmp_path, text, fragment):
    p = _write(tmp_path, "bad.csv", text)
    with pytest.raises(DataError, match=fragment.replace("(", "\\(")):
        load_csv(p, "target")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv(tmp_path / "absent.csv", "target")


def test_load_csv_skips_blank_lines(tmp_path):
    p = _write(tmp_path, "gaps.csv", "a,target\n1,2\n\n3,4\n")
    assert load_csv(p, "target").features.shape == (2, 1)


# --------------------------------------------------------------------------- #
# Preprocessing
# --------------------------------------------------------------------------- #


def _toy_raw(m=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return RawTable(
        features=rng.normal(loc=5.0, scale=2.0, size=(m, d)),
        labels=rng.normal(size=m),
        feature_names=tuple(f"f{i}" for i in range(d)),
        label_name="y",
    )


def test_preprocess_structure():
    ds = preprocess(_toy_raw(20), n_users=3, seed=1)
    assert len(ds.partition) == 3
    assert ds.test_indices.size == 4  # round(20 * 0.2)
    assert ds.train_indices.size == 16
    # disjoint cover of the training split
    joined = np.sort(np.concatenate(ds.partition))
    assert np.array_equal(joined, ds.train_indices)
    sizes = [b.size for b in ds.partition]
    assert sizes == [6, 5, 5]  # remainder to the earliest blocks
    # labels are exactly +-1; training rows are unit norm
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    norms = np.linalg.norm(ds.features[ds.train_indices], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_preprocess_statistics_from_train_only():
    raw = _toy_raw(50)
    ds = preprocess(raw, n_users=2, seed=3)
    train = raw.features[ds.train_indices]
    mean, std = train.mean(axis=0), train.std(axis=0)
    expected = (raw.features - mean) / std
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    assert np.allclose(ds.features, expected, atol=1e-12)
    median = np.median(raw.labels[ds.train_indices])
    assert np.array_equal(ds.labels, np.where(raw.labels >= median, 1.0, -1.0))


def test_preprocess_degenerate_column_zeroed():
    raw = _toy_raw(12)
    frozen = raw.features.copy()
    frozen[:, 1] = 7.0  # constant: train std is 0
    raw = RawTable(frozen, raw.labels, raw.feature_names, raw.label_name)
    ds = preprocess(raw, n_users=2, seed=0)
    assert np.all(ds.features[:, 1] == 0.0)


def test_preprocess_median_tie_goes_positive():
    raw = RawTable(
        features=np.eye(4) + 1.0,
        labels=np.array([2.0, 2.0, 2.0, 2.0]),
        feature_names=("a", "b", "c", "d"),
        label_name="y",
    )
    ds = preprocess(raw, n_users=2, seed=0)
    assert np.all(ds.labels == 1.0)


def test_preprocess_validation():
    with pytest.raises(DataError, match="cannot partition"):
        preprocess(_toy_raw(10), n_users=9, seed=0)  # only 8 train rows
    for n_users in (0, -1):  # refused before np.array_split
        with pytest.raises(DataError, match=f"across {n_users} users"):
            preprocess(_toy_raw(10), n_users=n_users, seed=0)


def test_preprocess_deterministic():
    a = preprocess(_toy_raw(30), n_users=4, seed=5)
    b = preprocess(_toy_raw(30), n_users=4, seed=5)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert all(np.array_equal(x, y) for x, y in zip(a.partition, b.partition))
    c = preprocess(_toy_raw(30), n_users=4, seed=6)
    assert not np.array_equal(a.train_indices, c.train_indices)


# --------------------------------------------------------------------------- #
# Synthetic generators
# --------------------------------------------------------------------------- #


def test_synth_linear_shapes_and_split():
    ds = synth_linear(128, 8, d=5, margin=0.2, seed=11)
    assert ds.train_indices.size == 1024
    assert ds.test_indices.size == 256  # ceil(0.25 * 1024)
    assert len(ds.partition) == 128
    assert all(b.size == 8 for b in ds.partition)
    assert np.allclose(np.linalg.norm(ds.features, axis=1), 1.0, atol=1e-12)


def test_synth_linear_margin_separability():
    ds = synth_linear(16, 12, d=6, margin=0.3, seed=7)
    # perceptron bound: unit rows with margin 0.3 need at most (1/0.3)^2 ~ 12
    # mistakes before separating -- a direct certificate of the margin
    x = np.zeros(6)
    feats, labels = ds.features, ds.labels
    mistakes = 0
    while True:
        margins = labels * (feats @ x)
        wrong = np.flatnonzero(margins <= 0)
        if wrong.size == 0:
            break
        i = wrong[0]
        x = x + labels[i] * feats[i]
        mistakes += 1
        assert mistakes <= 12
    assert np.all(labels * (feats @ x) > 0)


def test_synth_linear_validation():
    with pytest.raises(DataError):
        synth_linear(0, 8, d=2, margin=0.1, seed=0)
    with pytest.raises(DataError, match="margin"):
        synth_linear(4, 8, d=2, margin=1.0, seed=0)


@pytest.mark.parametrize("margin", [0.97, 0.99])
def test_synth_linear_refuses_a_margin_it_cannot_fill(margin):
    # In d = 8, margin 0.97 accepts 1.5e-5 of draws and 0.99 3.3e-7: without a
    # bound on the draws these took ~10 s and did not return.
    with pytest.raises(DataError, match=r"margin 0.9\d accepted \d+ of \d+ draws in d = 8 \(rate "):
        synth_linear(64, 8, d=8, margin=margin, seed=0)


def test_heterogeneous_needs_positions():
    ring = generate(GraphSpec(family="ring", n=8))
    with pytest.raises(DataError, match="positions"):
        synth_heterogeneous_geometric(ring, seed=0)


def _geo_graph(n=60, seed=5):
    return generate(GraphSpec(family="geometric", n=n, seed=seed))


def test_heterogeneous_spatial_label_structure():
    g = _geo_graph()
    ds = synth_heterogeneous_geometric(g, seed=2)
    n = g.n
    per_node_label = np.array(
        [float(np.sign(np.mean(ds.labels[blk]))) for blk in ds.partition]
    )
    # spatial rule: nodes whose coordinate sum is above the median get +1
    sums = g.positions.sum(axis=1)
    expected = np.where(sums >= np.median(sums), 1.0, -1.0)
    agreement = float(np.mean(per_node_label == expected))
    assert agreement >= 0.9


def test_heterogeneous_shuffle_breaks_geography_not_features():
    g = _geo_graph()
    plain = synth_heterogeneous_geometric(g, seed=4, shuffled=False)
    mixed = synth_heterogeneous_geometric(g, seed=4, shuffled=True)
    # shuffling permutes labels only; the feature matrix is identical
    assert np.array_equal(plain.features, mixed.features)
    assert not np.array_equal(plain.labels, mixed.labels)
    assert sorted(plain.labels.tolist()) == sorted(mixed.labels.tolist())

    sums = g.positions.sum(axis=1)
    above = sums >= np.median(sums)

    def geo_correlation(ds: Dataset) -> float:
        node_mean = np.array([float(np.mean(ds.labels[blk])) for blk in ds.partition])
        return float(np.corrcoef(node_mean, above.astype(float))[0, 1])

    assert geo_correlation(plain) >= 0.9
    assert abs(geo_correlation(mixed)) <= 0.5


def test_heterogeneous_split_and_norms():
    g = _geo_graph(40, seed=9)
    ds = synth_heterogeneous_geometric(g, seed=0)
    assert len(ds.partition) == 40
    # per node: 8 train + ceil(0.25 * 8) = 2 test rows
    assert ds.train_indices.size == 320
    assert ds.test_indices.size == 80
    assert np.allclose(np.linalg.norm(ds.features, axis=1), 1.0, atol=1e-12)
    joined = np.sort(np.concatenate([ds.train_indices, ds.test_indices]))
    assert np.array_equal(joined, np.arange(400))


# --------------------------------------------------------------------------- #
# Bundled sample and environment lookup
# --------------------------------------------------------------------------- #


def test_find_houses_csv_env(tmp_path, monkeypatch):
    monkeypatch.delenv(datasets.DATA_DIR_ENV, raising=False)
    found = datasets.find_houses_csv()
    assert found is None or found.name == "houses.csv"
    target = tmp_path / "houses.csv"
    target.write_text("a,median_house_value\n1,2\n")
    monkeypatch.setenv(datasets.DATA_DIR_ENV, str(tmp_path))
    assert datasets.find_houses_csv() == target
    # a directory without the file is ignored
    monkeypatch.setenv(datasets.DATA_DIR_ENV, str(tmp_path / "nope"))
    assert datasets.find_houses_csv() is None


def test_sample_houses_loads_and_trains():
    sample = Path(__file__).resolve().parents[1] / "data" / "houses_sample.csv"
    raw = load_csv(sample, "median_house_value")
    assert raw.features.shape[0] == 256
    assert "median_income" in raw.feature_names
    ds = preprocess(raw, n_users=16, seed=0)
    obj = LogisticObjective(ds)
    rec = run_local_dpsgd(obj, SgdConfig(steps=500, gamma=1.0))
    assert rec.accuracy is not None
    assert rec.accuracy[-1] >= 0.6  # informative features beat chance

