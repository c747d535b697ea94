"""Dataset generation, normalization, and persistence tests."""

import hashlib
import re

import numpy as np
import pytest

from fetfit.dataset import (
    Dataset,
    Normalizer,
    build_dataset,
    fit_normalizer,
    load_dataset,
    sample_params,
    save_dataset,
)
from fetfit.errors import ConfigError, DataError
from fetfit.features import FEATURE_NAMES, FeatureConfig, featurize
from fetfit.device import simulate_curveset
from fetfit.params import DEFAULT_RANGES, PARAM_NAMES, ParamRanges

# sha256 of the n=100, seed=1 dataset CSV, recorded after the first
# oracle-validated run (self-consistency pin for this implementation).
GOLDEN_DATASET_SHA256 = "7ae6b8782ef757f31d8e3b6a68d26198b4e7da2aa08d7ad7521813aa57ba4506"


def degenerate_ranges(value_map=None):
    base = {n: list(DEFAULT_RANGES.bounds[n]) for n in PARAM_NAMES}
    if value_map:
        for k, v in value_map.items():
            base[k] = v
    return ParamRanges.from_dict(base)


def test_sample_params_within_bounds():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        p = sample_params(DEFAULT_RANGES, rng)
        assert DEFAULT_RANGES.contains(p)
        assert p.CGGMIN + 0.1 <= p.CGGMAX


def test_sample_params_degenerate_range_is_constant():
    rng = np.random.default_rng(1)
    ranges = degenerate_ranges({"PHIG": [4.5, 4.5], "IOFF0": [1e-9, 1e-9]})
    draws = [sample_params(ranges, rng) for _ in range(20)]
    assert all(p.PHIG == 4.5 for p in draws)
    assert all(p.IOFF0 == pytest.approx(1e-9, rel=1e-12) for p in draws)


def test_sample_params_incompatible_margin_errors():
    ranges = degenerate_ranges({"CGGMAX": [0.6, 0.61], "CGGMIN": [0.55, 0.59]})
    rng = np.random.default_rng(2)
    with pytest.raises(ConfigError):
        sample_params(ranges, rng)


def test_sample_params_uniform_mean():
    rng = np.random.default_rng(3)
    vals = np.array([sample_params(DEFAULT_RANGES, rng).PHIG for _ in range(100_000)])
    sigma = (4.60 - 4.30) / np.sqrt(12.0)
    assert abs(vals.mean() - 4.45) < 3 * sigma / np.sqrt(len(vals))


def test_build_dataset_shapes_and_split():
    ds = build_dataset(200, seed=5)
    assert ds.X.shape == (200, 24) and ds.Y.shape == (200, 14)
    assert len(ds.indices("train")) == 160
    assert len(ds.indices("val")) == 20
    assert len(ds.indices("test")) == 20
    all_idx = np.sort(np.concatenate([ds.indices(s) for s in ("train", "val", "test")]))
    assert np.array_equal(all_idx, np.arange(200))


def test_build_dataset_rows_match_featurize():
    ds = build_dataset(100, seed=6)
    for i in (0, 57, 99):
        from fetfit.params import ModelParams
        p = ModelParams.from_vector(ds.Y[i])
        np.testing.assert_array_equal(ds.X[i], featurize(simulate_curveset(p), FeatureConfig()))


def test_build_dataset_deterministic():
    a = build_dataset(100, seed=7)
    b = build_dataset(100, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.split, b.split)


def test_build_dataset_threads_match_sequential():
    a = build_dataset(100, seed=8, threads=1)
    b = build_dataset(100, seed=8, threads=4)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)


def test_build_dataset_rejects_small_n():
    with pytest.raises(ConfigError):
        build_dataset(50, seed=9)


def test_fit_normalizer_stats_on_train_only():
    ds = build_dataset(300, seed=10)
    norm = fit_normalizer(ds)
    tr = ds.indices("train")
    Xn = norm.normalize_features(ds.X[tr])
    assert np.all(np.abs(Xn.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(Xn.std(axis=0) - 1.0) < 1e-9)
    # perturbing a test row never changes the normalizer
    ds2 = Dataset(X=ds.X.copy(), Y=ds.Y.copy(), split=ds.split.copy(),
                  seed=ds.seed, ranges=ds.ranges)
    ds2.X[ds2.indices("test")[0]] *= 100.0
    norm2 = fit_normalizer(ds2)
    assert np.array_equal(norm.feat_mean, norm2.feat_mean)
    assert np.array_equal(norm.feat_std, norm2.feat_std)


def test_normalizer_round_trip_identity():
    ds = build_dataset(150, seed=11)
    norm = fit_normalizer(ds)
    rng = np.random.default_rng(12)
    X = rng.normal(size=(20, 24)) * norm.feat_std + norm.feat_mean
    np.testing.assert_allclose(norm.denormalize_features(norm.normalize_features(X)), X, rtol=1e-12)
    Y = rng.uniform(size=(20, 14)) * (norm.param_hi - norm.param_lo) + norm.param_lo
    np.testing.assert_allclose(norm.denormalize_params(norm.normalize_params(Y)), Y, rtol=1e-12)


def test_fit_normalizer_zero_variance_errors():
    ds = build_dataset(120, seed=13)
    ds.X[:, 3] = 1.0
    with pytest.raises(ConfigError):
        fit_normalizer(ds)


def test_save_load_round_trip(tmp_path):
    ds = build_dataset(100, seed=14)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)
    assert np.array_equal(back.split, ds.split)
    assert back.seed == ds.seed
    assert back.ranges.to_dict() == ds.ranges.to_dict()
    # file layout: meta line + header + n rows
    lines = path.read_text().splitlines()
    assert len(lines) == 100 + 2
    assert lines[1].split(",") == list(FEATURE_NAMES) + list(PARAM_NAMES) + ["split"]


def test_load_rejects_malformed(tmp_path):
    good = tmp_path / "ds.csv"
    save_dataset(build_dataset(100, seed=15), good)
    text = good.read_text()

    no_meta = tmp_path / "no_meta.csv"
    no_meta.write_text("\n".join(text.splitlines()[1:]))
    with pytest.raises(DataError):
        load_dataset(no_meta)

    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[0] = "nan"
    lines[2] = ",".join(cells)
    nan_cell = tmp_path / "nan.csv"
    nan_cell.write_text("\n".join(lines))
    with pytest.raises(DataError):
        load_dataset(nan_cell)


def test_dataset_bytes_golden(tmp_path):
    ds = build_dataset(100, seed=1)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_DATASET_SHA256


@pytest.mark.parametrize("row, reason", [
    (lambda cells: cells[:-2] + cells[-1:], "expected 39 cells"),
    (lambda cells: cells[:5] + ["0.5x"] + cells[6:], "could not convert"),
    (lambda cells: cells[:-1] + ["holdout"], "bad split label 'holdout'"),
    (lambda cells: ["#" + cells[0]] + cells[1:], "could not convert"),
], ids=["cell-count", "unparsable", "split-label", "hash-row"])
def test_load_names_bad_line(tmp_path, row, reason):
    good = tmp_path / "ds.csv"
    save_dataset(build_dataset(100, seed=15), good)
    lines = good.read_text().splitlines()
    lines[40] = ",".join(row(lines[40].split(",")))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(bad))}:41: .*{reason}"):
        load_dataset(bad)
