"""Dataset generation, normalization, and persistence tests."""

import hashlib
import json
import re

import numpy as np
import pytest

from fetfit.dataset import (
    GEN_BLOCK,
    RNG_ALGORITHM,
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
from fetfit.params import (DEFAULT_RANGES, LOG_UNIFORM_PARAMS, PARAM_NAMES, ModelParams,
                           ParamRanges)

from ._dispatch import golden
from ._sampling import draw_sequential

# sha256 of the n=100, seed=1 dataset CSV per CPU dispatch family, recorded
# after the first oracle-validated run (self-consistency pin for this
# implementation); the X86_V3 entry was recorded on an AVX-512 host with
# the AVX-512 loops disabled. Re-recorded when the meta line gained the
# feature settings; the rows kept their bytes.
GOLDEN_DATASET_SHA256 = {
    "X86_V4": "64f52369afae6d0b93bf002484ddb9e94da55d8d1727362d9567e0c1d3ec3b14",
    "X86_V3": "f2720008d6b12cf098bb51d4d2761178b49c6018e18f1f0d6390220bdf371322",
}


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


@pytest.mark.parametrize("ranges", [
    DEFAULT_RANGES,
    # CGGMAX/CGGMIN overlap, so about half the draws are rejected and redrawn
    degenerate_ranges({"CGGMAX": [0.6, 0.8], "CGGMIN": [0.45, 0.75]}),
], ids=["default", "rejecting"])
def test_sample_params_block_equals_sequential_draws(ranges):
    rng_block, rng_seq = np.random.default_rng(16), np.random.default_rng(16)
    block = sample_params(ranges, rng_block, size=300)
    want = np.array([p.to_vector() for p in draw_sequential(rng_seq, 300, ranges)])
    assert block.shape == (300, len(PARAM_NAMES))
    assert np.array_equal(block, want)
    assert rng_block.uniform() == rng_seq.uniform()  # the stream ends in the same state


def test_sample_params_single_is_a_block_of_one():
    p = sample_params(DEFAULT_RANGES, np.random.default_rng(17))
    want = draw_sequential(np.random.default_rng(17), 1)[0]
    assert p == want


def test_sample_params_block_incompatible_margin_errors():
    ranges = degenerate_ranges({"CGGMAX": [0.6, 0.61], "CGGMIN": [0.55, 0.59]})
    with pytest.raises(ConfigError, match="100 draws in a row"):
        sample_params(ranges, np.random.default_rng(18), size=50)


def test_featurize_block_equals_single_devices():
    block = sample_params(DEFAULT_RANGES, np.random.default_rng(19), size=500)
    X = featurize(simulate_curveset(block), FeatureConfig())
    rows = [featurize(simulate_curveset(ModelParams.from_vector(p)), FeatureConfig())
            for p in block]
    assert X.shape == (500, len(FEATURE_NAMES))
    assert np.array_equal(X, np.array(rows))


def test_build_dataset_names_first_failing_device_and_count():
    # a leakage floor above i_crit: every device's low-Vds curve starts above it
    ranges = degenerate_ranges({"IOFF0": [2e-7, 3e-7]})
    with pytest.raises(DataError) as info:
        build_dataset(300, seed=20, ranges=ranges)
    msg = str(info.value)
    assert "featurize failed for 300 of 300 sampled devices" in msg
    first = sample_params(ranges, np.random.default_rng(20))
    assert json.dumps(first.to_dict()) in msg
    assert re.search(r"IV low-Vds: Vth: curve starts at \S+ A, already above i_crit", msg)


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
    """The feature settings travel with the corpus and on to its normalizer."""
    fcfg = FeatureConfig(i_crit=1.5e-7, ss_lo=4e-9)
    ds = build_dataset(100, seed=14, feature_cfg=fcfg)
    assert np.array_equal(ds.X[0], featurize(simulate_curveset(ModelParams.from_vector(ds.Y[0])),
                                             fcfg))
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)
    assert np.array_equal(back.split, ds.split)
    assert back.seed == ds.seed
    assert back.ranges.to_dict() == ds.ranges.to_dict()
    assert back.feature_cfg == ds.feature_cfg == fcfg
    norm = fit_normalizer(back)
    assert norm.feature_cfg == Normalizer.from_dict(norm.to_dict()).feature_cfg == fcfg
    # file layout: meta line + header + n rows
    lines = path.read_text().splitlines()
    assert json.loads(lines[0][len("# meta "):])["features"] == {
        "i_crit": 1.5e-7, "ss_lo": 4e-9, "ss_hi": 3e-8}
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

    # a meta line that is not an object, with a bad seed, n, ranges or
    # feature settings, with another sampler's provenance or with a key
    # save_dataset does not write, names the file
    meta = json.loads(text.splitlines()[0][len("# meta "):])
    inverted = {**meta["ranges"], "PHIG": [4.6, 4.3]}
    features = meta["features"]
    for i, bad_meta in enumerate([
        {k: v for k, v in meta.items() if k != "seed"},
        {**meta, "seed": "x"},
        {**meta, "seed": 2.0},
        {**meta, "seed": -1},
        {**meta, "ranges": {**meta["ranges"], "PHIG": "ab"}},
        {**meta, "ranges": {**meta["ranges"], "PHIG": [4.3]}},
        *({**meta, "ranges": {**meta["ranges"], "PHIG": v}}
          for v in ({}, "45", [4.3, 4.6, 9.9], [True, 4.6], ["4.3", "4.6"])),
        {**meta, "ranges": inverted},
        {k: v for k, v in meta.items() if k != "ranges"},
        [],
        {k: v for k, v in meta.items() if k != "features"},
        {**meta, "features": []},
        {**meta, "features": {k: v for k, v in features.items() if k != "i_crit"}},
        {**meta, "features": {**features, "ss_lo": 4e-8}},  # ss_lo > ss_hi
        {**meta, "features": {**features, "i_crit": "1e-7"}},
        {**meta, "features": {**features, "i_crit_v": 0.3}},
        {k: v for k, v in meta.items() if k != "n"},
        {**meta, "n": 100.0},
        {**meta, "n": 0},
        {**meta, "n": 101},  # a row more than the file holds
        {**meta, "n": 99},
        {**meta, "rng": "mt19937"},
        {**meta, "log_uniform": ["PHIG"]},
        {**meta, "bogus": 1},
    ]):
        path = tmp_path / f"meta{i}.csv"
        path.write_text("\n".join(["# meta " + json.dumps(bad_meta)] + text.splitlines()[1:]))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*meta line"):
            load_dataset(path)

    # a body cut at a row boundary, as a killed writer leaves it
    short = tmp_path / "short.csv"
    short.write_text("\n".join(text.splitlines()[:-3]) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(short))}: the meta line gives "
                                        "n = 100, but the file holds 97 data rows$"):
        load_dataset(short)


def dataset_digest(tmp_path) -> str:
    path = tmp_path / "ds.csv"
    save_dataset(build_dataset(100, seed=1), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_dataset_bytes_golden(tmp_path):
    assert dataset_digest(tmp_path) == golden(GOLDEN_DATASET_SHA256, "dataset digest")


def save_dataset_by_row(ds, path):
    """The row-by-row writer, kept as the reference for the bytes that
    ``save_dataset`` writes a chunk of rows at a time."""
    meta = {"seed": ds.seed, "n": ds.n, "rng": RNG_ALGORITHM, "ranges": ds.ranges.to_dict(),
            "features": {"i_crit": ds.feature_cfg.i_crit, "ss_lo": ds.feature_cfg.ss_lo,
                         "ss_hi": ds.feature_cfg.ss_hi},
            "log_uniform": sorted(LOG_UNIFORM_PARAMS)}
    cols = list(FEATURE_NAMES) + list(PARAM_NAMES) + ["split"]
    lines = ["# meta " + json.dumps(meta, sort_keys=True), ",".join(cols)]
    for x, y, label in zip(ds.X, ds.Y, ds.split):
        lines.append(",".join(["%.17g" % v for v in (*x, *y)] + [label]))
    path.write_text("\n".join(lines) + "\n")


def test_save_dataset_matches_the_row_by_row_writer(tmp_path):
    ds = build_dataset(600, seed=26)  # two full chunks of GEN_BLOCK rows and a partial one
    assert 2 * GEN_BLOCK < ds.n < 3 * GEN_BLOCK
    save_dataset(ds, tmp_path / "ds.csv")
    save_dataset_by_row(ds, tmp_path / "ref.csv")
    assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
