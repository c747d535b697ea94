"""Monte Carlo training-corpus generation and normalization.

Samples parameter sets, simulates and featurizes each device, splits the
rows 80/10/10, and persists everything as a single CSV with a JSON metadata
line. Given (n, seed, ranges) the output bytes are fully deterministic.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .device import simulate_curveset
from .errors import ConfigError, DataError, ExtractionError
from .features import FEATURE_NAMES, FeatureConfig, featurize
from .params import (
    DEFAULT_RANGES,
    LOG_UNIFORM_PARAMS,
    PARAM_NAMES,
    ModelParams,
    ParamRanges,
)

log = logging.getLogger(__name__)

RNG_ALGORITHM = "numpy-pcg64"
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)
SPLIT_LABELS = ("train", "val", "test")
_MAX_RESAMPLE = 100


def sample_params(ranges: ParamRanges, rng: np.random.Generator) -> ModelParams:
    """One in-range draw: uniform per parameter, log-uniform for IOFF0,
    resampling (up to 100 tries) while the C-V plateau margin is violated."""
    for _ in range(_MAX_RESAMPLE):
        vals = {}
        for name in PARAM_NAMES:
            lo, hi = ranges.bounds[name]
            if name in LOG_UNIFORM_PARAMS:
                vals[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                vals[name] = float(rng.uniform(lo, hi))
        if vals["CGGMIN"] + 0.1 > vals["CGGMAX"]:
            continue
        return ModelParams(**vals)
    raise ConfigError(
        "sampling rejected 100 draws in a row; the CGGMIN/CGGMAX ranges are incompatible"
    )


@dataclass
class Dataset:
    """Feature matrix X (N x 24), parameter matrix Y (N x 14), split labels,
    and the provenance needed to regenerate it."""

    X: np.ndarray
    Y: np.ndarray
    split: np.ndarray  # array of "train" / "val" / "test" strings
    seed: int
    ranges: ParamRanges

    def __post_init__(self):
        if self.X.shape[0] != self.Y.shape[0] or self.X.shape[0] != len(self.split):
            raise DataError("X, Y and split must have the same number of rows")
        if self.X.shape[1] != len(FEATURE_NAMES) or self.Y.shape[1] != len(PARAM_NAMES):
            raise DataError(f"bad column counts: X{self.X.shape}, Y{self.Y.shape}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def indices(self, label: str) -> np.ndarray:
        return np.nonzero(self.split == label)[0]


def build_dataset(n: int, seed: int, ranges: ParamRanges | None = None,
                  feature_cfg: FeatureConfig | None = None,
                  threads: int = 1) -> Dataset:
    """Generate n devices. Parameters are drawn sequentially from one seeded
    stream; featurization is pure, so rows may be computed on worker threads
    and assembled by index without affecting the result."""
    if ranges is None:
        ranges = DEFAULT_RANGES
    if feature_cfg is None:
        feature_cfg = FeatureConfig()
    if n < 100:
        raise ConfigError(f"dataset size must be at least 100, got {n}")
    ranges.require_nondegenerate()

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    all_params = [sample_params(ranges, rng) for _ in range(n)]

    def row(params: ModelParams) -> np.ndarray:
        try:
            return featurize(simulate_curveset(params), feature_cfg)
        except ExtractionError as exc:
            raise DataError(
                f"featurize failed for sampled params {json.dumps(params.to_dict())}: {exc}"
            ) from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(row, all_params))
    else:
        rows = [row(p) for p in all_params]

    X = np.array(rows)
    Y = np.array([p.to_vector() for p in all_params])

    perm = rng.permutation(n)
    n_train = int(SPLIT_FRACTIONS[0] * n)
    n_val = int(SPLIT_FRACTIONS[1] * n)
    split = np.empty(n, dtype=object)
    split[perm[:n_train]] = "train"
    split[perm[n_train:n_train + n_val]] = "val"
    split[perm[n_train + n_val:]] = "test"
    log.info("generated %d devices in %.2f s", n, time.perf_counter() - t0)
    return Dataset(X=X, Y=Y, split=split, seed=seed, ranges=ranges)


@dataclass
class Normalizer:
    """Feature z-score statistics (fit on the training split only) plus the
    parameter bounds used for min-max target mapping."""

    feat_mean: np.ndarray
    feat_std: np.ndarray
    param_lo: np.ndarray
    param_hi: np.ndarray

    def normalize_features(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.feat_mean) / self.feat_std

    def denormalize_features(self, Xn) -> np.ndarray:
        return np.asarray(Xn, dtype=float) * self.feat_std + self.feat_mean

    def normalize_params(self, Y) -> np.ndarray:
        return (np.asarray(Y, dtype=float) - self.param_lo) / (self.param_hi - self.param_lo)

    def denormalize_params(self, Yn) -> np.ndarray:
        return np.asarray(Yn, dtype=float) * (self.param_hi - self.param_lo) + self.param_lo

    def to_dict(self) -> dict:
        return {
            "feature_names": list(FEATURE_NAMES),
            "param_names": list(PARAM_NAMES),
            "feat_mean": self.feat_mean.tolist(),
            "feat_std": self.feat_std.tolist(),
            "param_lo": self.param_lo.tolist(),
            "param_hi": self.param_hi.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        if list(d.get("feature_names", [])) != list(FEATURE_NAMES):
            raise DataError("normalizer feature names do not match this build")
        if list(d.get("param_names", [])) != list(PARAM_NAMES):
            raise DataError("normalizer parameter names do not match this build")
        return cls(
            feat_mean=np.array(d["feat_mean"], dtype=float),
            feat_std=np.array(d["feat_std"], dtype=float),
            param_lo=np.array(d["param_lo"], dtype=float),
            param_hi=np.array(d["param_hi"], dtype=float),
        )


def fit_normalizer(ds: Dataset) -> Normalizer:
    """Fit feature statistics on the training split; parameter bounds come
    from the dataset's sampling ranges."""
    ds.ranges.require_nondegenerate()
    train = ds.indices("train")
    if len(train) == 0:
        raise ConfigError("dataset has no training rows")
    X = ds.X[train]
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    zero = np.nonzero(std == 0)[0]
    if len(zero):
        names = [FEATURE_NAMES[i] for i in zero]
        raise ConfigError(f"zero-variance feature columns: {names}")
    return Normalizer(feat_mean=mean, feat_std=std,
                      param_lo=ds.ranges.lo_vector(), param_hi=ds.ranges.hi_vector())


def _fmt(v: float) -> str:
    return "%.17g" % v


def save_dataset(ds: Dataset, path):
    """Write the dataset CSV: a '# meta' JSON line, a header row, then one
    row per device (24 features, 14 parameters, split label)."""
    meta = {
        "seed": ds.seed,
        "n": ds.n,
        "rng": RNG_ALGORITHM,
        "ranges": ds.ranges.to_dict(),
        "log_uniform": sorted(LOG_UNIFORM_PARAMS),
    }
    cols = list(FEATURE_NAMES) + list(PARAM_NAMES) + ["split"]
    lines = ["# meta " + json.dumps(meta, sort_keys=True), ",".join(cols)]
    for i in range(ds.n):
        vals = [_fmt(v) for v in ds.X[i]] + [_fmt(v) for v in ds.Y[i]] + [str(ds.split[i])]
        lines.append(",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# meta "):
        raise DataError(f"{path}: missing '# meta' header line")
    try:
        meta = json.loads(lines[0][len("# meta "):])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: bad meta JSON: {exc}") from exc
    expected_cols = list(FEATURE_NAMES) + list(PARAM_NAMES) + ["split"]
    if len(lines) < 2 or lines[1].split(",") != expected_cols:
        raise DataError(f"{path}: header row does not match the documented columns")
    body = lines[2:]
    if not body:
        raise DataError(f"{path}: no data rows")
    n_cells = len(expected_cols)
    for ln_no, line in enumerate(body, start=3):
        if line.count(",") != n_cells - 1:
            raise DataError(f"{path}:{ln_no}: expected {n_cells} cells")
    split = np.array([line[line.rindex(",") + 1:] for line in body], dtype=object)
    bad = np.nonzero(~np.isin(split, SPLIT_LABELS))[0]
    if len(bad):
        raise DataError(f"{path}:{bad[0] + 3}: bad split label {split[bad[0]]!r}")
    try:
        vals = np.loadtxt(body, delimiter=",", usecols=range(n_cells - 1),
                          comments=None, ndmin=2)
    except ValueError as exc:
        raise _unparsable_cell(path, body, exc) from exc
    bad = np.nonzero(~np.isfinite(vals).all(axis=1))[0]
    if len(bad):
        raise DataError(f"{path}:{bad[0] + 3}: non-finite cell")
    n_feat = len(FEATURE_NAMES)
    return Dataset(
        X=vals[:, :n_feat], Y=vals[:, n_feat:], split=split,
        seed=int(meta["seed"]), ranges=ParamRanges.from_dict(meta["ranges"]),
    )


def _unparsable_cell(path, body, exc: ValueError) -> DataError:
    """The bulk parser rejected the body; find the first bad cell line by
    line so the message names it."""
    for ln_no, line in enumerate(body, start=3):
        try:
            [float(v) for v in line.split(",")[:-1]]
        except ValueError as cell_exc:
            return DataError(f"{path}:{ln_no}: {cell_exc}")
    return DataError(f"{path}: {exc}")
