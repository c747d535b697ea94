"""Monte Carlo training-corpus generation and normalization.

Samples parameter sets, simulates and featurizes the devices, splits the
rows 80/10/10, and persists everything as a single CSV with a JSON metadata
line. Given (n, seed, ranges, feature settings) the output bytes are fully
deterministic. The feature settings that made a corpus travel with it: the
meta line records them, and the normalizer fit on it hands them on to the
model.

Generation is batch-first: the parameters are drawn as one (n, 14) block,
and the devices are simulated and featurized a block of ``GEN_BLOCK`` rows
per call. The rows are bit-identical to sampling, simulating and
featurizing each device alone. A device's parameters are a uniform point
of the unit box, mapped into the ranges by ``ParamRanges.from_unit`` (see
``params``).
"""

from __future__ import annotations

import json
import logging
import reprlib
import time
from dataclasses import asdict, dataclass, fields

import numpy as np
# numpy imports its random module on first use, about 14 ms; load it with the
# package so that the first corpus or weight draw does not pay for it
import numpy.random  # noqa: F401

from .device import simulate_curveset
from .errors import (ConfigError, DataError, ExtractionError, parse_json, read_text,
                     require_int, require_numbers)
from .features import DEFAULT_FEATURE_CONFIG, FEATURE_NAMES, FeatureConfig, featurize
from .params import (
    CGG_MARGIN_FF,
    DEFAULT_RANGES,
    I_CGGMAX,
    I_CGGMIN,
    LOG_UNIFORM_PARAMS,
    PARAM_NAMES,
    ModelParams,
    ParamRanges,
)

log = logging.getLogger(__name__)

RNG_ALGORITHM = "numpy-pcg64"
#: The meta-line fields that record how this build samples a corpus; a
#: dataset made another way is refused.
_PROVENANCE = {"rng": RNG_ALGORITHM, "log_uniform": sorted(LOG_UNIFORM_PARAMS)}
_META_KEYS = {"seed", "n", "ranges", "features", *_PROVENANCE}
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)
SPLIT_LABELS = ("train", "val", "test")
_MAX_RESAMPLE = 100

#: Devices simulated and featurized per call by ``build_dataset``, and rows
#: formatted per call by ``save_dataset``. Larger blocks run no faster and
#: raise peak memory: a 1,250-device corpus grew peak RSS by 1.8 MB in
#: blocks of 256 and by 12.8 MB in one block.
GEN_BLOCK = 256


def sample_params(ranges: ParamRanges, rng: np.random.Generator, size: int | None = None):
    """In-range draws: uniform per parameter, log-uniform for IOFF0, that
    is a uniform unit-box point mapped by ``ranges.from_unit``; a device is
    redrawn while the C-V plateau margin is violated.

    ``size=None`` gives one ModelParams; an int gives a (size, 14) block in
    ``PARAM_NAMES`` order. A block takes the generator's stream exactly as
    ``size`` single draws in a row would, and leaves it in the same state.
    Raises ConfigError once 100 draws in a row are rejected.
    """
    n = 1 if size is None else size
    kept, got, rejected = [], 0, 0  # rejected: draws in a row before this round
    while got < n:
        # one round redraws the devices still missing, 14 numbers each, in order
        draw = ranges.from_unit(rng.random((n - got, len(PARAM_NAMES))))
        ok = draw[:, I_CGGMIN] + CGG_MARGIN_FF <= draw[:, I_CGGMAX]
        # rejected draws between consecutive accepted ones, the last run open
        runs = np.diff(np.concatenate(([-1 - rejected], np.flatnonzero(ok), [len(ok)]))) - 1
        if runs.max() >= _MAX_RESAMPLE:
            raise ConfigError(
                "sampling rejected 100 draws in a row; the CGGMIN/CGGMAX ranges are incompatible"
            )
        rejected = runs[-1]
        kept.append(draw[ok])
        got += len(kept[-1])
    block = np.concatenate(kept)
    return ModelParams.from_vector(block[0]) if size is None else block


@dataclass
class Dataset:
    """Feature matrix X (N x 24), parameter matrix Y (N x 14), split labels,
    and the provenance needed to regenerate it: the seed, the sampling
    ranges and the feature settings that made X (the default settings if
    not given)."""

    X: np.ndarray
    Y: np.ndarray
    split: np.ndarray  # array of "train" / "val" / "test" strings
    seed: int
    ranges: ParamRanges
    feature_cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG

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
                  feature_cfg: FeatureConfig | None = None) -> Dataset:
    """Generate n devices from one seeded stream: the parameters first, as
    one block, then one simulate and one featurize call per ``GEN_BLOCK``
    devices, with ``feature_cfg`` (default settings if None), which the
    dataset keeps as ``feature_cfg``. If featurization fails, the DataError
    names the first failing device's parameters and reason, and counts the
    failing devices."""
    if ranges is None:
        ranges = DEFAULT_RANGES
    if feature_cfg is None:
        feature_cfg = DEFAULT_FEATURE_CONFIG
    if n < 100:
        raise ConfigError(f"dataset size must be at least 100, got {n}")
    require_int("seed", seed, minimum=0)
    ranges.require_nondegenerate()

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    Y = sample_params(ranges, rng, size=n)
    X = np.empty((n, len(FEATURE_NAMES)))
    failed, first = 0, None
    for start in range(0, n, GEN_BLOCK):
        block = Y[start:start + GEN_BLOCK]
        try:
            X[start:start + len(block)] = featurize(simulate_curveset(block), feature_cfg)
        except ExtractionError as exc:
            failed += len(exc.rows)
            if first is None:
                first = (block[exc.rows[0]], exc)
    if first is not None:
        params, exc = first
        raise DataError(
            f"featurize failed for {failed} of {n} sampled devices; the first has sampled "
            f"params {json.dumps(dict(zip(PARAM_NAMES, params.tolist())))}: {exc}"
        ) from exc

    perm = rng.permutation(n)
    n_train = int(SPLIT_FRACTIONS[0] * n)
    n_val = int(SPLIT_FRACTIONS[1] * n)
    split = np.empty(n, dtype=object)
    split[perm[:n_train]] = "train"
    split[perm[n_train:n_train + n_val]] = "val"
    split[perm[n_train + n_val:]] = "test"
    log.info("generated %d devices in %.2f s", n, time.perf_counter() - t0)
    return Dataset(X=X, Y=Y, split=split, seed=seed, ranges=ranges, feature_cfg=feature_cfg)


@dataclass
class Normalizer:
    """Feature z-score statistics (fit on the training split only), the
    parameter bounds used for min-max target mapping, and the feature
    settings that made the features (``feature_cfg``, the default settings
    if not given): a model featurizes its input curves with these
    settings, since its weights were fit to them.

    The constructor takes each statistic as an array or nested lists and
    checks that it holds finite numbers of the right shape, with
    ``feat_std > 0`` (raising DataError), and the bounds as
    ``param_ranges``, the model's box (raising ConfigError)."""

    feat_mean: np.ndarray
    feat_std: np.ndarray
    param_lo: np.ndarray
    param_hi: np.ndarray
    feature_cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG

    def __post_init__(self):
        for name, size in (("feat_mean", len(FEATURE_NAMES)), ("feat_std", len(FEATURE_NAMES)),
                           ("param_lo", len(PARAM_NAMES)), ("param_hi", len(PARAM_NAMES))):
            setattr(self, name, require_numbers(f"normalizer.{name}", getattr(self, name),
                                                (size,)))
        if not (self.feat_std > 0).all():
            raise DataError("normalizer.feat_std must be > 0")
        self.param_ranges = ParamRanges(bounds=dict(zip(
            PARAM_NAMES, zip(self.param_lo.tolist(), self.param_hi.tolist()))))

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
            "features": asdict(self.feature_cfg),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        if list(d.get("feature_names", [])) != list(FEATURE_NAMES):
            raise DataError("normalizer feature names do not match this build")
        if list(d.get("param_names", [])) != list(PARAM_NAMES):
            raise DataError("normalizer parameter names do not match this build")
        return cls(feat_mean=d["feat_mean"], feat_std=d["feat_std"],
                   param_lo=d["param_lo"], param_hi=d["param_hi"],
                   feature_cfg=_read_feature_cfg(d.get("features")))


def _read_feature_cfg(doc) -> FeatureConfig:
    """The settings of a ``features`` object as ``asdict`` writes them: an
    object holding every ``FeatureConfig`` field and no other key, its
    values checked by the constructor. Anything else raises DataError."""
    names = [f.name for f in fields(FeatureConfig)]
    if not isinstance(doc, dict) or doc.keys() != set(names):
        raise DataError(f"features must be an object holding exactly {', '.join(names)}, "
                        f"got {reprlib.repr(doc)}")
    try:
        return FeatureConfig(**doc)
    except (ConfigError, ValueError) as exc:
        raise DataError(f"features: {exc}") from exc


def fit_normalizer(ds: Dataset) -> Normalizer:
    """Fit feature statistics on the training split; parameter bounds come
    from the dataset's sampling ranges, feature settings from the
    dataset's."""
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
    return Normalizer(feat_mean=mean, feat_std=std, param_lo=ds.ranges.lo_vector(),
                      param_hi=ds.ranges.hi_vector(), feature_cfg=ds.feature_cfg)


def save_dataset(ds: Dataset, path):
    """Write the dataset CSV: a '# meta' JSON line, a header row, then one
    row per device (24 features, 14 parameters, split label)."""
    meta = {
        "seed": ds.seed,
        "n": ds.n,
        "ranges": ds.ranges.to_dict(),
        "features": asdict(ds.feature_cfg),
        **_PROVENANCE,
    }
    cols = list(FEATURE_NAMES) + list(PARAM_NAMES) + ["split"]
    row_fmt = ",".join(["%.17g"] * (len(cols) - 1) + ["%s"])
    with open(path, "w") as fh:
        fh.write(f"# meta {json.dumps(meta, sort_keys=True)}\n{','.join(cols)}\n")
        # one % call per chunk of rows; a chunk, not the whole corpus, keeps
        # the cells held at once to one block's worth
        for start in range(0, ds.n, GEN_BLOCK):
            rows = slice(start, start + GEN_BLOCK)
            cells = np.concatenate((ds.X[rows], ds.Y[rows], ds.split[rows, None]), axis=1,
                                   dtype=object)
            fh.write("\n".join([row_fmt] * len(cells)) % tuple(cells.ravel().tolist()) + "\n")


def load_dataset(path) -> Dataset:
    """Read a dataset CSV. The meta line must hold exactly the keys
    ``save_dataset`` writes: the seed, the sampling ranges, the feature
    settings, ``n``, the number of data rows, so a file cut short is
    rejected, and the provenance of this build's sampler. Anything
    malformed raises a DataError naming the file."""
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith("# meta "):
        raise DataError(f"{path}: missing '# meta' header line")
    meta = parse_json(lines[0][len("# meta "):], f"{path}: meta line")
    if meta.keys() != _META_KEYS:
        raise DataError(f"{path}: the meta line must hold exactly {', '.join(sorted(_META_KEYS))}; "
                        f"missing {sorted(_META_KEYS - meta.keys())}, "
                        f"unknown {reprlib.repr(sorted(meta.keys() - _META_KEYS))}")
    for key, value in _PROVENANCE.items():
        if meta[key] != value:
            raise DataError(f"{path}: the meta line gives {key} {reprlib.repr(meta[key])}; "
                            f"this build samples with {value!r}")
    if not isinstance(meta["ranges"], dict):
        raise DataError(f"{path}: the meta line must hold a ranges object")
    try:
        require_int("seed", meta["seed"], minimum=0)
        require_int("n", meta["n"], minimum=1)
        ranges = ParamRanges.from_dict(meta["ranges"])
        feature_cfg = _read_feature_cfg(meta["features"])
    except (ConfigError, DataError) as exc:
        raise DataError(f"{path}: bad meta line: {exc}") from exc
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
    if len(body) != meta["n"]:
        raise DataError(f"{path}: the meta line gives n = {reprlib.repr(meta['n'])}, "
                        f"but the file holds {len(body)} data rows")
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
    return Dataset(X=vals[:, :n_feat], Y=vals[:, n_feat:], split=split, seed=meta["seed"],
                   ranges=ranges, feature_cfg=feature_cfg)


def _unparsable_cell(path, body, exc: ValueError) -> DataError:
    """The bulk parser rejected the body; find the first bad cell line by
    line so the message names it."""
    for ln_no, line in enumerate(body, start=3):
        try:
            [float(v) for v in line.split(",")[:-1]]
        except ValueError as cell_exc:
            return DataError(f"{path}:{ln_no}: {cell_exc}")
    return DataError(f"{path}: {exc}")
