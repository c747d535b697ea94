"""The four benchmark workloads, each a closed loop with one caller.

Every workload calls the fetfit library through its module attributes
(``fetfit.dataset.build_dataset``, ...) so that the tracer's wrappers see the
calls, and uses the library's default settings, as ``fetfit demo`` does. A
workload has four steps:

- ``setup()``: everything done before the first timed request, including
  one warm-up request, so lazy initialisation is not timed;
- ``prepare(i)``: makes request ``i``'s input, untimed;
- ``call(request)``: the timed library calls; returns (items, output);
- ``check(request, output)``: verifies the output, untimed; raises
  ``CheckFailed`` or returns the request's quality value (or None).

Inputs come from the workload seed alone. The training corpus uses seed
``2 * seed`` and the measured devices of ``extract`` and ``fit`` come from a
stream seeded with ``2 * seed + 1``, so the two never share a seed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fetfit.ann
import fetfit.curve_io
import fetfit.dataset
import fetfit.device
import fetfit.features
import fetfit.verify
from fetfit.params import (
    CGG_MARGIN_FF,
    DEFAULT_RANGES,
    LOG_UNIFORM_PARAMS,
    PARAM_NAMES,
    ModelParams,
)


class CheckFailed(Exception):
    """An output failed one of the benchmark's correctness checks."""


@dataclass(frozen=True)
class Sizes:
    gen_devices: int = 100          # devices per generated corpus (one request)
    gen_checked_rows: int = 3       # rows per corpus recomputed by the check
    train_devices: int = 1250       # corpus size; 80% are training rows
    train_epochs: int = 8           # fixed budget per training request
    extract_devices: int = 1000     # corpus the served model is trained on
    extract_epochs: int = 15
    extract_pool: int = 256         # measured devices written to disk per batch
    fit_max_evals: int = fetfit.verify.DIRECT_FIT_MAX_EVALS


#: Tiny sizes for the smoke test.
SMOKE_SIZES = Sizes(gen_devices=100, gen_checked_rows=2, train_devices=150, train_epochs=2,
                    extract_devices=150, extract_epochs=2, extract_pool=4, fit_max_evals=40)


def corpus_seed(seed: int) -> int:
    return 2 * seed


def target_seed(seed: int) -> int:
    return 2 * seed + 1


def sample_target(rng: np.random.Generator) -> ModelParams:
    """One in-range device, drawn by the benchmark rather than the library's
    sampler so that the inputs do not change when the library does."""
    while True:
        vals = {}
        for name in PARAM_NAMES:
            lo, hi = DEFAULT_RANGES.bounds[name]
            if name in LOG_UNIFORM_PARAMS:
                vals[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                vals[name] = float(rng.uniform(lo, hi))
        if vals["CGGMIN"] + CGG_MARGIN_FF <= vals["CGGMAX"]:
            return ModelParams(**vals)


def fixed_budget(epochs: int) -> fetfit.ann.TrainConfig:
    """Default training settings with early stopping and refinement off, so
    every request does the same number of epochs."""
    return fetfit.ann.TrainConfig(max_epochs=epochs, patience=epochs - 1, refine_factors=())


class Workload:
    name = ""
    item_unit = ""

    def __init__(self, seed: int, work_dir: Path, sizes: Sizes):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.sizes = sizes

    #: Untimed requests made at the end of set-up.
    warm_up_requests = 1

    def warm_up(self):
        for _ in range(self.warm_up_requests):
            req = self.prepare(-1)
            self.check(req, self.call(req)[1])

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


class Gen(Workload):
    """``fetfit gen``: build and save a seeded Monte Carlo corpus."""

    name = "gen"
    item_unit = "devices"
    warm_up_requests = 4

    def setup(self):
        self.rng = np.random.default_rng(self.seed)
        self.check_rng = np.random.default_rng([self.seed, 1])
        self.warm_up()

    def prepare(self, i):
        return int(self.rng.integers(2 ** 32)), self.work_dir / "dataset.csv"

    def call(self, req):
        corpus, path = req
        ds = fetfit.dataset.build_dataset(self.sizes.gen_devices, seed=corpus)
        fetfit.dataset.save_dataset(ds, path)
        return ds.n, ds

    def check(self, req, ds):
        if ds.n != self.sizes.gen_devices or not np.all(np.isfinite(ds.X)):
            raise CheckFailed("corpus has missing or non-finite rows")
        for row in self.check_rng.choice(ds.n, self.sizes.gen_checked_rows, replace=False):
            cs = fetfit.device.simulate_curveset(ModelParams.from_vector(ds.Y[row]))
            want = fetfit.features.featurize(cs)
            if not np.allclose(ds.X[row], want, rtol=1e-9, atol=0.0):
                raise CheckFailed(f"row {row} differs from featurize(simulate_curveset(p))")
        return None


class Train(Workload):
    """``fetfit train``: load a corpus, fit the normalizer, train for a
    fixed epoch budget and save the model."""

    name = "train"
    item_unit = "rows"   # training rows x epochs

    def setup(self):
        self.corpus = self.work_dir / "corpus.csv"
        ds = fetfit.dataset.build_dataset(self.sizes.train_devices, seed=corpus_seed(self.seed))
        fetfit.dataset.save_dataset(ds, self.corpus)
        self.rows = len(ds.indices("train"))
        self.probe = ds.X[ds.indices("val")]
        self.warm_up()

    def prepare(self, i):
        return self.work_dir / "model.json"

    def call(self, model_path):
        ds = fetfit.dataset.load_dataset(self.corpus)
        norm = fetfit.dataset.fit_normalizer(ds)
        mcfg = fetfit.ann.MLPConfig()
        w, history = fetfit.ann.train(ds, norm, mcfg, fixed_budget(self.sizes.train_epochs))
        fetfit.ann.save_model(model_path, w, norm, mcfg)
        return self.rows * history.meta["trained_epochs"], (w, norm, history)

    def check(self, model_path, out):
        w, norm, history = out
        if history.meta["trained_epochs"] != self.sizes.train_epochs:
            raise CheckFailed(f"trained {history.meta['trained_epochs']} epochs, "
                              f"budget {self.sizes.train_epochs}")
        losses = [e[k] for e in history.epochs for k in ("train_loss", "val_loss")]
        if not np.all(np.isfinite(losses + [history.meta["best_val_loss"]])):
            raise CheckFailed("non-finite training loss")
        w2, norm2, _ = fetfit.ann.load_model(model_path)
        before = fetfit.ann.forward(w, norm.normalize_features(self.probe))
        after = fetfit.ann.forward(w2, norm2.normalize_features(self.probe))
        if not np.array_equal(before, after):
            raise CheckFailed("save_model/load_model round trip changed predictions")
        return history.meta["best_val_loss"]


class Extract(Workload):
    """``fetfit extract`` then ``verify --curves`` on a stream of distinct
    measured devices read from disk."""

    name = "extract"
    item_unit = "devices"
    warm_up_requests = 8

    def setup(self):
        ds = fetfit.dataset.build_dataset(self.sizes.extract_devices, seed=corpus_seed(self.seed))
        norm = fetfit.dataset.fit_normalizer(ds)
        mcfg = fetfit.ann.MLPConfig()
        w, _ = fetfit.ann.train(ds, norm, mcfg, fixed_budget(self.sizes.extract_epochs))
        model_path = self.work_dir / "model.json"
        fetfit.ann.save_model(model_path, w, norm, mcfg)
        self.w, self.norm, _ = fetfit.ann.load_model(model_path)
        self.rng = np.random.default_rng(target_seed(self.seed))
        self.pool, self.written = [], 0
        self.warm_up()

    def _write_devices(self):
        """Write the next batch of measured devices; each is written once."""
        for _ in range(self.sizes.extract_pool):
            directory = self.work_dir / "devices" / f"{self.written:06d}"
            cs = fetfit.device.simulate_curveset(sample_target(self.rng))
            fetfit.curve_io.write_curveset_dir(cs, directory)
            self.pool.append(directory)
            self.written += 1

    def prepare(self, i):
        if not self.pool:
            self._write_devices()
        return self.pool.pop(0)

    def call(self, directory):
        cs = fetfit.curve_io.read_curveset_dir(directory)
        fv = fetfit.features.featurize(cs)
        predicted = fetfit.ann.predict_params(self.w, self.norm, fv)
        return 1, (cs, fetfit.verify.round_trip_from_params(cs, predicted))

    def check(self, directory, out):
        cs, report = out
        shutil.rmtree(directory)
        if not DEFAULT_RANGES.contains(report.predicted):
            raise CheckFailed("prediction outside the parameter ranges")
        labels = tuple(ce.label for ce in report.curve_errors)
        if labels != fetfit.verify.REPORT_CURVES or not all(
                np.isfinite(ce.rms_percent) for ce in report.curve_errors):
            raise CheckFailed(f"report has curve errors {labels}, want five finite ones")
        return fetfit.verify.direct_fit_objective(report.predicted, cs)


class Fit(Workload):
    """The simplex baseline: ``direct_fit`` from the mid-range start."""

    name = "fit"
    item_unit = "devices"

    def setup(self):
        lo, hi = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
        self.start = ModelParams.from_vector(DEFAULT_RANGES.clip_vector((lo + hi) / 2))
        self.rng = np.random.default_rng(target_seed(self.seed))
        self.warm_up()

    def prepare(self, i):
        return fetfit.device.simulate_curveset(sample_target(self.rng))

    def call(self, target):
        return 1, fetfit.verify.direct_fit(target, DEFAULT_RANGES, self.start,
                                           max_evals=self.sizes.fit_max_evals)

    def check(self, target, fitted):
        obj = fetfit.verify.direct_fit_objective(fitted, target)
        start = fetfit.verify.direct_fit_objective(self.start, target)
        if not obj <= start:
            raise CheckFailed(f"objective rose from {start:.4g}% to {obj:.4g}%")
        return obj


WORKLOADS = {cls.name: cls for cls in (Gen, Train, Extract, Fit)}
