"""Round-trip verification and the classical direct-fit baseline.

Resimulates predicted parameters and scores them against target curves with
relative RMS percentages (normalized by the target's own RMS so the metric
is scale-invariant); subthreshold quality is scored on log10 current. Also
provides a derivative-free simplex fit over the same curves as a baseline
for wall-time comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .ann import MLPWeights, predict_params
from .dataset import Normalizer
from .device import Curve, CurveSet, apply_knobs, differentiate, simulate_curveset, ProcessKnobs
from .errors import DataError
from .features import FeatureConfig, featurize
from .params import LOG_UNIFORM_PARAMS, PARAM_NAMES, ModelParams, ParamRanges

#: Labels and accessors for the five reported curves, in report order.
REPORT_CURVES = ("cgg", "ids_low", "ids_high", "gm_low", "gm_high")

#: Knob settings of the variability suite, after the baseline entry.
VARIABILITY_KNOBS = (
    ProcessKnobs(1.0, 1.0),
    ProcessKnobs(0.9, 1.0),
    ProcessKnobs(1.1, 1.0),
    ProcessKnobs(1.0, 0.9),
    ProcessKnobs(1.0, 1.1),
)

DIRECT_FIT_MAX_EVALS = 2000

#: Round-trip quality gates: median rms_percent per curve over held-out
#: devices, plus the log-domain subthreshold medians for the I-V curves.
ROUND_TRIP_LIMITS = {
    "cgg": 1.0, "ids_low": 3.0, "ids_high": 4.0, "gm_low": 6.0, "gm_high": 6.0,
    "sub_low": 1.0, "sub_high": 1.0,
}

#: Variability gate: per-curve average rms_percent over the four knob
#: settings must stay within this factor of the round-trip medians.
VARIABILITY_FACTOR = 2.0


def _require_same_grid(pred: Curve, target: Curve, caller: str):
    # curves simulated on one module grid share its array; any other pair,
    # such as a target read from disk, is compared point by point
    if pred.x is not target.x and (
            pred.x.shape != target.x.shape or np.any(pred.x != target.x)):
        raise DataError(f"{caller}: curve grids do not match")


def rms_percent(pred: Curve, target: Curve) -> float:
    """100 * ||pred - target|| / ||target|| over the shared grid."""
    _require_same_grid(pred, target, "rms_percent")
    d = pred.y - target.y
    denom = np.sqrt((target.y * target.y).sum())
    if denom == 0:
        raise DataError("rms_percent: target curve is identically zero")
    return float(100.0 * np.sqrt((d * d).sum()) / denom)


def subthreshold_rms_percent(pred: Curve, target: Curve, i_crit: float) -> float:
    """rms_percent of log10(Ids) restricted to points with target Ids below
    the threshold criterion."""
    _require_same_grid(pred, target, "subthreshold_rms_percent")
    mask = target.y < i_crit
    if int(mask.sum()) < 3:
        raise DataError(
            f"subthreshold_rms_percent: only {int(mask.sum())} points below "
            f"i_crit={i_crit:.3e} A (need 3)"
        )
    zp = np.log10(pred.y[mask])
    zt = np.log10(target.y[mask])
    denom = np.sqrt(np.sum(zt ** 2))
    return float(100.0 * np.sqrt(np.sum((zp - zt) ** 2)) / denom)


@dataclass
class CurveError:
    label: str           # one of REPORT_CURVES
    kind: str
    vds: float
    rms_percent: float
    subthreshold_rms_percent: float | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label, "kind": self.kind, "vds": self.vds,
            "rms_percent": self.rms_percent,
            "subthreshold_rms_percent": self.subthreshold_rms_percent,
        }


@dataclass
class VerifyReport:
    """Per-curve errors for one round trip, plus parameter errors when the
    true parameters are known."""

    predicted: ModelParams
    curve_errors: list
    true_params: ModelParams | None = None
    param_errors: dict | None = None     # name -> {"abs", "range_relative"}
    extract_seconds: float | None = None
    knobs: tuple | None = None           # (lg_scale, eot_scale) in the variability suite

    def error(self, label: str) -> CurveError:
        for ce in self.curve_errors:
            if ce.label == label:
                return ce
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "predicted_params": self.predicted.to_dict(),
            "true_params": self.true_params.to_dict() if self.true_params else None,
            "curve_errors": [ce.to_dict() for ce in self.curve_errors],
            "param_errors": self.param_errors,
            "extract_seconds": self.extract_seconds,
            "knobs": list(self.knobs) if self.knobs else None,
        }


def _five_curve_errors(pred_cs: CurveSet, target: CurveSet, i_crit: float) -> list:
    # the identical difference stencil is applied to both sides, so its
    # truncation error cancels in the Gm comparison
    pairs = [
        ("cgg", pred_cs.cgg_low, target.cgg_low, False),
        ("ids_low", pred_cs.ids_low, target.ids_low, True),
        ("ids_high", pred_cs.ids_high, target.ids_high, True),
        ("gm_low", pred_cs.gm_low(), target.gm_low(), False),
        ("gm_high", pred_cs.gm_high(), target.gm_high(), False),
    ]
    errors = []
    for label, pred, tgt, is_iv in pairs:
        sub = subthreshold_rms_percent(pred, tgt, i_crit) if is_iv else None
        errors.append(CurveError(
            label=label, kind=tgt.kind.value,
            vds=tgt.vds if tgt.vds is not None else float("nan"),
            rms_percent=rms_percent(pred, tgt),
            subthreshold_rms_percent=sub,
        ))
    return errors


def round_trip_from_params(target: CurveSet, predicted: ModelParams,
                           true_params: ModelParams | None = None,
                           cfg: FeatureConfig | None = None,
                           ranges: ParamRanges | None = None) -> VerifyReport:
    """Score an already-predicted parameter set against target curves."""
    if cfg is None:
        cfg = FeatureConfig()
    pred_cs = simulate_curveset(predicted)
    report = VerifyReport(
        predicted=predicted,
        curve_errors=_five_curve_errors(pred_cs, target, cfg.i_crit),
        true_params=true_params,
    )
    if true_params is not None:
        span = ((ranges.hi_vector() - ranges.lo_vector()) if ranges is not None
                else np.ones(len(PARAM_NAMES)) * np.nan)
        report.param_errors = {}
        for i, name in enumerate(PARAM_NAMES):
            diff = abs(getattr(predicted, name) - getattr(true_params, name))
            rel = diff / span[i] if np.isfinite(span[i]) and span[i] > 0 else None
            report.param_errors[name] = {"abs": diff, "range_relative": rel}
    return report


def round_trip(target: CurveSet, w: MLPWeights, norm: Normalizer,
               true_params: ModelParams | None = None,
               cfg: FeatureConfig | None = None,
               ranges: ParamRanges | None = None) -> VerifyReport:
    """Featurize the target, predict parameters, resimulate, and score."""
    if cfg is None:
        cfg = FeatureConfig()
    t0 = time.perf_counter()
    fv = featurize(target, cfg)
    predicted = predict_params(w, norm, fv, ranges=ranges)
    extract_seconds = time.perf_counter() - t0
    report = round_trip_from_params(target, predicted, true_params=true_params,
                                    cfg=cfg, ranges=ranges)
    report.extract_seconds = extract_seconds
    return report


def variability_suite(base_params: ModelParams, w: MLPWeights, norm: Normalizer,
                      cfg: FeatureConfig | None = None,
                      ranges: ParamRanges | None = None) -> list:
    """Baseline plus the four single-knob perturbations of the base device.
    Each target is simulated from the knobbed parameters and round-tripped."""
    reports = []
    for knobs in VARIABILITY_KNOBS:
        p = apply_knobs(base_params, knobs, ranges=ranges) \
            if (knobs.lg_scale, knobs.eot_scale) != (1.0, 1.0) else base_params
        target = simulate_curveset(p)
        report = round_trip(target, w, norm, true_params=p, cfg=cfg, ranges=ranges)
        report.knobs = (knobs.lg_scale, knobs.eot_scale)
        reports.append(report)
    return reports


def aggregate_curve_errors(reports: list) -> dict:
    """Mean rms_percent per curve label across reports."""
    return {
        label: float(np.mean([r.error(label).rms_percent for r in reports]))
        for label in REPORT_CURVES
    }


def holdout_round_trip(ds, norm: Normalizer, w: MLPWeights, n_devices: int = 200,
                       cfg: FeatureConfig | None = None):
    """Round-trip the first ``n_devices`` test-split devices of a dataset.

    Returns (reports, medians) where medians holds the per-curve median
    rms_percent plus the subthreshold medians keyed sub_low / sub_high.
    """
    idx = ds.indices("test")[:n_devices]
    if len(idx) < n_devices:
        raise DataError(f"dataset has only {len(idx)} test devices, need {n_devices}")
    reports = []
    for i in idx:
        p = ModelParams.from_vector(ds.Y[i])
        reports.append(round_trip(simulate_curveset(p), w, norm,
                                  true_params=p, cfg=cfg, ranges=ds.ranges))
    medians = {
        label: float(np.median([r.error(label).rms_percent for r in reports]))
        for label in REPORT_CURVES
    }
    medians["sub_low"] = float(np.median(
        [r.error("ids_low").subthreshold_rms_percent for r in reports]))
    medians["sub_high"] = float(np.median(
        [r.error("ids_high").subthreshold_rms_percent for r in reports]))
    return reports, medians


#: Parameters mapped to the unit box on a log scale.
_LOG_MASK = np.array([name in LOG_UNIFORM_PARAMS for name in PARAM_NAMES])


def _log_box(ranges: ParamRanges) -> tuple:
    """(lo, hi) of the ranges, with the log-uniform entries as logarithms."""
    lo, hi = ranges.lo_vector(), ranges.hi_vector()
    lo[_LOG_MASK] = np.log(lo[_LOG_MASK])
    hi[_LOG_MASK] = np.log(hi[_LOG_MASK])
    return lo, hi


def _to_unit_box(vec: np.ndarray, box: tuple) -> np.ndarray:
    lo, hi = box
    z = vec.copy()
    z[_LOG_MASK] = np.log(z[_LOG_MASK])
    return (z - lo) / (hi - lo)


def _from_unit_box(u: np.ndarray, box: tuple, ranges: ParamRanges) -> np.ndarray:
    lo, hi = box
    z = lo + np.clip(u, 0.0, 1.0) * (hi - lo)
    z[_LOG_MASK] = np.exp(z[_LOG_MASK])
    return ranges.clip_vector(z)


def direct_fit_objective(params: ModelParams, target: CurveSet) -> float:
    """Sum of the three stored curves' rms_percent values."""
    cs = simulate_curveset(params)
    return (rms_percent(cs.ids_low, target.ids_low)
            + rms_percent(cs.ids_high, target.ids_high)
            + rms_percent(cs.cgg_low, target.cgg_low))


def direct_fit(target: CurveSet, ranges: ParamRanges, init: ModelParams,
               max_evals: int = DIRECT_FIT_MAX_EVALS) -> ModelParams:
    """Classical extraction baseline: derivative-free simplex descent on the
    summed curve errors, box-constrained to the ranges by clipping.

    The best parameter set evaluated is returned, so the objective at the
    result never exceeds the objective at ``init``.
    """
    ranges.require_nondegenerate()
    box = _log_box(ranges)
    best = {"obj": direct_fit_objective(init, target), "params": init, "evals": 1}
    if best["obj"] == 0.0:
        return init

    def objective(u):
        if best["evals"] >= max_evals:
            return best["obj"]  # budget exhausted; keep the simplex stationary
        vec = _from_unit_box(np.asarray(u, dtype=float), box, ranges)
        p = ModelParams.from_vector(vec)
        obj = direct_fit_objective(p, target)
        best["evals"] += 1
        if obj < best["obj"]:
            best["obj"] = obj
            best["params"] = p
        return obj

    u0 = _to_unit_box(init.to_vector(), box)
    minimize(
        objective, u0, method="Nelder-Mead",
        bounds=[(0.0, 1.0)] * len(PARAM_NAMES),
        options={"maxfev": max_evals, "xatol": 1e-6, "fatol": 1e-8, "adaptive": True},
    )
    return best["params"]
