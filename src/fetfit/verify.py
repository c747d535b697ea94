"""Round-trip verification and the classical direct-fit baseline.

Resimulates predicted parameters and scores them against target curves with
relative RMS percentages (normalized by the target's own RMS so the metric
is scale-invariant); subthreshold quality is scored on log10 current. Also
provides a derivative-free simplex fit over the same curves as a baseline
for wall-time comparisons.

The simplex is the in-house ``_nelder_mead``, a bounded adaptive
Nelder-Mead that evaluates scipy 1.17's points bit for bit (pinned by
``tests/test_nelder_mead.py``, which keeps scipy as the reference), so the
package does not import scipy. It searches the unit box of
``ParamRanges.from_unit`` (see ``params``) and clips each point into it
once. Each evaluation is scored on raw arrays, both I-V curves in one
pass, so the checks run where they are needed. The ranges and the
evaluation budget are checked at entry. The target's grids and norms are
checked once per fit, when the start point is scored with
``direct_fit_objective``. Every evaluation checks only its simulated
values.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .ann import MLPWeights, predict_params
from .dataset import Normalizer
from .device import (Curve, CurveKind, CurveSet, ProcessKnobs, _Params, _simulate, apply_knobs,
                     simulate_curveset)
from .errors import DataError
from .features import DEFAULT_FEATURE_CONFIG, FeatureConfig, featurize
from .params import CGG_MARGIN_FF, I_CGGMAX, I_CGGMIN, PARAM_NAMES, ModelParams, ParamRanges

log = logging.getLogger(__name__)

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


def _norm(y: np.ndarray) -> float:
    norm = math.sqrt((y * y).sum())
    if norm == 0:
        raise DataError("rms_percent: target curve is identically zero")
    return norm


def _rms_term(d: np.ndarray, norm: float) -> float:
    # math.sqrt and np.sqrt are both correctly rounded, so either gives these bits
    return 100.0 * math.sqrt((d * d).sum()) / norm


def rms_percent(pred: Curve, target: Curve) -> float:
    """100 * ||pred - target|| / ||target|| over the shared grid."""
    _require_same_grid(pred, target, "rms_percent")
    return _rms_term(pred.y - target.y, _norm(target.y))


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


def _report_pairs(pred_cs: CurveSet, target: CurveSet) -> list:
    """(label, predicted, target) of each reported curve, in report order.
    The identical difference stencil is applied to both sides, so its
    truncation error cancels in the Gm comparison."""
    return [
        ("cgg", pred_cs.cgg_low, target.cgg_low),
        ("ids_low", pred_cs.ids_low, target.ids_low),
        ("ids_high", pred_cs.ids_high, target.ids_high),
        ("gm_low", pred_cs.gm_low(), target.gm_low()),
        ("gm_high", pred_cs.gm_high(), target.gm_high()),
    ]


def _five_curve_errors(pred_cs: CurveSet, target: CurveSet, i_crit: float) -> list:
    errors = []
    for label, pred, tgt in _report_pairs(pred_cs, target):
        is_iv = tgt.kind is CurveKind.IDS_VGS
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
        cfg = DEFAULT_FEATURE_CONFIG
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
               cfg: FeatureConfig | None = None) -> VerifyReport:
    """Featurize the target, predict parameters within the model's box,
    resimulate, and score."""
    if cfg is None:
        cfg = DEFAULT_FEATURE_CONFIG
    t0 = time.perf_counter()
    fv = featurize(target, cfg)
    predicted = predict_params(w, norm, fv)
    extract_seconds = time.perf_counter() - t0
    report = round_trip_from_params(target, predicted, true_params=true_params,
                                    cfg=cfg, ranges=norm.param_ranges)
    report.extract_seconds = extract_seconds
    return report


def variability_suite(base_params: ModelParams, w: MLPWeights, norm: Normalizer,
                      cfg: FeatureConfig | None = None) -> list:
    """Baseline plus the four single-knob perturbations of the base device.
    Each target is simulated from the knobbed parameters, applied within the
    model's box, and round-tripped."""
    reports = []
    for knobs in VARIABILITY_KNOBS:
        p = apply_knobs(base_params, knobs, ranges=norm.param_ranges) \
            if (knobs.lg_scale, knobs.eot_scale) != (1.0, 1.0) else base_params
        target = simulate_curveset(p)
        report = round_trip(target, w, norm, true_params=p, cfg=cfg)
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
        reports.append(round_trip(simulate_curveset(p), w, norm, true_params=p, cfg=cfg))
    medians = {
        label: float(np.median([r.error(label).rms_percent for r in reports]))
        for label in REPORT_CURVES
    }
    medians["sub_low"] = float(np.median(
        [r.error("ids_low").subthreshold_rms_percent for r in reports]))
    medians["sub_high"] = float(np.median(
        [r.error("ids_high").subthreshold_rms_percent for r in reports]))
    return reports, medians


def direct_fit_objective(params: ModelParams, target: CurveSet) -> float:
    """Sum of the three stored curves' rms_percent values."""
    cs = simulate_curveset(params)
    return (rms_percent(cs.ids_low, target.ids_low)
            + rms_percent(cs.ids_high, target.ids_high)
            + rms_percent(cs.cgg_low, target.cgg_low))


def _vector_objective(target: CurveSet):
    """``direct_fit_objective`` against ``target`` as a function of a
    parameter vector from ``ParamRanges.clip_vector``, bit for bit. The
    target's arrays and norms are prepared once; its grids must already
    have passed ``rms_percent``. Each call checks the simulated values and
    raises what ``ModelParams`` and ``simulate_curveset`` raise."""
    t_iv = np.stack([target.ids_low.y, target.ids_high.y])
    t_cgg = target.cgg_low.y
    n_low, n_high, n_cgg = _norm(t_iv[0]), _norm(t_iv[1]), _norm(t_cgg)

    def objective(vec: np.ndarray) -> float:
        vals = vec.tolist()
        # the ModelParams invariants that clip_vector does not already ensure
        if not (math.isfinite(sum(vals)) and vals[I_CGGMIN] + CGG_MARGIN_FF <= vals[I_CGGMAX]):
            ModelParams.from_vector(vec)  # raises its own error
        iv, cv = _simulate(_Params._make(vals))
        # the _rms_term of each curve; a row sum along the last axis adds in
        # the same order as the sum of that row alone
        d = iv - t_iv
        d *= d
        s_low, s_high = np.add.reduce(d, 1).tolist()
        d = cv - t_cgg
        d *= d
        obj = (100.0 * math.sqrt(s_low) / n_low + 100.0 * math.sqrt(s_high) / n_high
               + 100.0 * math.sqrt(np.add.reduce(d)) / n_cgg)
        # simulate_curveset's value checks in one pass: a min is NaN if any
        # value is, and an infinite value makes obj infinite. On a failure
        # they run again to raise their own error; finite values whose
        # squares overflow pass them and leave obj infinite, as before.
        if not (np.minimum.reduce(iv, None) > 0.0 and np.minimum.reduce(cv) > 0.0
                and math.isfinite(obj)):
            simulate_curveset(ModelParams.from_vector(vec))
        return obj

    return objective


def _clip(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``np.clip(x, lo, hi)`` bit for bit, without its Python-level
    dispatch; with bound arrays, as scipy passes them, -0.0 maps to 0.0."""
    return np.minimum(np.maximum(x, lo), hi)


def _tolerances_met(sim: np.ndarray, fsim: np.ndarray) -> bool:
    """scipy's stop test, xatol=1e-6 and fatol=1e-8, on a simplex sorted by
    ``fsim`` (NaN last): there the largest |fsim[0] - fsim[j]| is
    fsim[-1] - fsim[0], so the spread of the points is measured only when
    the values pass."""
    return bool(fsim[-1] - fsim[0] <= 1e-8
                and np.maximum.reduce(np.abs(sim[1:] - sim[0]), None) <= 1e-6)


def _nelder_mead(fun, u0: np.ndarray, max_evals: int) -> tuple:
    """Minimise ``fun`` over the unit box from ``u0``, calling it at most
    ``max_evals`` times; ``fun`` must neither keep nor modify its argument.

    This is the adaptive Nelder-Mead of Gao and Han (2012), kept inside the
    box by clipping every point it builds, with the tolerances xatol=1e-6
    and fatol=1e-8. It evaluates scipy 1.17's points bit for bit (pinned
    by ``tests/test_nelder_mead.py``): it calls ``fun`` on the points of
    ``minimize(method="Nelder-Mead", adaptive=True, bounds=[(0, 1)] * n)``
    in the same order; a ``u0`` outside the box is clipped into it.
    Returns (evaluations, iterations, shrinks, converged), where
    ``converged`` is true when the tolerances stopped the search before the
    budget did.
    """
    n = len(u0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    lo, hi = np.zeros(n), np.ones(n)
    x0 = _clip(u0, lo, hi)
    sim = np.tile(x0, (n + 1, 1))
    sim[range(1, n + 1), range(n)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    # a step past the upper bound is reflected into the box
    sim = _clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(n + 1, np.inf)
    evals = min(n + 1, max_evals)
    for k in range(evals):
        fsim[k] = fun(sim[k])
    iterations = shrinks = 0
    for _ in range(2):  # scipy sorts twice here; with ties the second sort may reorder
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    while evals < max_evals:
        if _tolerances_met(sim, fsim):
            return evals, iterations, shrinks, True
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = _clip(2 * xbar - sim[-1], lo, hi)
        fxr = fun(xr)
        evals += 1
        if fxr < fsim[0]:
            if evals == max_evals:
                break
            xe = _clip((1 + chi) * xbar - chi * sim[-1], lo, hi)
            fxe = fun(xe)
            evals += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if evals == max_evals:
                break
            if fxr < fsim[-1]:  # contract outside, towards the reflected point
                xc = _clip((1 + psi) * xbar - psi * sim[-1], lo, hi)
                fxc = fun(xc)
                accept = fxc <= fxr
            else:  # contract inside, towards the worst point
                xc = _clip((1 - psi) * xbar + psi * sim[-1], lo, hi)
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            evals += 1
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink every point towards the best
                shrinks += 1
                sim[1:] = _clip(sim[0] + sigma * (sim[1:] - sim[0]), lo, hi)
                for j in range(1, min(n, max_evals - evals) + 1):
                    fsim[j] = fun(sim[j])
                    evals += 1
        iterations += 1
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    return evals, iterations, shrinks, False


def direct_fit(target: CurveSet, ranges: ParamRanges, init: ModelParams,
               max_evals: int = DIRECT_FIT_MAX_EVALS) -> ModelParams:
    """Classical extraction baseline: derivative-free simplex descent on the
    summed curve errors, box-constrained to the ranges by clipping.

    The best parameter set evaluated is returned, so the objective at the
    result never exceeds the objective at ``init``. ``init`` may lie
    outside ``ranges``: the simplex then starts from it clipped into the
    box, without a warning. ``ranges`` and ``max_evals`` (an int >= 1, the
    evaluations of the fit, the start point's included) are checked at
    entry. Scoring ``init`` with ``direct_fit_objective`` checks the
    target's grids and norms once. The simplex (``_nelder_mead``) works in
    the unit box of ``ranges.from_unit``, where the log-uniform parameters
    are logarithms; each later evaluation maps its point to a parameter
    vector and checks only the simulated values, and one ``ModelParams`` is
    built on return. With DEBUG logging on, one line per fit gives the
    evaluations, how many of them improved on the best point so far, the
    iterations, the shrinks, why the simplex stopped, and the fit's wall
    time in all and per evaluation.
    """
    if (isinstance(max_evals, bool) or not isinstance(max_evals, (int, np.integer))
            or max_evals < 1):
        raise ValueError(f"max_evals must be an int >= 1, got {max_evals!r}")
    ranges.require_nondegenerate()
    t0 = time.perf_counter()
    best_obj = direct_fit_objective(init, target)
    if best_obj == 0.0:
        log.debug("direct_fit: 1 evaluation; the start point fits the target exactly")
        return init
    objective = _vector_objective(target)
    best_vec, improved = None, 0

    def simplex_objective(u):
        nonlocal best_obj, best_vec, improved
        # _nelder_mead clips u into the unit box; clip_vector restores the C-V margin
        vec = ranges.clip_vector(ranges.from_unit(u))
        obj = objective(vec)
        if obj < best_obj:
            best_obj, best_vec, improved = obj, vec, improved + 1
        return obj

    evals, iterations, shrinks, converged = _nelder_mead(
        simplex_objective, ranges.to_unit(init.to_vector()), max_evals - 1)
    if log.isEnabledFor(logging.DEBUG):
        seconds = time.perf_counter() - t0
        log.debug("direct_fit: %d evaluations, %d improvements, %d iterations, %d shrinks; "
                  "stopped on the %s after %.1f ms, %.1f us per evaluation", 1 + evals,
                  improved, iterations, shrinks,
                  "tolerances" if converged else "evaluation budget",
                  1e3 * seconds, 1e6 * seconds / (1 + evals))
    return init if best_vec is None else ModelParams.from_vector(best_vec)
