"""Acceptance criteria, one test per criterion, at full scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The full-scale pipeline (criterion 3) is built once in a
module fixture and reused by criteria 4, 5, and 8; the whole module takes
several minutes on one CPU core.
"""

import time

import numpy as np
import pytest

from fetfit.ann import MLPConfig, TrainConfig, forward, init_weights, loss_and_grad, train
from fetfit.dataset import build_dataset, fit_normalizer
from fetfit.device import CV_X, IV_X, Curve, CurveKind, differentiate, simulate_curveset
from fetfit.features import (
    FeatureConfig,
    extract_cv_features,
    extract_gm_features,
    extract_iv_features,
    rms,
    subthreshold_swing,
    trapz,
    vth_constant_current,
)
from fetfit.params import DEFAULT_RANGES, ModelParams, REFERENCE_PARAMS
from fetfit.verify import (
    ROUND_TRIP_LIMITS,
    REPORT_CURVES,
    VARIABILITY_FACTOR,
    aggregate_curve_errors,
    direct_fit,
    direct_fit_objective,
    holdout_round_trip,
    rms_percent,
    round_trip,
    round_trip_from_params,
    variability_suite,
)

from . import _oracles
from ._sampling import sample_params_list
from .test_ann import finite_diff_grads, max_rel_grad_error

PIPELINE_N = 25000
GEN_SEED = 101
TRAIN_SEED = 202
GEN_TIME_LIMIT_S = 654.0
TRAIN_TIME_LIMIT_S = 600.0
N_HOLDOUT = 200


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def pipeline():
    state = {}
    t0 = time.perf_counter()
    state["ds"] = build_dataset(PIPELINE_N, seed=GEN_SEED)
    state["gen_wall"] = time.perf_counter() - t0
    state["norm"] = fit_normalizer(state["ds"])
    t0 = time.perf_counter()
    state["weights"], state["history"] = train(
        state["ds"], state["norm"], MLPConfig(seed=TRAIN_SEED), TrainConfig(seed=TRAIN_SEED))
    state["train_wall"] = time.perf_counter() - t0
    return state


def holdout_medians(pipe):
    if "medians" not in pipe:
        t0 = time.perf_counter()
        pipe["reports"], pipe["medians"] = holdout_round_trip(
            pipe["ds"], pipe["norm"], pipe["weights"], n_devices=N_HOLDOUT)
        pipe["round_trip_wall"] = time.perf_counter() - t0
    return pipe["medians"]


def test_criterion_1_feature_oracles():
    t0 = time.perf_counter()
    cfg = FeatureConfig()
    checks = []

    def close(got, want, rel=1e-6, abs_tol=0.0):
        return abs(got - want) <= max(rel * abs(want), abs_tol)

    # C-V features on a linear ramp 1 -> 2 fF over [0, 1.1]
    x_cv = CV_X.copy()
    ramp = Curve(CurveKind.CGG_VGS, x_cv, 1.0 + x_cv / 1.1, vds=0.0)
    cv = extract_cv_features(ramp)
    checks.append(("Cgg_max", close(cv[0], 2.0)))
    checks.append(("Cgg_min", close(cv[1], 1.0)))
    checks.append(("V_mid", close(cv[2], 0.55)))
    checks.append(("Cgg_inte", close(cv[3], 1.65)))  # trapezoid exact on linear data
    checks.append(("Cgg_rms", close(cv[4], _oracles.rms_sum(ramp.y))))
    checks.append(("Cgg_slope", close(cv[5], 1.0 / 1.1)))

    # I-V features on an ideal 60 mV/dec exponential crossing 1e-7 A at 0.3 V
    x_iv = IV_X.copy()
    expo = Curve(CurveKind.IDS_VGS, x_iv, 1e-7 * 10 ** ((x_iv - 0.3) / 0.060), vds=0.05)
    iv = extract_iv_features(expo, cfg)
    checks.append(("Vth (exponential)", close(iv[0], 0.300, rel=0, abs_tol=1e-9)))
    checks.append(("SS (exponential)", close(iv[1], 60.0)))
    checks.append(("Ion", iv[2] == expo.y[-1]))
    checks.append(("Ioff", iv[3] == expo.y[0]))
    checks.append(("Ids_inte", close(iv[4], _oracles.trapz_sum(x_iv, expo.y), rel=1e-12)))
    checks.append(("Ids_rms", close(iv[5], _oracles.rms_sum(expo.y), rel=1e-12)))

    # Vth on the surrogate against the fine-grid bisection oracle (0.5 mV)
    cs = simulate_curveset(REFERENCE_PARAMS)
    vth = vth_constant_current(cs.ids_low, cfg.i_crit)
    checks.append(("Vth (surrogate vs oracle)", abs(vth - 0.3679388216904045) < 0.5e-3))

    # SS on the surrogate against the dense-regression oracle (2%)
    cs_ss = simulate_curveset(REFERENCE_PARAMS.replace(CIT=0.0, CDSC=0.0))
    ss = subthreshold_swing(cs_ss.ids_low, cfg)
    checks.append(("SS (surrogate vs oracle)", abs(ss - 36.25546686260764) / 36.25546686260764 < 0.02))

    # Gm features on linear Ids (constant derivative) and quadratic Ids (max at edge)
    lin = Curve(CurveKind.IDS_VGS, x_iv, 2.0 * x_iv + 1e-6, vds=0.05)
    gm = extract_gm_features(differentiate(lin, 1))
    checks.append(("Gm_max", close(gm[0], 2.0)))
    checks.append(("Gm_inte", close(gm[1], 1.6)))
    checks.append(("Gm_rms", close(gm[2], 2.0)))
    quad = Curve(CurveKind.IDS_VGS, x_iv, x_iv ** 2 + 1e-12, vds=0.05)
    checks.append(("Gm_max (quadratic)", close(extract_gm_features(differentiate(quad, 1))[0], 1.6)))

    # integral and RMS primitives against brute-force summation on random data
    rng = np.random.default_rng(40)
    y = rng.uniform(0.1, 2.0, size=x_iv.size)
    rnd = Curve(CurveKind.IDS_VGS, x_iv, y, vds=0.05)
    checks.append(("trapz (random)", close(trapz(rnd), _oracles.trapz_sum(x_iv, y), rel=1e-12)))
    checks.append(("rms (random)", close(rms(rnd), _oracles.rms_sum(y), rel=1e-12)))

    elapsed = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    report(1, "feature oracle suite", not failed and elapsed < 5.0,
           f"[{len(checks)} checks, {elapsed:.2f} s]" + (f" failed: {failed}" if failed else ""))


def test_criterion_2_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for trial in range(10):
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 6))] + \
                 [int(rng.integers(2, 6)) for _ in range(depth)] + [int(rng.integers(1, 4))]
        w = init_weights(MLPConfig(widths=tuple(widths), seed=trial))
        X = rng.normal(size=(int(rng.integers(2, 6)), widths[0]))
        Y = rng.normal(size=(X.shape[0], widths[-1]))
        _, g = loss_and_grad(w, X, Y)
        worst = max(worst, max_rel_grad_error(g, finite_diff_grads(w, X, Y)))
    elapsed = time.perf_counter() - t0
    report(2, "gradient check", worst < 1e-4 and elapsed < 30.0,
           f"[10 networks, max rel err {worst:.2e}, {elapsed:.1f} s]")


def test_criterion_3_full_scale_pipeline(pipeline):
    hist = pipeline["history"]
    ep1_val = hist.epochs[0]["val_loss"]
    best_val = hist.meta["best_val_loss"]
    ratio = best_val / ep1_val
    ok = (pipeline["gen_wall"] < GEN_TIME_LIMIT_S
          and pipeline["train_wall"] < TRAIN_TIME_LIMIT_S
          and ratio < 0.2)
    report(3, "full-scale pipeline", ok,
           f"[gen {PIPELINE_N} in {pipeline['gen_wall']:.1f} s (< {GEN_TIME_LIMIT_S:.0f}), "
           f"train {hist.meta['trained_epochs']} epochs in {pipeline['train_wall']:.1f} s "
           f"(< {TRAIN_TIME_LIMIT_S:.0f}), val {best_val:.3e} / epoch-1 {ep1_val:.3e} "
           f"= {ratio:.3f} (< 0.2)]")


def test_criterion_4_round_trip_accuracy(pipeline):
    medians = holdout_medians(pipeline)
    elapsed = pipeline["round_trip_wall"]
    failures = {k: (medians[k], ROUND_TRIP_LIMITS[k]) for k in ROUND_TRIP_LIMITS
                if medians[k] > ROUND_TRIP_LIMITS[k]}
    detail = ", ".join(f"{k} {medians[k]:.3f}%<={ROUND_TRIP_LIMITS[k]:g}" for k in ROUND_TRIP_LIMITS)
    report(4, "round-trip accuracy", not failures and elapsed < 120.0,
           f"[{N_HOLDOUT} devices, {elapsed:.1f} s; {detail}]")


def test_criterion_5_variability_suite(pipeline):
    medians = holdout_medians(pipeline)
    t0 = time.perf_counter()
    reports = variability_suite(REFERENCE_PARAMS, pipeline["weights"], pipeline["norm"])
    elapsed = time.perf_counter() - t0
    knob_avg = aggregate_curve_errors(reports[1:])  # the four knob settings
    failures = {k: knob_avg[k] for k in REPORT_CURVES
                if knob_avg[k] > VARIABILITY_FACTOR * medians[k]}
    detail = ", ".join(
        f"{k} {knob_avg[k]:.3f}%<={VARIABILITY_FACTOR * medians[k]:.3f}" for k in REPORT_CURVES)
    report(5, "variability suite", not failures and elapsed < 60.0,
           f"[{elapsed:.1f} s; {detail}]")


def test_criterion_6_determinism(tmp_path):
    from fetfit.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"train": {"max_epochs": 8, "patience": 7}}')
    outs = []
    for run in ("a", "b"):
        gen_out = tmp_path / f"gen_{run}"
        assert main(["gen", "--n", "300", "--seed", "17", "--out", str(gen_out)]) == 0
        train_out = tmp_path / f"train_{run}"
        assert main(["train", "--data", str(gen_out / "dataset.csv"),
                     "--out", str(train_out), "--config", str(cfg)]) == 0
        outs.append((gen_out, train_out))
    same_data = (outs[0][0] / "dataset.csv").read_bytes() == (outs[1][0] / "dataset.csv").read_bytes()
    same_model = (outs[0][1] / "model.json").read_bytes() == (outs[1][1] / "model.json").read_bytes()
    report(6, "determinism", same_data and same_model,
           f"[dataset bytes identical: {same_data}, model bytes identical: {same_model}]")


def test_criterion_7_metric_sanity():
    cs = simulate_curveset(REFERENCE_PARAMS)
    one_pct = abs(rms_percent(cs.ids_low.scaled(1.01), cs.ids_low) - 1.0)
    fp_report = round_trip_from_params(cs, REFERENCE_PARAMS, true_params=REFERENCE_PARAMS)
    fp_zero = all(ce.rms_percent == 0.0 and (ce.subthreshold_rms_percent in (None, 0.0))
                  for ce in fp_report.curve_errors)
    report(7, "metric sanity", one_pct < 1e-9 and fp_zero,
           f"[|rms%(1.01*y, y) - 1| = {one_pct:.2e}, fixed-point errors all zero: {fp_zero}]")


def test_criterion_8_direct_fit_baseline(pipeline):
    lo, hi = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
    mid = ModelParams.from_vector(DEFAULT_RANGES.clip_vector((lo + hi) / 2))
    targets = sample_params_list(10, seed=42)
    nn_wall = fit_wall = 0.0
    objectives = []
    for true_params in targets:
        target = simulate_curveset(true_params)
        rep = round_trip(target, pipeline["weights"], pipeline["norm"])
        nn_wall += rep.extract_seconds  # featurize + predict, as recorded in the report
        t0 = time.perf_counter()
        fitted = direct_fit(target, DEFAULT_RANGES, mid)
        fit_wall += time.perf_counter() - t0
        objectives.append(direct_fit_objective(fitted, target))
    max_obj = max(objectives)
    speed_ok = nn_wall < fit_wall / 100.0
    report(8, "direct-fit baseline", max_obj < 10.0 and speed_ok,
           f"[max objective {max_obj:.2f}% (< 10), network {nn_wall * 1e3:.1f} ms vs "
           f"simplex {fit_wall:.1f} s ({fit_wall / nn_wall:.0f}x)]")
