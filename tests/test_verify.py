"""Verification metric and round-trip tests."""

import dataclasses
import logging
import re

import numpy as np
import pytest

import fetfit.verify
from fetfit.dataset import build_dataset, fit_normalizer
from fetfit.device import IV_X, Curve, CurveKind, simulate_curveset
from fetfit.errors import ConfigError, DataError, InvalidParameterError
from fetfit.ann import MLPConfig, TrainConfig, predict_params, train
from fetfit.features import FeatureConfig, featurize
from fetfit.params import DEFAULT_RANGES, REFERENCE_PARAMS, ModelParams, ParamRanges
from fetfit.verify import (
    REPORT_CURVES,
    aggregate_curve_errors,
    direct_fit,
    direct_fit_objective,
    holdout_round_trip,
    rms_percent,
    round_trip,
    round_trip_from_params,
    subthreshold_rms_percent,
    variability_suite,
)

from . import _oracles
from ._sampling import sample_params_list


def iv_curve(y, vds=0.05):
    return Curve(CurveKind.IDS_VGS, IV_X.copy(), y, vds=vds)


def test_rms_percent_identity_zero():
    c = simulate_curveset(REFERENCE_PARAMS).ids_low
    assert rms_percent(c, c) == 0.0


def test_rms_percent_one_percent_exact():
    c = simulate_curveset(REFERENCE_PARAMS).ids_low
    scaled = c.scaled(1.01)
    assert rms_percent(scaled, c) == pytest.approx(1.0, abs=1e-9)


def test_rms_percent_scale_invariant():
    c = simulate_curveset(REFERENCE_PARAMS).ids_low
    other = iv_curve(c.y * 1.3)
    base = rms_percent(other, c)
    assert rms_percent(other.scaled(7.0), c.scaled(7.0)) == pytest.approx(base, rel=1e-12)


def test_rms_percent_matches_direct_summation():
    rng = np.random.default_rng(30)
    x = IV_X.copy()
    t = rng.uniform(0.5, 2.0, size=x.size)
    p = t * (1.0 + rng.normal(0, 0.02, size=x.size))
    pred, target = iv_curve(p), iv_curve(t)
    num = _oracles.rms_sum(p - t)
    den = _oracles.rms_sum(t)
    assert rms_percent(pred, target) == pytest.approx(100.0 * num / den, rel=1e-12)


def test_rms_percent_grid_mismatch_errors():
    a = simulate_curveset(REFERENCE_PARAMS).ids_low
    b = simulate_curveset(REFERENCE_PARAMS).cgg_low
    with pytest.raises(DataError):
        rms_percent(a, b)


def test_rms_percent_equal_length_grid_mismatch_errors():
    c = simulate_curveset(REFERENCE_PARAMS).ids_low
    shifted = Curve(CurveKind.IDS_VGS, IV_X + 0.01, c.y, vds=0.05)
    with pytest.raises(DataError):
        rms_percent(shifted, c)
    with pytest.raises(DataError):
        rms_percent(c, shifted)


def test_subthreshold_rms_identity_and_decade_shift():
    c = simulate_curveset(REFERENCE_PARAMS).ids_low
    assert subthreshold_rms_percent(c, c, 1e-7) == 0.0
    shifted = c.scaled(10 ** 0.01)  # exactly 0.01 decades everywhere
    mask = c.y < 1e-7
    expected = 100.0 * 0.01 * np.sqrt(mask.sum()) / np.sqrt(np.sum(np.log10(c.y[mask]) ** 2))
    assert subthreshold_rms_percent(shifted, c, 1e-7) == pytest.approx(expected, rel=1e-6)


def test_subthreshold_rms_needs_points():
    c = simulate_curveset(REFERENCE_PARAMS).ids_low
    with pytest.raises(DataError):
        subthreshold_rms_percent(c, c, 1e-12)  # nothing below the criterion


def test_round_trip_fixed_point_is_all_zero():
    p = REFERENCE_PARAMS
    target = simulate_curveset(p)
    report = round_trip_from_params(target, p, true_params=p, ranges=DEFAULT_RANGES)
    assert sorted(ce.label for ce in report.curve_errors) == sorted(REPORT_CURVES)
    for ce in report.curve_errors:
        assert ce.rms_percent == 0.0
        if ce.subthreshold_rms_percent is not None:
            assert ce.subthreshold_rms_percent == 0.0
    for name, err in report.param_errors.items():
        assert err["abs"] == 0.0


@pytest.fixture(scope="module")
def small_model():
    """A quickly trained model for pipeline-shaped tests."""
    ds = build_dataset(600, seed=31)
    norm = fit_normalizer(ds)
    w, _ = train(ds, norm, MLPConfig(seed=0),
                 TrainConfig(max_epochs=60, patience=59, seed=0))
    return ds, norm, w


def test_round_trip_pipeline_produces_finite_errors(small_model):
    ds, norm, w = small_model
    p = ModelParams.from_vector(ds.Y[ds.indices("test")[0]])
    report = round_trip(simulate_curveset(p), w, norm, true_params=p)
    assert len(report.curve_errors) == 5
    for ce in report.curve_errors:
        assert np.isfinite(ce.rms_percent) and ce.rms_percent >= 0
    assert report.extract_seconds is not None and report.extract_seconds > 0
    assert DEFAULT_RANGES.contains(report.predicted)


def test_round_trip_featurizes_with_the_model_settings(small_model):
    """round_trip takes its feature settings from the normalizer, for the
    features and for the subthreshold window alike."""
    ds, norm, w = small_model
    fcfg = FeatureConfig(i_crit=1.5e-7)
    norm2 = dataclasses.replace(norm, feature_cfg=fcfg)
    target = simulate_curveset(REFERENCE_PARAMS)
    report = round_trip(target, w, norm2, true_params=REFERENCE_PARAMS)
    assert report.predicted == predict_params(w, norm2, featurize(target, fcfg))
    assert report.predicted != round_trip(target, w, norm).predicted
    want = round_trip_from_params(target, report.predicted, true_params=REFERENCE_PARAMS,
                                  cfg=fcfg, ranges=norm.param_ranges)
    report.extract_seconds = None
    assert report.to_dict() == want.to_dict()


@pytest.mark.parametrize("n_devices", [-5, 0, 2.0])
def test_holdout_round_trip_rejects_a_device_count_that_is_not_an_int_from_1(small_model,
                                                                               n_devices):
    ds, norm, w = small_model
    with pytest.raises(ConfigError, match="^n_devices must be"):
        holdout_round_trip(ds, norm, w, n_devices=n_devices)


def test_variability_suite_identity_knob_matches_baseline(small_model):
    ds, norm, w = small_model
    reports = variability_suite(REFERENCE_PARAMS, w, norm)
    assert len(reports) == 5
    assert reports[0].knobs == (1.0, 1.0)
    baseline = round_trip(simulate_curveset(REFERENCE_PARAMS), w, norm,
                          true_params=REFERENCE_PARAMS)
    for label in REPORT_CURVES:
        assert reports[0].error(label).rms_percent == baseline.error(label).rms_percent
    agg = aggregate_curve_errors(reports)
    for label in REPORT_CURVES:
        manual = np.mean([r.error(label).rms_percent for r in reports])
        assert agg[label] == pytest.approx(manual, rel=1e-15)


def test_direct_fit_true_init_returned_unchanged():
    p = REFERENCE_PARAMS
    target = simulate_curveset(p)
    out = direct_fit(target, DEFAULT_RANGES, p, max_evals=50)
    assert out == p
    assert direct_fit_objective(out, target) == 0.0


def test_direct_fit_improves_on_init():
    target_params = sample_params_list(1, seed=32)[0]
    target = simulate_curveset(target_params)
    lo, hi = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
    init = ModelParams.from_vector(DEFAULT_RANGES.clip_vector((lo + hi) / 2))
    out = direct_fit(target, DEFAULT_RANGES, init, max_evals=400)
    assert direct_fit_objective(out, target) <= direct_fit_objective(init, target)
    assert DEFAULT_RANGES.contains(out)


# direct_fit(seed-32 target, mid-range init, 300 evaluations), recorded as
# float.hex before the unit-box maps and curve checks were vectorised: the
# simplex path must stay bit-identical
GOLDEN_DIRECT_FIT_32 = (
    "0x1.1565e3877275bp+2", "0x1.c272490491590p-4", "0x1.34cf0e3e8ba1bp-3",
    "0x1.c76be447138d0p-4", "0x1.0b5873f804a96p+0", "0x1.e6b732e912d94p-1",
    "0x1.cab644e4d06a3p-2", "0x1.4dfb3018d59d7p-3", "0x1.c5478870c9b73p+9",
    "0x1.cbaa16cc853f3p-28", "0x1.b4d730b87d6aap-1", "0x1.24b7e46786055p-2",
    "0x1.4ab4efe3f1bc0p-7", "0x1.b72a0ff4c704ep-4",
)


def test_direct_fit_golden():
    target = simulate_curveset(sample_params_list(1, seed=32)[0])
    lo, hi = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
    init = ModelParams.from_vector(DEFAULT_RANGES.clip_vector((lo + hi) / 2))
    out = direct_fit(target, DEFAULT_RANGES, init, max_evals=300).to_vector()
    assert [v.hex() for v in out] == list(GOLDEN_DIRECT_FIT_32)


# the same fit with the full 2,000-evaluation budget, recorded as float.hex
# before the simplex evaluations ran on parameter vectors
GOLDEN_DIRECT_FIT_32_FULL_BUDGET = (
    "0x1.1637aeac57ad0p+2", "0x1.e1eda126104d6p-4", "0x1.38018623ba232p-4",
    "0x1.7e088535d2ff5p-4", "0x1.2be9270753c34p+0", "0x1.7fc264f15b3a0p+0",
    "0x1.dddb5a63243b0p-2", "0x1.5a66c114eaaf7p-3", "0x1.00204ec001fc2p+8",
    "0x1.9eb82a05f7f7ep-29", "0x1.c544b7fd09868p-1", "0x1.11ca84bf920dfp-2",
    "0x1.5cb8e88937f20p-6", "0x1.21402579ad6d2p-3",
)


def test_direct_fit_full_budget_golden():
    target = simulate_curveset(sample_params_list(1, seed=32)[0])
    lo, hi = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
    init = ModelParams.from_vector(DEFAULT_RANGES.clip_vector((lo + hi) / 2))
    out = direct_fit(target, DEFAULT_RANGES, init).to_vector()
    assert [v.hex() for v in out] == list(GOLDEN_DIRECT_FIT_32_FULL_BUDGET)


def test_direct_fit_logs_one_line_per_fit_at_debug(caplog):
    target = simulate_curveset(sample_params_list(1, seed=32)[0])
    lo, hi = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
    init = ModelParams.from_vector(DEFAULT_RANGES.clip_vector((lo + hi) / 2))
    caplog.set_level(logging.INFO, logger="fetfit.verify")
    direct_fit(target, DEFAULT_RANGES, init, max_evals=300)
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="fetfit.verify")
    direct_fit(target, DEFAULT_RANGES, init, max_evals=300)
    direct_fit(simulate_curveset(REFERENCE_PARAMS), DEFAULT_RANGES, REFERENCE_PARAMS)
    converging = sample_params_list(3, seed=5)[2]  # started next to it, the simplex converges
    near = ModelParams.from_vector(DEFAULT_RANGES.clip_vector(converging.to_vector() * (1 + 1e-9)))
    direct_fit(simulate_curveset(converging), DEFAULT_RANGES, near)
    budget, exact, converged = caplog.messages
    timing = r" after \d+\.\d ms, \d+\.\d us per evaluation"
    assert re.fullmatch(r"direct_fit: 300 evaluations, [1-9]\d* improvements, [1-9]\d* "
                        r"iterations, \d+ shrinks; stopped on the evaluation budget" + timing,
                        budget)
    assert exact == "direct_fit: 1 evaluation; the start point fits the target exactly"
    assert re.fullmatch(r"direct_fit: 1821 evaluations, \d+ improvements, \d+ iterations, "
                        r"\d+ shrinks; stopped on the tolerances" + timing, converged)


def test_simplex_clip_equals_np_clip_bit_for_bit():
    """The simplex's clip is np.clip with bound arrays, signbit and NaN
    included, on points and on the (n, n) block a shrink clips."""
    lo, hi = np.zeros(14), np.ones(14)
    special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -1e-300, 5e-324,
                        -5e-324, 1.0, 1.0 + 2.0 ** -52, 1.5, -0.2, 0.5])
    rng = np.random.default_rng(70)
    cases = [special, special[::-1], rng.choice(special, size=(14, 14)),
             rng.uniform(-0.5, 1.5, size=(14, 14))]
    cases += [np.where(rng.uniform(size=14) < 0.3, rng.choice(special, 14),
                       rng.uniform(-0.5, 1.5, 14)) for _ in range(200)]
    for x in cases:
        assert fetfit.verify._clip(x, lo, hi).tobytes() == np.clip(x, lo, hi).tobytes()


def test_simplex_stop_test_equals_the_two_max_test():
    """On a sorted fsim (NaN last), testing fsim[-1] - fsim[0] first gives
    scipy's two-max test, with ties, infinities and NaN."""
    def two_max(sim, fsim):
        return bool(np.max(np.abs(sim[1:] - sim[0])) <= 1e-6
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-8)

    rng = np.random.default_rng(71)
    steps = np.array([0.0, 0.0, 1e-9, 5e-9, 1e-8, 1.0000000000000002e-8, 2e-8, 1e-3])
    specials = np.array([np.inf, -np.inf, np.nan])
    outcomes = []
    for _ in range(2000):
        fsim = rng.uniform(0.0, 10.0) + rng.choice(steps) * rng.integers(2, size=15)
        if rng.uniform() < 0.3:
            fsim[rng.integers(15, size=rng.integers(1, 15))] = rng.choice(specials)
        fsim.sort()
        sim = rng.uniform(size=14) + rng.choice([0.0, 1e-7, 5e-7, 2e-6]) * rng.uniform(
            -1.0, 1.0, size=(15, 14))
        if rng.uniform() < 0.05:
            sim[rng.integers(15), rng.integers(14)] = rng.choice(specials)
        with np.errstate(invalid="ignore"):  # inf - inf
            outcomes.append(fetfit.verify._tolerances_met(sim, fsim))
            assert outcomes[-1] == two_max(sim, fsim)
    assert 100 < sum(outcomes) < 1900


@pytest.mark.parametrize("max_evals", [-5, 0, 2.5, True])
def test_direct_fit_rejects_bad_max_evals(max_evals):
    target = simulate_curveset(REFERENCE_PARAMS)
    with pytest.raises(ValueError, match="max_evals"):
        direct_fit(target, DEFAULT_RANGES, REFERENCE_PARAMS, max_evals=max_evals)


def test_simplex_evaluations_equal_the_curve_errors(monkeypatch):
    """The objective the simplex sees at a point is exactly the sum of the
    three rms_percent terms of that point's simulated curves, and equals
    direct_fit_objective there: 200 points, many outside the unit box, in
    ranges whose C-V plateaus overlap, so clipping and the margin repair run."""
    ranges = ParamRanges.from_dict({**DEFAULT_RANGES.to_dict(), "CGGMIN": [0.05, 1.0]})
    target = simulate_curveset(sample_params_list(1, seed=41)[0])
    far = REFERENCE_PARAMS.replace(CGGMAX=1e6)  # every other point improves on it
    rng = np.random.default_rng(40)
    seen, repaired = [], 0
    nelder_mead = fetfit.verify._nelder_mead

    def one_evaluation(fun, u0, max_evals):
        # the simplex's one evaluation is its start point, clipped into the box
        def record(u):
            seen.append(fun(u))
            return seen[-1]
        return nelder_mead(record, rng.uniform(-0.3, 1.3, size=u0.shape), max_evals)

    monkeypatch.setattr(fetfit.verify, "_nelder_mead", one_evaluation)
    for _ in range(200):
        p = direct_fit(target, ranges, far, max_evals=2)
        cs = simulate_curveset(p)
        want = (rms_percent(cs.ids_low, target.ids_low)
                + rms_percent(cs.ids_high, target.ids_high)
                + rms_percent(cs.cgg_low, target.cgg_low))
        assert p != far and ranges.contains(p)
        repaired += p.CGGMIN == p.CGGMAX - 0.1
        assert seen[-1] == want
        assert direct_fit_objective(p, target) == want
    assert len(seen) == 200 and repaired > 10, repaired


@pytest.mark.parametrize("curve", ["ids_low", "ids_high", "cgg_low"])
def test_direct_fit_checks_target_grid_before_the_simplex(monkeypatch, curve):
    target = simulate_curveset(sample_params_list(1, seed=32)[0])
    c = getattr(target, curve)
    shifted = dataclasses.replace(
        target, **{curve: Curve(c.kind, c.x + 0.01, c.y, vds=c.vds)})

    def no_simplex(*args, **kwargs):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(fetfit.verify, "_nelder_mead", no_simplex)
    with pytest.raises(DataError, match="curve grids do not match"):
        direct_fit(shifted, DEFAULT_RANGES, REFERENCE_PARAMS)


@pytest.mark.parametrize("point, error, message", [
    (np.nan, InvalidParameterError, "must be finite"),
    (0.0, ValueError, "CggVgs values must be strictly positive"),
], ids=["non-finite-point", "negative-cgg"])
def test_simplex_evaluation_raises_the_model_checks_errors(monkeypatch, point, error, message):
    """An evaluation whose parameters or curves are invalid raises what
    ModelParams and simulate_curveset raise; here CGGMIN may go negative."""
    ranges = ParamRanges.from_dict({**DEFAULT_RANGES.to_dict(), "CGGMIN": [-0.5, 0.45]})
    target = simulate_curveset(REFERENCE_PARAMS)
    nelder_mead = fetfit.verify._nelder_mead
    monkeypatch.setattr(fetfit.verify, "_nelder_mead", lambda fun, u0, max_evals:
                        nelder_mead(fun, np.full(u0.shape, point), max_evals))
    with pytest.raises(error, match=message):
        direct_fit(target, ranges, REFERENCE_PARAMS.replace(CGGMIN=0.3))
