"""Verification metric and round-trip tests."""

import numpy as np
import pytest

from fetfit.dataset import build_dataset, fit_normalizer
from fetfit.device import Curve, CurveKind, IV_GRID_LOW, simulate_curveset
from fetfit.errors import DataError
from fetfit.ann import MLPConfig, TrainConfig, train
from fetfit.params import DEFAULT_RANGES, REFERENCE_PARAMS, ModelParams
from fetfit.verify import (
    REPORT_CURVES,
    aggregate_curve_errors,
    direct_fit,
    direct_fit_objective,
    rms_percent,
    round_trip,
    round_trip_from_params,
    subthreshold_rms_percent,
    variability_suite,
)

from . import _oracles
from ._sampling import sample_params_list


def iv_curve(y, vds=0.05):
    return Curve(CurveKind.IDS_VGS, IV_GRID_LOW.points(), y, vds=vds)


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
    x = IV_GRID_LOW.points()
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
    shifted = Curve(CurveKind.IDS_VGS, IV_GRID_LOW.points() + 0.01, c.y, vds=0.05)
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
    report = round_trip(simulate_curveset(p), w, norm, true_params=p, ranges=DEFAULT_RANGES)
    assert len(report.curve_errors) == 5
    for ce in report.curve_errors:
        assert np.isfinite(ce.rms_percent) and ce.rms_percent >= 0
    assert report.extract_seconds is not None and report.extract_seconds > 0
    assert DEFAULT_RANGES.contains(report.predicted)


def test_variability_suite_identity_knob_matches_baseline(small_model):
    ds, norm, w = small_model
    reports = variability_suite(REFERENCE_PARAMS, w, norm, ranges=DEFAULT_RANGES)
    assert len(reports) == 5
    assert reports[0].knobs == (1.0, 1.0)
    baseline = round_trip(simulate_curveset(REFERENCE_PARAMS), w, norm,
                          true_params=REFERENCE_PARAMS, ranges=DEFAULT_RANGES)
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
