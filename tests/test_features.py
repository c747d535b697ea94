"""Feature extractor tests against closed-form and oracle values."""

import numpy as np
import pytest

from fetfit.device import CV_GRID, IV_GRID_LOW, Curve, CurveKind, differentiate, simulate_curveset
from fetfit.errors import ExtractionError
from fetfit.features import (
    FEATURE_NAMES,
    FeatureConfig,
    extract_cv_features,
    extract_gm_features,
    extract_iv_features,
    featurize,
    rms,
    subthreshold_swing,
    trapz,
    vth_constant_current,
)
from fetfit.params import REFERENCE_PARAMS

from . import _oracles
from ._sampling import sample_params_list

CFG = FeatureConfig()

# From tests/_oracles.py.
GOLDEN_RMS_LINEAR = 0.4633213427705081          # rms of y=x on the 81-point grid
GOLDEN_VTH_REF_LOW = 0.3679388216904045         # fine-grid bisection, reference params, Vds=0.05
GOLDEN_SS_DENSE = 36.25546686260764             # dense-grid regression, CIT=CDSC=0, Vds=0.05

# Reference-params feature vector, frozen after oracle validation of its
# components (regression pin; recompute via _oracles.print_goldens on change).
GOLDEN_FEATURES_REF = np.array([
    0.99927115904447961, 0.21438896796967322, 0.40341787713913613,
    0.77861980641591588, 0.76921433900748448, 0.14085288455619183,
    0.3679733067839735, 41.560463733297851, 1.5240415543537497e-05,
    1.0000000027173717e-09, 3.3707611345074081e-06, 6.7555089978401884e-06,
    0.30002513522044783, 42.897237651654223, 7.5812964135709432e-05,
    1.0000004410192027e-09, 1.544751393988232e-05, 3.1360233321215373e-05,
    4.7833913813632085e-05, 1.5238517536240709e-05, 2.6461172042793741e-05,
    0.00019465595048751304, 7.5809214226298653e-05, 0.00012839071590579142,
])


def iv_curve(y, vds=0.05):
    return Curve(CurveKind.IDS_VGS, IV_GRID_LOW.points(), y, vds=vds)


def exponential_iv(vth=0.3, ss_v=0.060, i_at_vth=1e-7):
    x = IV_GRID_LOW.points()
    return iv_curve(i_at_vth * 10 ** ((x - vth) / ss_v))


def test_trapz_constant():
    c = Curve(CurveKind.CGG_VGS, CV_GRID.points(), np.full(111, 0.7), vds=0.0)
    assert trapz(c) == pytest.approx(1.1 * 0.7, rel=1e-14)


def test_trapz_linear_exact():
    x = IV_GRID_LOW.points()
    c = iv_curve(x + 1e-300)
    assert trapz(c) == pytest.approx(0.32, rel=1e-14)


def test_trapz_quadratic_vs_simpson_oracle():
    x = IV_GRID_LOW.points()
    c = iv_curve(x ** 2 + 1e-300)
    oracle = _oracles.simpson(lambda t: t * t, 0, "0.8", n=4000)
    assert trapz(c) == pytest.approx(oracle, rel=1e-4)


def test_trapz_rms_match_bruteforce_on_random_data():
    rng = np.random.default_rng(3)
    x = IV_GRID_LOW.points()
    for _ in range(5):
        y = rng.uniform(0.1, 2.0, size=x.size)
        c = iv_curve(y)
        assert trapz(c) == pytest.approx(_oracles.trapz_sum(x, y), rel=1e-12)
        assert rms(c) == pytest.approx(_oracles.rms_sum(y), rel=1e-12)


def test_rms_constant_and_linear():
    c = Curve(CurveKind.CGG_VGS, CV_GRID.points(), np.full(111, 0.7), vds=0.0)
    assert rms(c) == pytest.approx(0.7, rel=1e-14)
    x = IV_GRID_LOW.points()
    assert rms(iv_curve(x + 1e-300)) == pytest.approx(GOLDEN_RMS_LINEAR, rel=1e-12)


def test_rms_rejects_empty():
    with pytest.raises(ValueError):
        rms(Curve(CurveKind.GM_VGS, np.array([]), np.array([]), vds=0.05))


def test_vth_ideal_exponential_exact():
    assert vth_constant_current(exponential_iv(), 1e-7) == pytest.approx(0.300, abs=1e-12)
    assert vth_constant_current(exponential_iv(), 1e-8) == pytest.approx(0.240, abs=1e-12)


def test_vth_no_crossing_errors():
    x = IV_GRID_LOW.points()
    with pytest.raises(ExtractionError):
        vth_constant_current(iv_curve(np.full(81, 1e-9)), 1e-7)  # never reaches
    with pytest.raises(ExtractionError):
        vth_constant_current(iv_curve(np.full(81, 1e-6)), 1e-7)  # starts above


def test_vth_surrogate_vs_bisection_oracle():
    cs = simulate_curveset(REFERENCE_PARAMS)
    vth = vth_constant_current(cs.ids_low, CFG.i_crit)
    assert abs(vth - GOLDEN_VTH_REF_LOW) < 0.5e-3


def test_ss_ideal_exponentials():
    assert subthreshold_swing(exponential_iv(ss_v=0.060), CFG) == pytest.approx(60.0, abs=1e-9)
    assert subthreshold_swing(exponential_iv(ss_v=0.080), CFG) == pytest.approx(80.0, abs=1e-9)


def test_ss_surrogate_vs_dense_oracle():
    p = REFERENCE_PARAMS.replace(CIT=0.0, CDSC=0.0)
    cs = simulate_curveset(p)
    ss = subthreshold_swing(cs.ids_low, CFG)
    assert ss == pytest.approx(GOLDEN_SS_DENSE, rel=0.02)


def test_ss_window_too_small_errors():
    x = IV_GRID_LOW.points()
    y = np.where(x < 0.4, 1e-10, 1e-6)  # jumps over the window
    y = y + x * 1e-13  # keep strictly increasing
    with pytest.raises(ExtractionError):
        subthreshold_swing(iv_curve(y), CFG)


def test_extract_iv_composite_equals_primitives():
    cs = simulate_curveset(REFERENCE_PARAMS)
    vec = extract_iv_features(cs.ids_low, CFG)
    assert vec[0] == vth_constant_current(cs.ids_low, CFG.i_crit)
    assert vec[1] == subthreshold_swing(cs.ids_low, CFG)
    assert vec[2] == cs.ids_low.y[-1]  # Ion: exact grid read at Vgs=0.8
    assert vec[3] == cs.ids_low.y[0]   # Ioff: exact grid read at Vgs=0
    assert vec[4] == trapz(cs.ids_low)
    assert vec[5] == rms(cs.ids_low)


def test_extract_cv_constant_curve_errors():
    c = Curve(CurveKind.CGG_VGS, CV_GRID.points(), np.full(111, 0.7), vds=0.0)
    with pytest.raises(ExtractionError):
        extract_cv_features(c)


def test_extract_cv_linear_ramp():
    x = CV_GRID.points()
    c = Curve(CurveKind.CGG_VGS, x, 1.0 + x / 1.1, vds=0.0)
    vec = extract_cv_features(c)
    assert vec[2] == pytest.approx(0.55, rel=1e-12)       # V_mid
    assert vec[5] == pytest.approx(1 / 1.1, rel=1e-9)     # slope at Vgs=0


def test_extract_cv_logistic_midpoint():
    cs = simulate_curveset(REFERENCE_PARAMS)  # VthCV = 0.40, ACV = 0.10
    vec = extract_cv_features(cs.cgg_low)
    assert abs(vec[2] - 0.400) < 0.005  # within half a grid step


def test_extract_gm_linear():
    g = differentiate(iv_curve(2.0 * IV_GRID_LOW.points() + 1e-6), 1)
    vec = extract_gm_features(g)
    assert vec[0] == pytest.approx(2.0, rel=1e-9)
    assert vec[1] == pytest.approx(2.0 * 0.8, rel=1e-9)
    assert vec[2] == pytest.approx(2.0, rel=1e-9)


def test_extract_gm_quadratic_max_at_right_edge():
    x = IV_GRID_LOW.points()
    g = differentiate(iv_curve(x ** 2 + 1e-12), 1)
    vec = extract_gm_features(g)
    assert vec[0] == pytest.approx(1.6, rel=1e-9)


def test_featurize_order_contract():
    assert len(FEATURE_NAMES) == 24
    assert FEATURE_NAMES[0] == "Cgg_max"
    assert FEATURE_NAMES[6] == "Vth1"
    assert FEATURE_NAMES[12] == "Vth2"
    assert FEATURE_NAMES[18] == "Gm_max1"
    assert FEATURE_NAMES[23] == "Gm_rms2"
    cs = simulate_curveset(REFERENCE_PARAMS)
    vec = featurize(cs, CFG)
    assert vec[2] == extract_cv_features(cs.cgg_low)[2]
    assert vec[6] == extract_iv_features(cs.ids_low, CFG)[0]
    assert vec[14] == cs.ids_high.y[-1]


def test_featurize_deterministic_and_golden():
    cs = simulate_curveset(REFERENCE_PARAMS)
    a = featurize(cs, CFG)
    b = featurize(simulate_curveset(REFERENCE_PARAMS), CFG)
    assert np.array_equal(a, b)
    np.testing.assert_allclose(a, GOLDEN_FEATURES_REF, rtol=1e-12)


def test_featurize_total_over_sampled_params():
    for p in sample_params_list(500, seed=21):
        vec = featurize(simulate_curveset(p), CFG)
        assert np.all(np.isfinite(vec))


def test_current_scaling_equivariance():
    alpha = 3.7
    cs = simulate_curveset(REFERENCE_PARAMS)
    scaled = cs.ids_low.scaled(alpha)
    cfg_scaled = FeatureConfig(i_crit=CFG.i_crit * alpha, ss_lo=CFG.ss_lo * alpha,
                               ss_hi=CFG.ss_hi * alpha)
    base = extract_iv_features(cs.ids_low, CFG)
    got = extract_iv_features(scaled, cfg_scaled)
    assert got[0] == pytest.approx(base[0], rel=1e-12)  # Vth unchanged
    assert got[1] == pytest.approx(base[1], rel=1e-12)  # SS unchanged
    np.testing.assert_allclose(got[2:], base[2:] * alpha, rtol=1e-12)
    g_base = extract_gm_features(differentiate(cs.ids_low, 1))
    g_scaled = extract_gm_features(differentiate(scaled, 1))
    np.testing.assert_allclose(g_scaled, g_base * alpha, rtol=1e-12)


def test_voltage_shift_equivariance_on_exponential():
    dv = 0.0137
    a = exponential_iv(vth=0.30)
    b = exponential_iv(vth=0.30 + dv)
    assert vth_constant_current(b, 1e-7) - vth_constant_current(a, 1e-7) == pytest.approx(dv, abs=1e-12)
    assert subthreshold_swing(b, CFG) == pytest.approx(subthreshold_swing(a, CFG), rel=1e-12)


def test_extraction_error_names_feature():
    cs = simulate_curveset(REFERENCE_PARAMS)
    bad = Curve(CurveKind.IDS_VGS, cs.ids_low.x, np.full(81, 1e-6) + cs.ids_low.x * 1e-9, vds=0.05)
    from fetfit.device import CurveSet
    with pytest.raises(ExtractionError, match="IV low-Vds"):
        featurize(CurveSet(ids_low=bad, ids_high=cs.ids_high, cgg_low=cs.cgg_low), CFG)


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(i_crit=1e-7, ss_lo=3e-8, ss_hi=3e-9)


def test_default_grid_is_a_validated_precondition():
    x = np.arange(0.0, 1.001, 0.01)  # 0..1 V instead of 0..0.8 V
    y = 1e-7 * 10 ** ((x - 0.3) / 0.060)
    off_grid = Curve(CurveKind.IDS_VGS, x, y, vds=0.05)
    with pytest.raises(ExtractionError, match="grid"):
        extract_iv_features(off_grid, CFG)
    x_cv = np.arange(0.0, 0.801, 0.01)
    with pytest.raises(ExtractionError, match="grid"):
        extract_cv_features(Curve(CurveKind.CGG_VGS, x_cv, 1.0 + x_cv, vds=0.0))


def test_extract_path_differentiates_four_times(monkeypatch):
    """featurize caches the target's Gm on the curve set, so scoring the same
    target afterwards derives Gm only for the resimulated prediction."""
    import fetfit.device
    import fetfit.features
    from fetfit.verify import round_trip_from_params

    calls = []
    real = fetfit.device.differentiate

    def counting(curve, order):
        calls.append(order)
        return real(curve, order)

    monkeypatch.setattr(fetfit.device, "differentiate", counting)
    monkeypatch.setattr(fetfit.features, "differentiate", counting)
    target = simulate_curveset(REFERENCE_PARAMS)
    featurize(target)
    round_trip_from_params(target, REFERENCE_PARAMS.replace(PHIG=4.46))
    assert calls == [1, 1, 1, 1]
