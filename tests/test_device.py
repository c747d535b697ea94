"""Surrogate device model tests."""

import numpy as np
import pytest

from fetfit.device import (
    CV_GRID,
    IV_GRID_HIGH,
    IV_GRID_LOW,
    Curve,
    CurveKind,
    ProcessKnobs,
    apply_knobs,
    cgg,
    differentiate,
    ids,
    simulate_curveset,
    simulate_ids_vds,
)
from fetfit.errors import InvalidParameterError
from fetfit.params import DEFAULT_RANGES, PARAM_NAMES, REFERENCE_PARAMS, ModelParams

from ._sampling import sample_params_list

# Golden values from tests/_oracles.py (mpmath re-evaluation of the model
# equations at 50-digit precision).
GOLDEN_ION_REF = 7.5812964135709458e-5   # ids(ref, vgs=0.8, vds=0.7)
GOLDEN_IDSVDS_REF = 5.9456357187406526e-5  # ids(ref, vgs=0.7, vds=0.8)
GOLDEN_CGG_EXAMPLE = 0.93105857863000449   # 0.2 + 1.0*sigmoid(1)


def test_ids_reference_golden():
    assert ids(REFERENCE_PARAMS, 0.8, 0.7) == pytest.approx(GOLDEN_ION_REF, rel=1e-12)


def test_ids_leakage_floor_dominates():
    # far below threshold the current collapses to the leakage floor
    val = ids(REFERENCE_PARAMS, -0.5, 0.7)
    assert val == pytest.approx(1e-9, rel=0.01)


def test_ids_zero_drain_bias_is_exactly_ioff():
    assert ids(REFERENCE_PARAMS, 0.5, 0.0) == REFERENCE_PARAMS.IOFF0


def test_ids_rejects_negative_vds():
    with pytest.raises(ValueError):
        ids(REFERENCE_PARAMS, 0.5, -0.1)


def test_ids_rejects_non_finite_params():
    with pytest.raises(InvalidParameterError):
        ModelParams(**{**REFERENCE_PARAMS.to_dict(), "U0": float("nan")})


def test_params_margin_invariant():
    with pytest.raises(InvalidParameterError):
        ModelParams(**{**REFERENCE_PARAMS.to_dict(), "CGGMAX": 0.25, "CGGMIN": 0.2})


def test_cgg_midpoint():
    val = cgg(REFERENCE_PARAMS, 0.40)  # VthCV = 4.45 - 4.05 + 0.0
    expected = REFERENCE_PARAMS.CGGMIN + (REFERENCE_PARAMS.CGGMAX - REFERENCE_PARAMS.CGGMIN) * 0.5
    assert val == pytest.approx(expected, abs=1e-15)


def test_cgg_saturates_to_max():
    p = REFERENCE_PARAMS
    val = cgg(p, 0.40 + 20 * p.ACV)
    assert abs(val - p.CGGMAX) < 1e-6


def test_cgg_example_golden():
    p = REFERENCE_PARAMS.replace(CGGMAX=1.2)
    assert cgg(p, 0.5) == pytest.approx(GOLDEN_CGG_EXAMPLE, rel=1e-12)


def test_simulate_curveset_grid_sizes():
    cs = simulate_curveset(REFERENCE_PARAMS)
    assert len(cs.ids_low.x) == 81
    assert len(cs.ids_high.x) == 81
    assert len(cs.cgg_low.x) == 111
    assert cs.ids_low.vds == 0.05 and cs.ids_high.vds == 0.7 and cs.cgg_low.vds == 0.0


def test_simulate_curveset_is_pure():
    a = simulate_curveset(REFERENCE_PARAMS)
    b = simulate_curveset(REFERENCE_PARAMS)
    for ca, cb in [(a.ids_low, b.ids_low), (a.ids_high, b.ids_high), (a.cgg_low, b.cgg_low)]:
        assert np.array_equal(ca.y, cb.y)


def test_simulate_curveset_ion_matches_ids_golden():
    cs = simulate_curveset(REFERENCE_PARAMS)
    assert cs.ids_high.y[-1] == pytest.approx(GOLDEN_ION_REF, rel=1e-12)


def test_simulated_curves_equal_public_constructor():
    # simulated curves skip the grid checks, so pin them to curves built and
    # checked through the public constructor from the model functions
    for p in sample_params_list(20, seed=12):
        cs = simulate_curveset(p)
        x_iv, x_cv = IV_GRID_LOW.points(), CV_GRID.points()
        built = [
            Curve(CurveKind.IDS_VGS, x_iv, ids(p, x_iv, 0.05), vds=0.05),
            Curve(CurveKind.IDS_VGS, x_iv, ids(p, x_iv, 0.7), vds=0.7),
            Curve(CurveKind.CGG_VGS, x_cv, cgg(p, x_cv), vds=0.0),
        ]
        for sim, ref in zip((cs.ids_low, cs.ids_high, cs.cgg_low), built):
            assert sim.kind == ref.kind and sim.vds == ref.vds and sim.vgs == ref.vgs
            assert np.array_equal(sim.x, ref.x) and np.array_equal(sim.y, ref.y)


def test_simulated_grid_is_read_only():
    cs = simulate_curveset(REFERENCE_PARAMS)
    for c in (cs.ids_low, cs.cgg_low, cs.gm_low()):
        with pytest.raises(ValueError):
            c.x[0] = 1.0
    assert IV_GRID_LOW.points()[0] == 0.0


@pytest.mark.parametrize("changes", [
    {"U0": -1.0},                      # negative drain current
    {"CGGMIN": -0.5, "CGGMAX": 0.0},   # negative gate capacitance
], ids=["ids", "cgg"])
def test_simulate_curveset_checks_values(changes):
    with pytest.raises(ValueError):
        simulate_curveset(REFERENCE_PARAMS.replace(**changes))


def test_simulate_ids_vds():
    curves = simulate_ids_vds(REFERENCE_PARAMS, [0.5, 0.6, 0.7])
    assert len(curves) == 3
    for c in curves:
        assert c.kind == CurveKind.IDS_VDS
        assert c.y[0] == REFERENCE_PARAMS.IOFF0  # Vds = 0
    # higher Vgs dominates pointwise beyond Vds = 0
    assert np.all(curves[2].y[1:] > curves[1].y[1:])
    assert np.all(curves[1].y[1:] > curves[0].y[1:])
    assert curves[2].y[-1] == pytest.approx(GOLDEN_IDSVDS_REF, rel=1e-12)


def test_differentiate_linear_exact():
    x = IV_GRID_LOW.points()
    c = Curve(CurveKind.IDS_VGS, x, 3.0 * x + 1.0, vds=0.05)
    g = differentiate(c, 1)
    assert g.kind == CurveKind.GM_VGS
    assert np.allclose(g.y, 3.0, rtol=0, atol=1e-10)


def test_differentiate_quadratic_exact_interior():
    x = IV_GRID_LOW.points()
    c = Curve(CurveKind.IDS_VGS, x, x ** 2 + 1e-12, vds=0.05)
    g = differentiate(c, 1)
    assert np.allclose(g.y[1:-1], 2.0 * x[1:-1], rtol=1e-9, atol=1e-12)


def test_differentiate_second_order_cubic():
    x = IV_GRID_LOW.points()
    c = Curve(CurveKind.IDS_VGS, x, x ** 3 + 1e-12, vds=0.05)
    g2 = differentiate(c, 2)
    assert g2.kind == CurveKind.GM2_VGS
    i = int(np.argmin(np.abs(x - 0.4)))
    assert g2.y[i] == pytest.approx(2.4, rel=1e-6)


def test_differentiate_too_few_points():
    c = Curve(CurveKind.IDS_VGS, [0.0, 0.01], [1e-9, 2e-9], vds=0.05)
    with pytest.raises(ValueError):
        differentiate(c, 1)
    c3 = Curve(CurveKind.IDS_VGS, [0.0, 0.01, 0.02], [1e-9, 2e-9, 3e-9], vds=0.05)
    with pytest.raises(ValueError):
        differentiate(c3, 2)


def test_differentiate_rejects_other_kinds():
    c = Curve(CurveKind.CGG_VGS, CV_GRID.points(), np.ones(111), vds=0.0)
    with pytest.raises(ValueError):
        differentiate(c, 1)


def test_apply_knobs_identity():
    out = apply_knobs(REFERENCE_PARAMS, ProcessKnobs(1.0, 1.0))
    assert out == REFERENCE_PARAMS


def test_apply_knobs_lg_lowers_phig():
    out = apply_knobs(REFERENCE_PARAMS, ProcessKnobs(lg_scale=0.9))
    delta = REFERENCE_PARAMS.PHIG - out.PHIG
    assert delta == pytest.approx(0.05 * (1 / 0.9 - 1), rel=1e-12)  # ~5.6 mV


def test_apply_knobs_eot_scales_ideality():
    out = apply_knobs(REFERENCE_PARAMS, ProcessKnobs(eot_scale=1.1))
    assert out.CIT == pytest.approx(REFERENCE_PARAMS.CIT * 1.1, rel=1e-15)
    assert out.CDSC == pytest.approx(REFERENCE_PARAMS.CDSC * 1.1, rel=1e-15)


def test_apply_knobs_clips_into_ranges():
    edge = REFERENCE_PARAMS.replace(ETA0=0.149, CGGMAX=1.45)
    for knobs in [ProcessKnobs(0.9, 1.0), ProcessKnobs(1.1, 1.0),
                  ProcessKnobs(1.0, 0.9), ProcessKnobs(1.0, 1.1)]:
        out = apply_knobs(edge, knobs)
        assert DEFAULT_RANGES.contains(out)


def test_knob_bounds_enforced():
    with pytest.raises(ValueError):
        ProcessKnobs(lg_scale=0.5)


# ---- property sweeps over sampled parameters ----

def test_ids_strictly_increasing_in_vgs():
    x = IV_GRID_LOW.points()
    for p in sample_params_list(200, seed=7):
        for vds in (0.05, 0.7):
            y = ids(p, x, vds)
            assert np.all(np.diff(y) > 0), f"non-monotone I-V for {p}"


def test_ids_nondecreasing_in_vds():
    vds = np.linspace(0.0, 0.8, 81)
    for p in sample_params_list(100, seed=8):
        for vgs in (0.0, 0.3, 0.8):
            y = ids(p, vgs, vds)
            assert np.all(np.diff(y) >= 0)


def test_cgg_monotone_and_bounded():
    x = CV_GRID.points()
    for p in sample_params_list(200, seed=9):
        y = cgg(p, x)
        assert np.all(np.diff(y) > 0)
        assert np.all(y > p.CGGMIN) and np.all(y < p.CGGMAX)


def test_no_nan_inf_over_wide_bias_domain():
    vg = np.linspace(-1.0, 2.0, 61)
    vd = np.linspace(0.0, 1.0, 11)
    for p in sample_params_list(50, seed=10):
        vals = ids(p, vg[:, None], vd[None, :])
        assert np.all(np.isfinite(vals))
        caps = cgg(p, vg)
        assert np.all(np.isfinite(caps))


def test_phig_shift_moves_vth_by_delta():
    from fetfit.features import vth_constant_current

    delta = 0.037
    x = IV_GRID_LOW.points()
    for p in sample_params_list(20, seed=11):
        c0 = Curve(CurveKind.IDS_VGS, x, ids(p, x, 0.05), vds=0.05)
        p2 = p.replace(PHIG=p.PHIG + delta)
        c1 = Curve(CurveKind.IDS_VGS, x, ids(p2, x, 0.05), vds=0.05)
        try:
            v0 = vth_constant_current(c0, 1e-7)
            v1 = vth_constant_current(c1, 1e-7)
        except Exception:
            continue  # shifted curve may leave the grid span; not this test's concern
        assert abs((v1 - v0) - delta) < 2e-3


def test_bias_grid_contract():
    assert IV_GRID_LOW.n_points == 81
    assert IV_GRID_HIGH.n_points == 81
    assert CV_GRID.n_points == 111
    pts = IV_GRID_LOW.points()
    assert pts[3] == 0.0 + 3 * 0.01


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(CurveKind.IDS_VGS, [0.0, 0.01, 0.03], [1e-9, 1e-9, 1e-9], vds=0.05)  # non-uniform
    with pytest.raises(ValueError):
        Curve(CurveKind.IDS_VGS, [0.0, 0.01, 0.02], [1e-9, -1e-9, 1e-9], vds=0.05)  # negative Ids
    with pytest.raises(ValueError):
        Curve(CurveKind.IDS_VGS, [0.0, 0.01], [1e-9, float("inf")], vds=0.05)
