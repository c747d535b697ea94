"""Surrogate device model tests."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fetfit
from fetfit.device import (
    CV_X,
    IV_X,
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
from fetfit.verify import _vector_objective

from ._dispatch import AVX2_ONLY, dispatch_family, golden
from ._sampling import sample_params_list
from .test_dataset import GOLDEN_DATASET_SHA256

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
        x_iv, x_cv = IV_X.copy(), CV_X.copy()
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
    assert IV_X[0] == 0.0


@pytest.mark.parametrize("changes", [
    {"U0": -1.0},                      # negative drain current
    {"CGGMIN": -0.5, "CGGMAX": 0.0},   # negative gate capacitance
], ids=["ids", "cgg"])
def test_simulate_curveset_checks_values(changes):
    with pytest.raises(ValueError):
        simulate_curveset(REFERENCE_PARAMS.replace(**changes))


def test_simulate_block_rows_equal_single_devices():
    ps = sample_params_list(50, seed=13)
    block = simulate_curveset(np.array([p.to_vector() for p in ps]))
    for name in ("ids_low", "ids_high", "cgg_low"):
        curve = getattr(block, name)
        assert curve.y.shape == (50, len(curve.x))
        assert curve.x is getattr(simulate_curveset(REFERENCE_PARAMS), name).x
    for i, p in enumerate(ps):
        cs = simulate_curveset(p)
        for name in ("ids_low", "ids_high", "cgg_low"):
            assert np.array_equal(getattr(block, name).y[i], getattr(cs, name).y)
        assert np.array_equal(block.gm_high().y[i], cs.gm_high().y)
        assert np.array_equal(differentiate(block.ids_low, 2).y[i], differentiate(cs.ids_low, 2).y)


@pytest.mark.parametrize("bad, match", [
    (lambda b: b[:, :13], "parameter block"),
    (lambda b: b[0], "parameter block"),
    (lambda b: np.where(np.arange(14) == PARAM_NAMES.index("ACV"), -0.1, b), "ACV must be > 0"),
    (lambda b: np.where(np.arange(14) == PARAM_NAMES.index("PHIG"), np.nan, b), "PHIG must be finite"),
], ids=["columns", "one-dimensional", "invariant", "non-finite"])
def test_simulate_block_checks_rows(bad, match):
    block = np.array([p.to_vector() for p in sample_params_list(3, seed=14)])
    with pytest.raises(InvalidParameterError, match=match):
        simulate_curveset(bad(block))


def test_simulate_ids_vds():
    curves = simulate_ids_vds(REFERENCE_PARAMS, [0.5, 0.6, 0.7])
    assert len(curves) == 3
    for c in curves:
        assert c.kind == CurveKind.IDS_VDS
        assert c.x is IV_X  # Vds swept over the I-V sweep's points
        assert c.y[0] == REFERENCE_PARAMS.IOFF0  # Vds = 0
    # higher Vgs dominates pointwise beyond Vds = 0
    assert np.all(curves[2].y[1:] > curves[1].y[1:])
    assert np.all(curves[1].y[1:] > curves[0].y[1:])
    assert curves[2].y[-1] == pytest.approx(GOLDEN_IDSVDS_REF, rel=1e-12)


def test_differentiate_linear_exact():
    x = IV_X.copy()
    c = Curve(CurveKind.IDS_VGS, x, 3.0 * x + 1.0, vds=0.05)
    g = differentiate(c, 1)
    assert g.kind == CurveKind.GM_VGS
    assert np.allclose(g.y, 3.0, rtol=0, atol=1e-10)


def test_differentiate_quadratic_exact_interior():
    x = IV_X.copy()
    c = Curve(CurveKind.IDS_VGS, x, x ** 2 + 1e-12, vds=0.05)
    g = differentiate(c, 1)
    assert np.allclose(g.y[1:-1], 2.0 * x[1:-1], rtol=1e-9, atol=1e-12)


def test_differentiate_second_order_cubic():
    x = IV_X.copy()
    c = Curve(CurveKind.IDS_VGS, x, x ** 3 + 1e-12, vds=0.05)
    g2 = differentiate(c, 2)
    assert g2.kind == CurveKind.GM2_VGS
    i = int(np.argmin(np.abs(x - 0.4)))
    assert g2.y[i] == pytest.approx(2.4, rel=1e-6)


@pytest.mark.parametrize("n", [0, 1])
def test_curve_needs_two_points(n):
    with pytest.raises(ValueError, match=f"^a curve needs at least 2 points, got {n}$"):
        Curve(CurveKind.IDS_VGS, np.zeros(n), np.ones(n), vds=0.05)


def test_differentiate_too_few_points():
    c = Curve(CurveKind.IDS_VGS, [0.0, 0.01], [1e-9, 2e-9], vds=0.05)
    with pytest.raises(ValueError):
        differentiate(c, 1)
    c3 = Curve(CurveKind.IDS_VGS, [0.0, 0.01, 0.02], [1e-9, 2e-9, 3e-9], vds=0.05)
    with pytest.raises(ValueError):
        differentiate(c3, 2)


def test_differentiate_rejects_other_kinds():
    c = Curve(CurveKind.CGG_VGS, CV_X.copy(), np.ones(111), vds=0.0)
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
    x = IV_X.copy()
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
    x = CV_X.copy()
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
    x = IV_X.copy()
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


def test_default_sweeps():
    # 0..0.8 V and 0..1.1 V in 0.01 V steps, each point exactly 0.0 + 0.01*k
    assert len(IV_X) == 81 and len(CV_X) == 111
    assert IV_X[3] == 0.0 + 3 * 0.01
    assert np.array_equal(IV_X, 0.0 + 0.01 * np.arange(81))
    assert np.array_equal(CV_X, 0.0 + 0.01 * np.arange(111))
    assert not IV_X.flags.writeable and not CV_X.flags.writeable


@pytest.mark.parametrize("sweep", ["IV", "CV"])
def test_near_sweep_x_shares_the_sweep(sweep):
    grid = IV_X if sweep == "IV" else CV_X
    kind = CurveKind.IDS_VGS if sweep == "IV" else CurveKind.CGG_VGS
    c = Curve(kind, grid + 5e-10, np.ones(len(grid)))
    assert c.x is grid
    assert Curve(kind, grid.copy(), np.ones(len(grid))).x is grid


def test_off_sweep_x_keeps_its_array_and_grid_checks():
    x = IV_X + 2e-9
    c = Curve(CurveKind.IDS_VGS, x, np.ones(81))
    assert c.x is not IV_X and c.x.flags.writeable
    assert np.array_equal(c.x, x)
    bent = IV_X + 2e-9
    bent[40] += 1e-4
    with pytest.raises(ValueError, match="uniform"):
        Curve(CurveKind.IDS_VGS, bent, np.ones(81))
    back = IV_X + 2e-9
    back[40], back[41] = back[41], back[40]
    with pytest.raises(ValueError, match="increasing"):
        Curve(CurveKind.IDS_VGS, back, np.ones(81))

def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(CurveKind.IDS_VGS, [0.0, 0.01, 0.03], [1e-9, 1e-9, 1e-9], vds=0.05)  # non-uniform
    with pytest.raises(ValueError):
        Curve(CurveKind.IDS_VGS, [0.0, 0.01, 0.02], [1e-9, -1e-9, 1e-9], vds=0.05)  # negative Ids
    with pytest.raises(ValueError):
        Curve(CurveKind.IDS_VGS, [0.0, 0.01], [1e-9, float("inf")], vds=0.05)


# sha256 of the kernels' outputs below per CPU dispatch family, recorded
# before the kernels were rewritten to work in place: every bit of every
# value must stay the same
GOLDEN_KERNEL_DIGEST = {
    "X86_V4": "eb4ce79c3680910035f0aad5f156f0917e975c3fb2e3a95b14bebd294a1049eb",
    "X86_V3": "8d94f13cf306d64549a85ce007979033dea387b75740b82c509aa098a74cb73b",
}


def _kernel_digest() -> str:
    h = hashlib.sha256()

    def put(values):
        a = np.ascontiguousarray(values, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())

    ps = sample_params_list(300, seed=60)
    block = simulate_curveset(np.array([p.to_vector() for p in ps]))
    names = ("ids_low", "ids_high", "cgg_low")
    for name in names:
        put(getattr(block, name).y)
    for p in ps:
        cs = simulate_curveset(p)
        for name in names:
            put(getattr(cs, name).y)
    # vgs = -40 and -10 V at vds = 0 make the saturation denominator 0
    vgs = np.concatenate(([-40.0, -10.0, -5.0], np.linspace(-0.3, 1.2, 31)))
    vds = np.array([[0.0], [0.05], [0.3], [0.7], [1.0]])
    for p in ps[:20] + [REFERENCE_PARAMS]:
        for vg in (-40.0, -10.0, 0.0, 0.45, 0.8):
            for vd in (0.0, 0.05, 0.7):
                value = ids(p, vg, vd)
                assert type(value) is float
                put(value)
        for vg in (0.0, 0.45, 0.8):
            value = cgg(p, vg)
            assert type(value) is float
            put(value)
        put(ids(p, vgs, vds))
        put(ids(p, vgs, 0.0))
        put(ids(p, 0.5, vds))
        put(cgg(p, vgs[3:]))
    objective = _vector_objective(simulate_curveset(ps[0]))
    for u in np.random.default_rng(61).uniform(size=(200, len(PARAM_NAMES))):
        vec = DEFAULT_RANGES.clip_vector(DEFAULT_RANGES.from_unit(u))
        put(vec)
        put(objective(vec))
    return h.hexdigest()


def test_kernel_digest_golden():
    assert _kernel_digest() == golden(GOLDEN_KERNEL_DIGEST, "kernel digest")


def test_a_family_without_a_digest_fails_naming_it():
    with pytest.raises(pytest.fail.Exception,
                       match=f"no kernel digest recorded for the CPU dispatch family "
                             f"{dispatch_family()}$"):
        golden({}, "kernel digest")


@pytest.mark.skipif(dispatch_family() != "X86_V4",
                    reason="without X86_V4 the direct goldens run the X86_V3 family")
def test_goldens_of_the_x86_v3_family():
    root = Path(__file__).resolve().parent.parent
    code = ("import pathlib, tempfile; from tests._dispatch import dispatch_family; "
            "from tests.test_dataset import dataset_digest; "
            "from tests.test_device import _kernel_digest; "
            "tmp = tempfile.TemporaryDirectory(); "
            "print(dispatch_family(), dataset_digest(pathlib.Path(tmp.name)), _kernel_digest())")
    path = os.pathsep.join([str(Path(fetfit.__file__).parent.parent), str(root),
                            os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=AVX2_ONLY)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=root, check=True, timeout=120)
    assert out.stdout.split() == ["X86_V3", GOLDEN_DATASET_SHA256["X86_V3"],
                                  GOLDEN_KERNEL_DIGEST["X86_V3"]]
