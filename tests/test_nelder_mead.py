"""The direct-fit simplex against scipy's Nelder-Mead, the reference it ports.

scipy is a test dependency only, kept as the reference the way
``tests/_curve_csv.py`` keeps the old curve parser; without it these tests
are skipped. The fit tests run ``direct_fit`` twice, once on the in-house
``_nelder_mead`` and once on the ``scipy.optimize.minimize`` call it
replaced, and require equal ``float.hex`` fits and equal evaluated points;
the last test calls both simplexes directly.
"""

import warnings

import numpy as np
import pytest

import fetfit.verify
from fetfit.device import simulate_curveset
from fetfit.params import DEFAULT_RANGES, ModelParams
from fetfit.verify import direct_fit

from ._sampling import sample_params_list

optimize = pytest.importorskip("scipy.optimize")

BUDGETS = (1, 2, 14, 15, 16, 17, 300, 2000)
TARGETS = sample_params_list(20, seed=950)
_LO, _HI = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
MID = ModelParams.from_vector(DEFAULT_RANGES.clip_vector((_LO + _HI) / 2))


def scipy_nelder_mead(fun, u0, max_evals):
    """The simplex call direct_fit made before the port, with its result
    in ``_nelder_mead``'s form; the shrink count is not reported."""
    with warnings.catch_warnings():
        # scipy warns about a start point outside the box, then clips it
        warnings.simplefilter("ignore", optimize.OptimizeWarning)
        res = optimize.minimize(
            fun, u0, method="Nelder-Mead", bounds=[(0.0, 1.0)] * len(u0),
            options={"maxfev": max_evals, "xatol": 1e-6, "fatol": 1e-8, "adaptive": True})
    return res.nfev, res.nit, None, res.status == 0


def run_fit(monkeypatch, simplex, target, init, max_evals):
    """(fit as float.hex, evaluated points and values, simplex result)."""
    calls, result = [], []

    def recording(fun, u0, budget):
        def fun_recorded(u):
            calls.append((u.tolist(), fun(u)))
            return calls[-1][1]
        result.append(simplex(fun_recorded, u0, budget))
        return result[-1]

    monkeypatch.setattr(fetfit.verify, "_nelder_mead", recording)
    fit = direct_fit(target, DEFAULT_RANGES, init, max_evals=max_evals)
    return [v.hex() for v in fit.to_vector()], calls, (result or [None])[0]


def assert_same_fit(monkeypatch, target_params, init, max_evals):
    target = simulate_curveset(target_params)
    port = run_fit(monkeypatch, fetfit.verify._nelder_mead, target, init, max_evals)
    ref = run_fit(monkeypatch, scipy_nelder_mead, target, init, max_evals)
    assert port[0] == ref[0]
    assert port[1] == ref[1]
    return port, ref


@pytest.mark.parametrize("i", range(len(TARGETS)))
def test_fits_equal_scipys(monkeypatch, i):
    """Every budget gives the fit scipy gave, from mid-range and from the
    true parameters; the full budget also evaluates the same points."""
    for max_evals in BUDGETS:
        port, ref = assert_same_fit(monkeypatch, TARGETS[i], MID, max_evals)
        assert len(port[1]) == max_evals - 1
    port, ref = assert_same_fit(monkeypatch, TARGETS[i], TARGETS[i], 300)
    assert port[0] == [v.hex() for v in TARGETS[i].to_vector()] and port[1] == []


def test_init_outside_the_ranges_is_clipped_silently(monkeypatch):
    b = DEFAULT_RANGES.bounds
    cit_lo, cit_hi = b["CIT"]
    outside = MID.replace(PHIG=b["PHIG"][1] + 0.05, CIT=cit_lo - 0.1 * (cit_hi - cit_lo))
    assert not DEFAULT_RANGES.contains(outside)
    for target in TARGETS[:3]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            port = run_fit(monkeypatch, fetfit.verify._nelder_mead,
                           simulate_curveset(target), outside, 300)
        ref = run_fit(monkeypatch, scipy_nelder_mead, simulate_curveset(target), outside, 300)
        assert port[:2] == ref[:2]


def test_tolerance_stop_before_the_budget(monkeypatch):
    """A fit started next to its target stops on xatol/fatol after as many
    evaluations as scipy's."""
    target = sample_params_list(3, seed=5)[2]
    init = ModelParams.from_vector(DEFAULT_RANGES.clip_vector(target.to_vector() * (1 + 1e-9)))
    port, ref = assert_same_fit(monkeypatch, target, init, 2000)
    evals, _, _, converged = port[2]
    assert converged and ref[2][3]
    assert evals == ref[2][0] == len(port[1]) < 1999


@pytest.mark.parametrize("steps", [None, 50], ids=["smooth", "stepped"])
def test_converges_like_scipy_on_a_quadratic(steps):
    """Direct use: the same points, evaluation counts and iterations. The
    stepped quadratic, rounded down to multiples of 1/steps, makes ties in
    every comparison and sort, and shrinks."""
    centre = np.linspace(0.05, 0.95, 14)
    points = {"port": [], "scipy": []}

    def quadratic(name):
        def f(u):
            points[name].append(u.tolist())
            value = ((u - centre) ** 2).sum()
            return float(value if steps is None else np.floor(steps * value))
        return f

    port = fetfit.verify._nelder_mead(quadratic("port"), np.full(14, 0.5), 20_000)
    ref = scipy_nelder_mead(quadratic("scipy"), np.full(14, 0.5), 20_000)
    assert port[3] and ref[3]
    assert port[0] == ref[0] < 20_000
    assert port[1] == ref[1] - 1  # scipy counts from 1
    assert (port[2] > 100) == (steps is not None)
    assert points["port"] == points["scipy"]
