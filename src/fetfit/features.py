"""Curve feature extraction: 24 physics and shape features per device.

Six features come from the C-V curve, six from each of the two I-V curves,
and three from each derived transconductance curve. ``FEATURE_NAMES`` fixes
the order used everywhere (dataset columns, network input, feature CSVs).

Extraction is batch-first. Each function takes the curve of one device or a
block curve from ``simulate_curveset`` (values (N, npts), one row per
device) and gives one result per row: ``featurize`` returns (24,) or
(N, 24). One device runs as a block of one through the same kernels, so a
block row is bit-identical to featurizing that device alone. If rows fail,
``ExtractionError`` carries the reason of the first failing row, the one
its single-device call gives, and lists every failing row in ``rows``.

``featurize`` takes curves on the default sweeps only. Which ``x`` is on a
sweep is decided by the ``Curve`` constructor in ``device`` (every point
within ``device.GRID_TOL_V``), which puts such an ``x`` on the shared
``IV_X`` or ``CV_X``; here the test is one of identity. Every row of a block
then shares one 1-D grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import (
    CV_X,
    IV_X,
    Curve,
    CurveKind,
    CurveSet,
    differentiate,  # noqa: F401  public here; perfbench/tracing.py patches this name
)
from .errors import ExtractionError, require_number

FEATURE_NAMES = (
    "Cgg_max", "Cgg_min", "V_mid", "Cgg_inte", "Cgg_rms", "Cgg_slope",
    "Vth1", "SS1", "Ion1", "Ioff1", "Ids_inte1", "Ids_rms1",
    "Vth2", "SS2", "Ion2", "Ioff2", "Ids_inte2", "Ids_rms2",
    "Gm_max1", "Gm_inte1", "Gm_rms1",
    "Gm_max2", "Gm_inte2", "Gm_rms2",
)

N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction settings: constant-current threshold criterion and the
    current window for the subthreshold-swing fit."""

    i_crit: float = 1e-7   # A
    ss_lo: float = 3e-9    # A
    ss_hi: float = 3e-8    # A

    def __post_init__(self):
        for name in ("i_crit", "ss_lo", "ss_hi"):
            object.__setattr__(self, name, require_number(name, getattr(self, name)))
        if not 0 < self.ss_lo < self.ss_hi < self.i_crit * 10:
            raise ValueError(
                f"need 0 < ss_lo < ss_hi < 10*i_crit, got "
                f"({self.ss_lo}, {self.ss_hi}, {self.i_crit})"
            )


#: The settings used when none are given; a frozen instance is safe to share.
DEFAULT_FEATURE_CONFIG = FeatureConfig()


def _require_default_grid(curve: Curve, grid: np.ndarray):
    """Raise unless the curve holds the default sweep ``grid`` itself, as
    the ``Curve`` constructor gives every ``x`` close enough to it."""
    x = curve.x
    if x is grid:
        return
    detail = (f"; a point lies {np.abs(x - grid).max():.2g} V off the sweep"
              if len(x) == len(grid) else "")
    raise ExtractionError(
        f"curve must be sampled on the {grid[0]:g}..{grid[-1]:g} V grid with step "
        f"{grid[1] - grid[0]:g} ({len(grid)} points); got {len(x)} points spanning "
        f"{x[0]:g}..{x[-1]:g} V{detail}"
    )


def _require_kind(curve: Curve, kind: CurveKind, need: str):
    if curve.kind != kind:
        raise ValueError(f"{need}, got {curve.kind.value}")


def _check_iv(curve: Curve):
    _require_default_grid(curve, IV_X)
    _require_kind(curve, CurveKind.IDS_VGS, "Vth needs an IdsVgs curve")


def _check_cv(curve: Curve):
    _require_kind(curve, CurveKind.CGG_VGS, "CV features need a CggVgs curve")
    _require_default_grid(curve, CV_X)


def _stacked_y(*curves: Curve) -> np.ndarray:
    """The curves' values stacked as one C-contiguous (M, npts) array; a
    curve of one device is a block of one."""
    ys = [c.y.reshape(-1, c.y.shape[-1]) for c in curves]
    return np.concatenate(ys) if len(ys) > 1 else np.ascontiguousarray(ys[0])


def _raise_first(checks: list):
    """Raise for the first failing row, with the first check it failed.
    ``checks`` holds (label, failing-row mask, reason for row r) in the
    order the checks run."""
    bad = np.logical_or.reduce([mask for _, mask, _ in checks])
    if bad.any():
        row = int(bad.argmax())
        label, _, reason = next(c for c in checks if c[1][row])
        raise ExtractionError(label + reason(row), rows=np.flatnonzero(bad))


def _per_row(kernel, curve: Curve, *args):
    """Run a block kernel on the rows of one curve and raise for the first
    failing row; one value or row of values per curve row."""
    fail = []
    out = kernel(curve.x, _stacked_y(curve), *args, fail)
    _raise_first([("", bad, reason) for bad, reason in fail])
    if isinstance(out, list):
        out = np.stack(out, axis=1)
    return out[0] if curve.y.ndim == 1 else out


def _bracket(x: np.ndarray, y: np.ndarray, above: np.ndarray) -> tuple:
    """x and y of each row at the first point where ``above`` holds and at
    the point before it. Rows with no such point after the first get points
    0 and 1 as a placeholder. x is gathered by column, y by flat index, the
    cheaper way."""
    col = np.maximum(above.argmax(axis=1), 1)
    at = np.arange(0, y.size, y.shape[1]) + col
    yf = y.ravel()
    return x[col - 1], x[col], yf[at - 1], yf[at]


def _log10(values: np.ndarray) -> np.ndarray:
    # math.log10 element by element: np.log10 differs from it in the last
    # bit on some inputs, and Vth has always used math.log10
    return np.array([math.log10(v) for v in values.tolist()])


def _trapz(x: np.ndarray, y: np.ndarray):
    # np.trapezoid's expression along the last axis, without its set-up
    return ((x[..., 1:] - x[..., :-1]) * (y[..., 1:] + y[..., :-1]) / 2.0).sum(axis=-1)


def _rms(y: np.ndarray):
    return np.sqrt((y * y).sum(axis=-1) / y.shape[-1])


def trapz(curve: Curve):
    """Composite trapezoidal integral of y over the full grid, per row."""
    return _trapz(curve.x, curve.y)


def rms(curve: Curve):
    """Discrete root-mean-square of the y values, per row."""
    return _rms(curve.y)


def _vth(x: np.ndarray, y: np.ndarray, i_crit: float, fail: list) -> np.ndarray:
    above = y >= i_crit
    starts_above, never = above[:, 0], ~above.any(axis=1)
    fail.append((starts_above, lambda r: (
        f"Vth: curve starts at {y[r, 0]:.3e} A, already above i_crit={i_crit:.3e} A")))
    fail.append((never, lambda r: (
        f"Vth: curve never reaches i_crit={i_crit:.3e} A (max {y[r].max():.3e} A)")))
    x0, x1, y0, y1 = _bracket(x, y, above)
    z0 = _log10(y0)
    dz = _log10(y1) - z0
    dz[starts_above | never] = np.nan  # failed rows give NaN
    return x0 + (math.log10(i_crit) - z0) * (x1 - x0) / dz


def vth_constant_current(curve: Curve, i_crit: float):
    """Constant-current threshold voltage, per row.

    Returns the Vgs where the curve crosses ``i_crit``, interpolating Vgs
    linearly against log10(Ids) between the bracketing grid points (exact on
    log-linear data).
    """
    _require_kind(curve, CurveKind.IDS_VGS, "Vth needs an IdsVgs curve")
    return _per_row(_vth, curve, i_crit)


def _ss(x: np.ndarray, y: np.ndarray, cfg: FeatureConfig, fail: list) -> np.ndarray:
    inside = (y >= cfg.ss_lo) & (y <= cfg.ss_hi)
    count = inside.sum(axis=1)
    few = count < 3
    fail.append((few, lambda r: (
        f"SS: only {count[r]} grid points inside the window "
        f"[{cfg.ss_lo:.3e}, {cfg.ss_hi:.3e}] A (need 3)")))
    # Rows in order of window size (stable), so that the window points of the
    # rows of one size form one contiguous run of w, row after row in grid
    # order: log10(Ids) in w[0], Vgs in w[1].
    order = np.argsort(count, kind="stable")
    sizes = count[order]
    ordered = inside[order]
    w = np.stack((np.log10(y[order][ordered]), np.broadcast_to(x, y.shape)[ordered]))
    # The k rows of each size n are fitted together from a (2, k, n) view:
    # each row's sums and dot products then run over exactly its own points,
    # as for one device alone, which keeps the result bit-identical. dots
    # holds [dz . dz, dz . dv] per ordered row, dz and dv being the centred
    # log10(Ids) and Vgs; rows with fewer than 3 points stay NaN.
    dots = np.full((2, len(y)), np.nan)
    row = point = 0
    for last in np.flatnonzero(sizes[:-1] != sizes[1:]).tolist() + [len(y) - 1]:
        n, k = int(sizes[last]), last + 1 - row
        if n >= 3:
            wb = w[:, point:point + k * n].reshape(2, k, n)
            wc = wb - wb.sum(axis=2, keepdims=True) / n
            np.vecdot(wc[0], wc, out=dots[:, row:row + k])
        row, point = last + 1, point + k * n
    ss = np.empty(len(y))
    ss[order] = 1000.0 * (dots[1] / dots[0])
    return ss


def subthreshold_swing(curve: Curve, cfg: FeatureConfig):
    """Subthreshold swing in mV/dec, per row: least-squares slope of Vgs
    against log10(Ids) over the grid points with ss_lo <= Ids <= ss_hi."""
    _require_kind(curve, CurveKind.IDS_VGS, "SS needs an IdsVgs curve")
    return _per_row(_ss, curve, cfg)


def _iv_columns(x: np.ndarray, y: np.ndarray, cfg: FeatureConfig, fail: list) -> list:
    return [_vth(x, y, cfg.i_crit, fail), _ss(x, y, cfg, fail),
            y[:, -1], y[:, 0], _trapz(x, y), _rms(y)]


def extract_iv_features(curve: Curve, cfg: FeatureConfig) -> np.ndarray:
    """[Vth, SS, Ion, Ioff, Ids_inte, Ids_rms] per Ids-Vgs curve row on the
    default sweep; Ion and Ioff are exact grid reads at the last and first
    point."""
    _check_iv(curve)
    return _per_row(_iv_columns, curve, cfg)


def _cv_columns(x: np.ndarray, y: np.ndarray, fail: list) -> list:
    c_max = y.max(axis=1)
    c_min = y.min(axis=1)
    mid = 0.5 * (c_max + c_min)
    above = y >= mid[:, None]
    fail.append((above[:, 0], lambda r: (
        "V_mid: no upward midpoint crossing (curve starts at or above the midpoint)")))
    # a curve that starts below mid crosses it, as mid <= c_max
    x0, x1, y0, y1 = _bracket(x, y, above)
    dy = y1 - y0
    dy[above[:, 0]] = np.nan  # failed rows give NaN
    v_mid = x0 + (mid - y0) * (x1 - x0) / dy
    slope0 = (-3.0 * y[:, 0] + 4.0 * y[:, 1] - y[:, 2]) / (2.0 * (x[1] - x[0]))
    return [c_max, c_min, v_mid, _trapz(x, y), _rms(y), slope0]


def extract_cv_features(curve: Curve) -> np.ndarray:
    """[Cgg_max, Cgg_min, V_mid, Cgg_inte, Cgg_rms, Cgg_slope] per Cgg-Vgs
    curve row.

    V_mid is the first left-to-right crossing of (max+min)/2, linearly
    interpolated; Cgg_slope is a second-order forward difference at the
    first grid point.
    """
    _check_cv(curve)
    return _per_row(_cv_columns, curve)


def _gm_columns(x: np.ndarray, y: np.ndarray, fail: list) -> list:
    return [y.max(axis=1), _trapz(x, y), _rms(y)]


def extract_gm_features(curve: Curve) -> np.ndarray:
    """[Gm_max, Gm_inte, Gm_rms] per transconductance curve row."""
    _require_kind(curve, CurveKind.GM_VGS, "Gm features need a GmVgs curve")
    return _per_row(_gm_columns, curve)


def featurize(cs: CurveSet, cfg: FeatureConfig | None = None) -> np.ndarray:
    """The 24 features in ``FEATURE_NAMES`` order: (24,) for one device,
    (N, 24) for a simulated block.

    The transconductance curves come from the curve set's cached Gm, derived
    with the shared difference stencil, so a later verification of the same
    curve set reuses them. A failure names the feature; for a block it is
    the first failing row's, and the error's ``rows`` lists every failing
    row.
    """
    if cfg is None:
        cfg = DEFAULT_FEATURE_CONFIG
    for label, check, curve in (("Cgg", _check_cv, cs.cgg_low),
                                ("IV low-Vds", _check_iv, cs.ids_low),
                                ("IV high-Vds", _check_iv, cs.ids_high)):
        try:
            check(curve)
        except ExtractionError as exc:
            raise ExtractionError(f"{label}: {exc}") from exc
    cv_fail, iv_fail = [], []
    cv = _cv_columns(CV_X, _stacked_y(cs.cgg_low), cv_fail)
    # both drain biases in one pass: the low-Vds rows, then the high-Vds rows
    iv = _iv_columns(IV_X, _stacked_y(cs.ids_low, cs.ids_high), cfg, iv_fail)
    # Gm lies on the grid of the curves it derives from
    gm = _gm_columns(IV_X, _stacked_y(cs.gm_low(), cs.gm_high()), [])
    n = len(cv[0])
    low, high = slice(0, n), slice(n, 2 * n)
    iv, gm = np.array(iv), np.array(gm)
    # one row per feature while checking, (N, 24) once returned
    by_feature = np.concatenate([np.array(cv), iv[:, low], iv[:, high], gm[:, low], gm[:, high]])
    finite, positive, ordered = tests = _feature_tests(by_feature)
    if not (finite.all() and positive.all() and ordered.all()):  # failed rows are NaN
        checks = [("Cgg: ", bad, reason) for bad, reason in cv_fail]
        for label, part in (("IV low-Vds: ", low), ("IV high-Vds: ", high)):
            checks += [(label, bad[part], lambda r, reason=reason, start=part.start: reason(start + r))
                       for bad, reason in iv_fail]
        checks += [("", bad, reason) for bad, reason in _feature_checks(by_feature, *tests)]
        _raise_first(checks)
    return by_feature[:, 0] if cs.ids_low.y.ndim == 1 else by_feature.T


_POSITIVE = np.array([FEATURE_NAMES.index(n) for n in ("SS1", "SS2", "Ioff1", "Ioff2")])
_UPPER = np.array([FEATURE_NAMES.index(n) for n in ("Ion1", "Ion2", "Cgg_max")])
_LOWER = np.array([FEATURE_NAMES.index(n) for n in ("Ioff1", "Ioff2", "Cgg_min")])


def _feature_tests(by_feature: np.ndarray) -> tuple:
    """Per feature row: finite; SS1, SS2, Ioff1, Ioff2 positive; Ion1 >=
    Ioff1, Ion2 >= Ioff2 and Cgg_max >= Cgg_min."""
    return (np.isfinite(by_feature), by_feature[_POSITIVE] > 0,
            by_feature[_UPPER] >= by_feature[_LOWER])


def _feature_checks(by_feature: np.ndarray, finite, positive, ordered) -> list:
    f = dict(zip(FEATURE_NAMES, by_feature))
    return [
        (~finite.all(axis=0), lambda r: (
            f"non-finite features: {[FEATURE_NAMES[j] for j in np.flatnonzero(~finite[:, r])]}")),
        (~positive[0], lambda r: f"SS1 must be positive, got {f['SS1'][r]}"),
        (~positive[1], lambda r: f"SS2 must be positive, got {f['SS2'][r]}"),
        (~(ordered[0] & positive[2]), lambda r: (
            f"need Ion1 >= Ioff1 > 0, got {f['Ion1'][r]}, {f['Ioff1'][r]}")),
        (~(ordered[1] & positive[3]), lambda r: (
            f"need Ion2 >= Ioff2 > 0, got {f['Ion2'][r]}, {f['Ioff2'][r]}")),
        (~ordered[2], lambda r: "Cgg_max < Cgg_min"),
    ]
