"""Curve feature extraction: 24 physics and shape features per device.

Six features come from the C-V curve, six from each of the two I-V curves,
and three from each derived transconductance curve. ``FEATURE_NAMES`` fixes
the order used everywhere (dataset columns, network input, feature CSVs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import (
    CV_VGS_START,
    CV_VGS_STEP,
    CV_VGS_STOP,
    IV_VGS_START,
    IV_VGS_STEP,
    IV_VGS_STOP,
    Curve,
    CurveKind,
    CurveSet,
    differentiate,  # noqa: F401  public here; perfbench/tracing.py patches this name
)
from .errors import ExtractionError

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
        if not 0 < self.ss_lo < self.ss_hi < self.i_crit * 10:
            raise ValueError(
                f"need 0 < ss_lo < ss_hi < 10*i_crit, got "
                f"({self.ss_lo}, {self.ss_hi}, {self.i_crit})"
            )


def _require_default_grid(curve: Curve, start: float, stop: float, step: float):
    n = int(round((stop - start) / step)) + 1
    if (len(curve.x) != n or abs(curve.x[0] - start) > 1e-9
            or abs(curve.x[-1] - stop) > 1e-9):
        raise ExtractionError(
            f"curve must be sampled on the {start:g}..{stop:g} V grid with step "
            f"{step:g} ({n} points); got {len(curve.x)} points spanning "
            f"{curve.x[0]:g}..{curve.x[-1]:g} V"
        )


def trapz(curve: Curve) -> float:
    """Composite trapezoidal integral of y over the full grid."""
    if len(curve.x) < 2:
        raise ValueError("trapz needs at least 2 points")
    return float(np.trapezoid(curve.y, curve.x))


def rms(curve: Curve) -> float:
    """Discrete root-mean-square of the y values."""
    if len(curve.y) < 1:
        raise ValueError("rms needs at least 1 point")
    return float(np.sqrt(np.mean(curve.y ** 2)))


def vth_constant_current(curve: Curve, i_crit: float) -> float:
    """Constant-current threshold voltage.

    Returns the Vgs where the curve crosses ``i_crit``, interpolating Vgs
    linearly against log10(Ids) between the bracketing grid points (exact on
    log-linear data).
    """
    if curve.kind != CurveKind.IDS_VGS:
        raise ValueError(f"Vth needs an IdsVgs curve, got {curve.kind.value}")
    y = curve.y
    if y[0] >= i_crit:
        raise ExtractionError(
            f"Vth: curve starts at {y[0]:.3e} A, already above i_crit={i_crit:.3e} A"
        )
    above = np.nonzero(y >= i_crit)[0]
    if len(above) == 0:
        raise ExtractionError(
            f"Vth: curve never reaches i_crit={i_crit:.3e} A (max {y.max():.3e} A)"
        )
    i = int(above[0])
    z0, z1 = math.log10(y[i - 1]), math.log10(y[i])
    zc = math.log10(i_crit)
    return float(curve.x[i - 1] + (zc - z0) * (curve.x[i] - curve.x[i - 1]) / (z1 - z0))


def subthreshold_swing(curve: Curve, cfg: FeatureConfig) -> float:
    """Subthreshold swing in mV/dec: least-squares slope of Vgs against
    log10(Ids) over the grid points with ss_lo <= Ids <= ss_hi."""
    if curve.kind != CurveKind.IDS_VGS:
        raise ValueError(f"SS needs an IdsVgs curve, got {curve.kind.value}")
    mask = (curve.y >= cfg.ss_lo) & (curve.y <= cfg.ss_hi)
    n_in = int(mask.sum())
    if n_in < 3:
        raise ExtractionError(
            f"SS: only {n_in} grid points inside the window "
            f"[{cfg.ss_lo:.3e}, {cfg.ss_hi:.3e}] A (need 3)"
        )
    z = np.log10(curve.y[mask])
    v = curve.x[mask]
    zc = z - z.mean()
    slope = float(np.dot(zc, v - v.mean()) / np.dot(zc, zc))
    return 1000.0 * slope


def extract_iv_features(curve: Curve, cfg: FeatureConfig) -> np.ndarray:
    """[Vth, SS, Ion, Ioff, Ids_inte, Ids_rms] for one Ids-Vgs curve on the
    default sweep; Ion and Ioff are exact grid reads at the last and first
    point."""
    _require_default_grid(curve, IV_VGS_START, IV_VGS_STOP, IV_VGS_STEP)
    return np.array([
        vth_constant_current(curve, cfg.i_crit),
        subthreshold_swing(curve, cfg),
        float(curve.y[-1]),
        float(curve.y[0]),
        trapz(curve),
        rms(curve),
    ])


def extract_cv_features(curve: Curve) -> np.ndarray:
    """[Cgg_max, Cgg_min, V_mid, Cgg_inte, Cgg_rms, Cgg_slope] for one
    Cgg-Vgs curve.

    V_mid is the first left-to-right crossing of (max+min)/2, linearly
    interpolated; Cgg_slope is a second-order forward difference at the
    first grid point.
    """
    if curve.kind != CurveKind.CGG_VGS:
        raise ValueError(f"CV features need a CggVgs curve, got {curve.kind.value}")
    _require_default_grid(curve, CV_VGS_START, CV_VGS_STOP, CV_VGS_STEP)
    y = curve.y
    c_max = float(y.max())
    c_min = float(y.min())
    mid = 0.5 * (c_max + c_min)
    if y[0] >= mid:
        raise ExtractionError(
            "V_mid: no upward midpoint crossing (curve starts at or above the midpoint)"
        )
    above = np.nonzero(y >= mid)[0]
    if len(above) == 0:
        raise ExtractionError("V_mid: curve never reaches the midpoint")
    i = int(above[0])
    v_mid = float(
        curve.x[i - 1]
        + (mid - y[i - 1]) * (curve.x[i] - curve.x[i - 1]) / (y[i] - y[i - 1])
    )
    if len(y) < 3:
        raise ExtractionError("Cgg_slope: need at least 3 points")
    h = curve.step
    slope0 = float((-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h))
    return np.array([c_max, c_min, v_mid, trapz(curve), rms(curve), slope0])


def extract_gm_features(curve: Curve) -> np.ndarray:
    """[Gm_max, Gm_inte, Gm_rms] for one transconductance curve."""
    if curve.kind != CurveKind.GM_VGS:
        raise ValueError(f"Gm features need a GmVgs curve, got {curve.kind.value}")
    return np.array([float(curve.y.max()), trapz(curve), rms(curve)])


def featurize(cs: CurveSet, cfg: FeatureConfig | None = None) -> np.ndarray:
    """The full 24-feature vector in ``FEATURE_NAMES`` order.

    The transconductance curves come from the curve set's cached Gm, derived
    with the shared difference stencil, so a later verification of the same
    curve set reuses them. Any extraction failure aborts with the feature name.
    """
    if cfg is None:
        cfg = FeatureConfig()
    parts = [
        ("Cgg", lambda: extract_cv_features(cs.cgg_low)),
        ("IV low-Vds", lambda: extract_iv_features(cs.ids_low, cfg)),
        ("IV high-Vds", lambda: extract_iv_features(cs.ids_high, cfg)),
        ("Gm low-Vds", lambda: extract_gm_features(cs.gm_low())),
        ("Gm high-Vds", lambda: extract_gm_features(cs.gm_high())),
    ]
    values = []
    for label, fn in parts:
        try:
            values.append(fn())
        except ExtractionError as exc:
            raise ExtractionError(f"{label}: {exc}") from exc
    vec = np.concatenate(values)
    _validate_features(vec)
    return vec


def _validate_features(vec: np.ndarray):
    if vec.shape != (N_FEATURES,):
        raise ExtractionError(f"feature vector has shape {vec.shape}, want ({N_FEATURES},)")
    if not np.all(np.isfinite(vec)):
        bad = [FEATURE_NAMES[i] for i in np.nonzero(~np.isfinite(vec))[0]]
        raise ExtractionError(f"non-finite features: {bad}")
    f = dict(zip(FEATURE_NAMES, vec))
    for ss in ("SS1", "SS2"):
        if f[ss] <= 0:
            raise ExtractionError(f"{ss} must be positive, got {f[ss]}")
    for ion, ioff in (("Ion1", "Ioff1"), ("Ion2", "Ioff2")):
        if not f[ion] >= f[ioff] > 0:
            raise ExtractionError(f"need {ion} >= {ioff} > 0, got {f[ion]}, {f[ioff]}")
    if f["Cgg_max"] < f["Cgg_min"]:
        raise ExtractionError("Cgg_max < Cgg_min")
