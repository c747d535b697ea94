"""Analytic surrogate FET model: I-V and C-V curve generation.

Stands in for a SPICE-level compact-model simulator: a closed-form drain
current and gate capacitance controlled by the 14 ``ModelParams``, evaluated
on fixed voltage grids. All functions here are pure; equal inputs produce
bit-identical outputs.

Curves are validated where they enter the program: the public ``Curve``
constructor, which the curve-CSV reader uses, checks the grid (strictly
increasing and uniform) and the values. Simulated and derived curves skip
the grid check. They reuse a grid that was checked once: the read-only
module grids built at import, or the ``x`` of the curve they derive from.
Their values are still checked.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .params import DEFAULT_RANGES, PARAM_NAMES, ModelParams, ParamRanges

log = logging.getLogger(__name__)

# Fixed model constants. Chosen so in-range parameters give advanced-node
# magnitudes (Ion ~ 1e-4 A, Ioff ~ 1e-9 A, Cgg ~ 1 fF).
THERMAL_V = 0.02585       # thermal voltage, V
K0 = 1e-3                 # current prefactor, A/V^2
SAT_SMOOTHING = 4         # exponent blending linear and saturated drain bias
WORKFUNC_REF = 4.05       # work function giving zero threshold, eV

# Default bias grids.
VDS_LOW = 0.05
VDS_HIGH = 0.7
IV_VGS_START, IV_VGS_STOP, IV_VGS_STEP = 0.0, 0.8, 0.01
CV_VGS_START, CV_VGS_STOP, CV_VGS_STEP = 0.0, 1.1, 0.01
OUT_VDS_START, OUT_VDS_STOP, OUT_VDS_STEP = 0.0, 0.8, 0.01


class CurveKind(str, Enum):
    IDS_VGS = "IdsVgs"
    CGG_VGS = "CggVgs"
    IDS_VDS = "IdsVds"
    GM_VGS = "GmVgs"
    GM2_VGS = "Gm2Vgs"


#: y-axis unit per curve kind, as written in curve CSV headers.
CURVE_UNITS = {
    CurveKind.IDS_VGS: "A",
    CurveKind.IDS_VDS: "A",
    CurveKind.CGG_VGS: "fF",
    CurveKind.GM_VGS: "A_per_V",
    CurveKind.GM2_VGS: "A_per_V2",
}


@dataclass(frozen=True)
class BiasGrid:
    """Uniform gate-voltage sweep at a fixed drain bias."""

    vgs_start: float
    vgs_stop: float
    vgs_step: float
    vds: float

    def __post_init__(self):
        if self.vgs_step <= 0:
            raise ValueError(f"vgs_step must be > 0, got {self.vgs_step}")
        if self.vgs_stop <= self.vgs_start:
            raise ValueError("vgs_stop must exceed vgs_start")

    @property
    def n_points(self) -> int:
        return int(round((self.vgs_stop - self.vgs_start) / self.vgs_step)) + 1

    def points(self) -> np.ndarray:
        """Grid values, exactly start + k*step."""
        return self.vgs_start + self.vgs_step * np.arange(self.n_points)


IV_GRID_LOW = BiasGrid(IV_VGS_START, IV_VGS_STOP, IV_VGS_STEP, VDS_LOW)
IV_GRID_HIGH = BiasGrid(IV_VGS_START, IV_VGS_STOP, IV_VGS_STEP, VDS_HIGH)
CV_GRID = BiasGrid(CV_VGS_START, CV_VGS_STOP, CV_VGS_STEP, 0.0)


@dataclass
class Curve:
    """One sampled electrical characteristic.

    ``x`` is the swept voltage (Vgs for every kind except IdsVds, where it is
    Vds). ``vds`` / ``vgs`` hold the fixed bias when applicable, None for the
    swept axis.

    The constructor checks everything: ``x`` strictly increasing and uniform,
    ``y`` finite and, for Ids and Cgg, strictly positive. Curves made by
    ``simulate_curveset`` and ``differentiate`` check ``y`` only, because
    their ``x`` is a read-only module grid or the ``x`` of an existing curve.
    """

    kind: CurveKind
    x: np.ndarray
    y: np.ndarray
    vds: float | None = None
    vgs: float | None = None

    def __post_init__(self):
        self.kind = CurveKind(self.kind)
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if len(self.x) >= 2:
            dx = np.diff(self.x)
            if np.any(dx <= 0):
                raise ValueError("x must be strictly increasing")
            if np.any(np.abs(dx - dx[0]) > 1e-9 * max(abs(dx[0]), 1e-30)):
                raise ValueError("x must be a uniform grid")
        self._check_y()

    @classmethod
    def _on_checked_grid(cls, kind: CurveKind, x: np.ndarray, y: np.ndarray,
                         vds: float | None = None, vgs: float | None = None) -> "Curve":
        """Curve on an ``x`` that has passed the constructor's checks: a
        module grid or the ``x`` of an existing Curve. Checks ``y`` only."""
        curve = cls.__new__(cls)
        curve.kind, curve.x, curve.y, curve.vds, curve.vgs = kind, x, y, vds, vgs
        curve._check_y()
        return curve

    def _check_y(self):
        if not np.isfinite(self.y).all():
            raise ValueError("y contains non-finite values")
        if self.kind in (CurveKind.IDS_VGS, CurveKind.IDS_VDS, CurveKind.CGG_VGS):
            if (self.y <= 0).any():
                raise ValueError(f"{self.kind.value} values must be strictly positive")

    @property
    def step(self) -> float:
        return float(self.x[1] - self.x[0])

    def scaled(self, alpha: float) -> "Curve":
        """Same curve with y multiplied by alpha (> 0 for current kinds)."""
        return Curve(self.kind, self.x.copy(), self.y * alpha, vds=self.vds, vgs=self.vgs)


def _checked_grid(grid: BiasGrid) -> np.ndarray:
    # validated once through the public constructor, then frozen so that the
    # curves sharing it cannot change it
    x = Curve(CurveKind.IDS_VGS, grid.points(), np.ones(grid.n_points)).x
    x.flags.writeable = False
    return x


# Gate-voltage points of the default sweeps, shared by every simulated curve.
IV_X = _checked_grid(IV_GRID_LOW)
CV_X = _checked_grid(CV_GRID)
_IV_VDS = np.array([[VDS_LOW], [VDS_HIGH]])  # one row per stored I-V curve


@dataclass
class CurveSet:
    """The three stored characteristics of one device, plus lazily derived
    transconductance curves."""

    ids_low: Curve    # Ids-Vgs at Vds = VDS_LOW
    ids_high: Curve   # Ids-Vgs at Vds = VDS_HIGH
    cgg_low: Curve    # Cgg-Vgs at Vds = 0
    _gm_low: Curve | None = field(default=None, repr=False)
    _gm_high: Curve | None = field(default=None, repr=False)

    def gm_low(self) -> Curve:
        if self._gm_low is None:
            self._gm_low = differentiate(self.ids_low, 1)
        return self._gm_low

    def gm_high(self) -> Curve:
        if self._gm_high is None:
            self._gm_high = differentiate(self.ids_high, 1)
        return self._gm_high


def _softplus(x):
    # log(1 + e^x) without overflow for large |x|
    return np.logaddexp(0.0, x)


def _check_params(params: ModelParams):
    if not isinstance(params, ModelParams):
        raise InvalidParameterError(f"expected ModelParams, got {type(params).__name__}")


def ids(params: ModelParams, vgs, vds):
    """Drain current, A. ``vgs`` and ``vds`` may be scalars or arrays
    (numpy broadcasting); requires vds >= 0.
    """
    _check_params(params)
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    if np.any(vds < 0):
        raise ValueError("vds must be >= 0")

    n = 1.0 + params.CIT + params.CDSC * (1.0 + vds)
    vth = (params.PHIG - WORKFUNC_REF) - params.ETA0 * vds
    nvt = n * THERMAL_V
    q = nvt * _softplus((vgs - vth) / nvt)
    vdsat = params.VSATV * q / (params.VSATV + q)
    # vds/(1+(vds/vdsat)^A)^(1/A), rewritten to avoid overflow when vdsat -> 0
    denom = (vdsat ** SAT_SMOOTHING + vds ** SAT_SMOOTHING) ** (1.0 / SAT_SMOOTHING)
    vdse = np.where(denom > 0.0, vds * vdsat / np.where(denom > 0.0, denom, 1.0), 0.0)
    mu = params.U0 / (1.0 + params.UA * q)
    icore = K0 * mu * q * vdse * (1.0 + params.LAMBDA * vds)
    current = icore / (1.0 + params.RDSW * icore) + params.IOFF0
    if current.ndim == 0:
        return float(current)
    return current


def cgg(params: ModelParams, vgs):
    """Total gate capacitance, fF: logistic transition between the two
    plateau levels, centered at the C-V threshold."""
    _check_params(params)
    vgs = np.asarray(vgs, dtype=float)
    vth_cv = (params.PHIG - WORKFUNC_REF) + params.DVTCV
    sigma = 1.0 / (1.0 + np.exp(-(vgs - vth_cv) / params.ACV))
    cap = params.CGGMIN + (params.CGGMAX - params.CGGMIN) * sigma
    if cap.ndim == 0:
        return float(cap)
    return cap


def simulate_curveset(params: ModelParams) -> CurveSet:
    """Simulate the three stored curves on the default grids."""
    iv = ids(params, IV_X, _IV_VDS)
    return CurveSet(
        ids_low=Curve._on_checked_grid(CurveKind.IDS_VGS, IV_X, iv[0], vds=VDS_LOW),
        ids_high=Curve._on_checked_grid(CurveKind.IDS_VGS, IV_X, iv[1], vds=VDS_HIGH),
        cgg_low=Curve._on_checked_grid(CurveKind.CGG_VGS, CV_X, cgg(params, CV_X), vds=0.0),
    )


def simulate_ids_vds(params: ModelParams, vgs_list) -> list[Curve]:
    """Output characteristics: one Ids-Vds curve per fixed Vgs."""
    n = int(round((OUT_VDS_STOP - OUT_VDS_START) / OUT_VDS_STEP)) + 1
    x_vds = OUT_VDS_START + OUT_VDS_STEP * np.arange(n)
    return [
        Curve(CurveKind.IDS_VDS, x_vds, ids(params, float(v), x_vds), vgs=float(v))
        for v in vgs_list
    ]


def differentiate(curve: Curve, order: int) -> Curve:
    """First or second derivative of an Ids-Vgs curve on its own grid.

    Central differences at interior points, second-order one-sided stencils
    at both endpoints. The same operator is applied to simulated and external
    target curves so stencil truncation cancels in comparisons.
    """
    if curve.kind != CurveKind.IDS_VGS:
        raise ValueError(f"can only differentiate IdsVgs curves, got {curve.kind.value}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    y = curve.y
    npts = len(y)
    min_pts = 3 if order == 1 else 4
    if npts < min_pts:
        raise ValueError(f"need at least {min_pts} points for order {order}, got {npts}")
    h = curve.step
    g = np.empty_like(y)
    if order == 1:
        g[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
        g[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
        g[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
        kind = CurveKind.GM_VGS
    else:
        g[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h)
        g[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / (h * h)
        g[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / (h * h)
        kind = CurveKind.GM2_VGS
    return Curve._on_checked_grid(kind, curve.x, g, vds=curve.vds, vgs=curve.vgs)


@dataclass(frozen=True)
class ProcessKnobs:
    """Geometry-style perturbations: gate-length and oxide-thickness scale
    factors, both restricted to [0.8, 1.2]."""

    lg_scale: float = 1.0
    eot_scale: float = 1.0

    def __post_init__(self):
        for name in ("lg_scale", "eot_scale"):
            v = getattr(self, name)
            if not 0.8 <= v <= 1.2:
                raise ValueError(f"{name} must lie in [0.8, 1.2], got {v}")


def apply_knobs(params: ModelParams, knobs: ProcessKnobs,
                ranges: ParamRanges | None = None) -> ModelParams:
    """Map process knobs onto the compact-model parameters.

    Thinner oxide (eot_scale < 1) raises Cgg and improves the ideality terms;
    shorter gates (lg_scale < 1) increase DIBL and channel-length modulation
    and lower the work-function-derived threshold. The result is clipped into
    the sampling ranges; any clipping is logged.
    """
    if ranges is None:
        ranges = DEFAULT_RANGES
    s_e = knobs.eot_scale
    s_l = knobs.lg_scale
    mapped = dict(params.to_dict())
    mapped["CGGMAX"] = params.CGGMAX * s_l / s_e
    mapped["CIT"] = params.CIT * s_e
    mapped["CDSC"] = params.CDSC * s_e
    mapped["ETA0"] = params.ETA0 * s_e / (s_l * s_l)
    mapped["LAMBDA"] = params.LAMBDA / s_l
    mapped["U0"] = params.U0 / s_l
    mapped["PHIG"] = params.PHIG - 0.05 * (1.0 / s_l - 1.0)
    vec = np.array([mapped[n] for n in PARAM_NAMES])
    clipped_vec = ranges.clip_vector(vec)
    for name, before, after in zip(PARAM_NAMES, vec, clipped_vec):
        if before != after:
            log.info("apply_knobs clipped %s from %g to %g", name, before, after)
    return ModelParams.from_vector(clipped_vec)
