"""Analytic surrogate FET model: I-V and C-V curve generation.

Stands in for a SPICE-level compact-model simulator: a closed-form drain
current and gate capacitance controlled by the 14 ``ModelParams``, evaluated
on fixed voltage grids. All functions here are pure; equal inputs produce
bit-identical outputs.

Curves are validated where they enter the program: the public ``Curve``
constructor checks the grid and the values. This module alone decides which
``x`` is a default sweep: an ``x`` whose every point lies within
``GRID_TOL_V`` of ``IV_X`` or ``CV_X`` is replaced by that read-only array,
and any other ``x`` must be strictly increasing and uniform. Simulated and
derived curves skip the grid check: they reuse the module sweeps or the
``x`` of the curve they derive from. Their values are still checked.

The simulator is batch-first. ``simulate_curveset`` takes one ``ModelParams``
or an (N, 14) block of parameter rows; for a block every curve holds an
(N, npts) value array, one row per device, on the shared grid, and
``differentiate`` works along the last axis. Rows of a block are
bit-identical to simulating each device alone.

The kernels ``_ids`` and ``_cgg`` work in place: they make a few
bias-grid arrays and update them by augmented assignment, in the operation
order of the model equations, so they give the bits of the plain
expressions. A direct-fit evaluation is a block of one, whose cost is
numpy dispatch rather than arithmetic.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .params import DEFAULT_RANGES, PARAM_NAMES, ModelParams, ParamRanges, check_param_block

log = logging.getLogger(__name__)

# Fixed model constants. Chosen so in-range parameters give advanced-node
# magnitudes (Ion ~ 1e-4 A, Ioff ~ 1e-9 A, Cgg ~ 1 fF).
THERMAL_V = 0.02585       # thermal voltage, V
K0 = 1e-3                 # current prefactor, A/V^2
SAT_SMOOTHING = 4         # exponent blending linear and saturated drain bias
WORKFUNC_REF = 4.05       # work function giving zero threshold, eV

# Drain biases of the two stored I-V curves, V.
VDS_LOW = 0.05
VDS_HIGH = 0.7
#: Voltage tolerance, V, within which every x point of a curve counts as a
#: default sweep's: files written with short cells such as ``0.030`` for
#: 3 x 0.01 V (0.030000000000000002) are on the sweep.
GRID_TOL_V = 1e-9


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


def _sweep(stop: float) -> np.ndarray:
    """The read-only default sweep 0, 0.01, ..., ``stop`` V, each point
    exactly 0.0 + 0.01 * k."""
    x = 0.0 + 0.01 * np.arange(round(stop / 0.01) + 1)
    x.flags.writeable = False
    return x


# The default sweeps, shared by every simulated curve and every curve on
# their points: Vgs of the I-V and C-V curves, and Vds of the Ids-Vds family.
IV_X = _sweep(0.8)
CV_X = _sweep(1.1)
_IV_VDS = np.array([[VDS_LOW], [VDS_HIGH]])  # one row per stored I-V curve


def _default_sweep(x: np.ndarray) -> np.ndarray | None:
    """``IV_X`` or ``CV_X`` if every point of ``x`` lies within
    ``GRID_TOL_V`` of it, else None."""
    for sweep in (IV_X, CV_X):
        if x is sweep or (x.shape == sweep.shape and np.abs(x - sweep).max() <= GRID_TOL_V):
            return sweep
    return None


@dataclass
class Curve:
    """One sampled electrical characteristic.

    ``x`` is the swept voltage (Vgs for every kind except IdsVds, where it is
    Vds). ``vds`` / ``vgs`` hold the fixed bias when applicable, None for the
    swept axis. A curve of a simulated block holds ``y`` as an (N, npts)
    array, one row per device, against the shared 1-D ``x``.

    The constructor requires at least 2 points, puts an ``x`` within
    ``GRID_TOL_V`` of a default sweep on that read-only sweep, and checks
    any other ``x`` for being finite, strictly increasing and uniform; ``y``
    must be finite and, for Ids and Cgg, strictly positive. Curves made by
    ``simulate_curveset`` and ``differentiate`` check ``y`` only, because
    their ``x`` is a module sweep or the ``x`` of an existing curve.
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
        if len(self.x) < 2:
            raise ValueError(f"a curve needs at least 2 points, got {len(self.x)}")
        sweep = _default_sweep(self.x)
        if sweep is not None:
            self.x = sweep
        else:
            if not np.isfinite(self.x).all():  # NaN passes both grid checks below
                raise ValueError("x contains non-finite values")
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
        module sweep or the ``x`` of an existing Curve. Checks ``y`` only."""
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
    current = _ids(params, vgs, vds)
    if current.ndim == 0:
        return float(current)
    return current


def _ids(p, vgs: np.ndarray, vds: np.ndarray) -> np.ndarray:
    # p is a ModelParams or a _Params: one device's values as Python floats,
    # or a block's parameter columns, which broadcast against vgs and vds.
    # The bias-grid temporaries are updated in place, each in its
    # expression's own operation order: swapping two operands is exact,
    # regrouping a sum or a product is not. Augmented assignment, not out=,
    # keeps scalar biases numpy scalars, whose power is the C library's and
    # can differ from the array power in the last bit.
    n = 1.0 + p.CIT + p.CDSC * (1.0 + vds)
    vth = (p.PHIG - WORKFUNC_REF) - p.ETA0 * vds
    nvt = n * THERMAL_V
    # q = nvt * softplus((vgs - vth) / nvt)
    q = vgs - vth
    q /= nvt
    q = _softplus(q)
    q *= nvt
    # vdsat = VSATV * q / (VSATV + q)
    vdsat = q * p.VSATV
    vdsat /= q + p.VSATV
    # vds/(1+(vds/vdsat)^A)^(1/A) = vds * vdsat / denom, written so that it
    # does not overflow when vdsat -> 0
    denom = vdsat ** SAT_SMOOTHING
    denom += vds ** SAT_SMOOTHING
    denom **= 1.0 / SAT_SMOOTHING
    if np.minimum.reduce(denom, None) > 0.0:
        vdse = vdsat
        vdse *= vds
        vdse /= denom
    else:  # vdsat**A + vds**A is 0 (vds = 0 far below threshold) or NaN somewhere
        vdse = np.where(denom > 0.0, vds * vdsat / np.where(denom > 0.0, denom, 1.0), 0.0)
    # icore = K0 * mu * q * vdse * (1 + LAMBDA * vds), mu = U0 / (1 + UA * q)
    icore = q * p.UA
    icore += 1.0
    icore = p.U0 / icore
    icore *= K0
    icore *= q
    icore *= vdse
    icore *= 1.0 + p.LAMBDA * vds
    # icore / (1 + RDSW * icore) + IOFF0
    divisor = icore * p.RDSW
    divisor += 1.0
    icore /= divisor
    icore += p.IOFF0
    return icore


def cgg(params: ModelParams, vgs):
    """Total gate capacitance, fF: logistic transition between the two
    plateau levels, centered at the C-V threshold."""
    _check_params(params)
    cap = _cgg(params, np.asarray(vgs, dtype=float))
    if cap.ndim == 0:
        return float(cap)
    return cap


def _cgg(p, vgs: np.ndarray) -> np.ndarray:
    # CGGMIN + (CGGMAX - CGGMIN) / (1 + exp(-(vgs - vth_cv) / ACV)), in place
    # as in _ids
    vth_cv = (p.PHIG - WORKFUNC_REF) + p.DVTCV
    cap = vth_cv - vgs  # -(vgs - vth_cv), exactly
    cap /= p.ACV
    cap = np.exp(cap)
    cap += 1.0
    cap = 1.0 / cap
    cap *= p.CGGMAX - p.CGGMIN
    cap += p.CGGMIN
    return cap


#: The 14 parameters by name, as ``_ids`` and ``_cgg`` read them.
_Params = namedtuple("_Params", PARAM_NAMES)


def _columns(block) -> _Params:
    """The parameters of an (N, 14) block by name, as (N, 1, 1) columns
    that broadcast against the (drain bias, gate bias) grids."""
    return _Params._make(check_param_block(block).T[:, :, None, None])


def _simulate(p) -> tuple:
    """Unchecked values of the stored curves: Ids on the ``_IV_VDS`` drain
    biases, (..., 2, npts) on ``IV_X``, and Cgg, (..., npts) on ``CV_X``."""
    iv = _ids(p, IV_X, _IV_VDS)
    return iv, _cgg(p, CV_X).reshape(iv.shape[:-2] + CV_X.shape)


def simulate_curveset(params) -> CurveSet:
    """Simulate the three stored curves on the default grids.

    ``params`` is one ``ModelParams`` or an (N, 14) block of parameter rows
    in ``PARAM_NAMES`` order, checked once as a whole. A block gives a curve
    set whose curves hold (N, npts) values, one row per device, on the same
    read-only grids. Both evaluate the same expressions, so row i of a block
    is bit-identical to simulating row i alone.
    """
    iv, cv = _simulate(params if isinstance(params, ModelParams) else _columns(params))
    return CurveSet(
        ids_low=Curve._on_checked_grid(CurveKind.IDS_VGS, IV_X, iv[..., 0, :], vds=VDS_LOW),
        ids_high=Curve._on_checked_grid(CurveKind.IDS_VGS, IV_X, iv[..., 1, :], vds=VDS_HIGH),
        cgg_low=Curve._on_checked_grid(CurveKind.CGG_VGS, CV_X, cv, vds=0.0),
    )


def simulate_ids_vds(params: ModelParams, vgs_list) -> list[Curve]:
    """Output characteristics: one Ids-Vds curve per fixed Vgs, with Vds
    swept over ``IV_X``."""
    return [
        Curve(CurveKind.IDS_VDS, IV_X, ids(params, float(v), IV_X), vgs=float(v))
        for v in vgs_list
    ]


def differentiate(curve: Curve, order: int) -> Curve:
    """First or second derivative of an Ids-Vgs curve on its own grid,
    along the last axis, so a block curve gives one derivative per row.

    Central differences at interior points, second-order one-sided stencils
    at both endpoints. The same operator is applied to simulated and external
    target curves so stencil truncation cancels in comparisons.
    """
    if curve.kind != CurveKind.IDS_VGS:
        raise ValueError(f"can only differentiate IdsVgs curves, got {curve.kind.value}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    y = curve.y
    npts = y.shape[-1]
    min_pts = 3 if order == 1 else 4
    if npts < min_pts:
        raise ValueError(f"need at least {min_pts} points for order {order}, got {npts}")
    h = curve.step
    y = y.T  # points first, so y[k] is point k of every row
    g = np.empty(y.shape)
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
    # rows contiguous again, so reductions along a row sum in the same order
    g = np.ascontiguousarray(g.T)
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
