"""Compact-model parameter set and its sampling ranges.

The surrogate device model is controlled by 14 named parameters. Their
canonical order (``PARAM_NAMES``) fixes the column layout of dataset files,
the regression-target vector, and every serialized parameter document.

``ParamRanges`` is the parameter box: it alone reads bounds from a
document, checks them, and maps the box to and from the unit box
(``from_unit``/``to_unit``), where the ``LOG_UNIFORM_PARAMS`` are
logarithms. Corpus sampling draws unit-box points, and the direct-fit
simplex searches over them.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvalidParameterError, require_number

# Canonical parameter order. Everything that maps parameters to/from flat
# vectors (datasets, the network head, normalizers) uses this order.
PARAM_NAMES = (
    "PHIG", "ETA0", "CIT", "CDSC", "U0", "UA", "VSATV",
    "LAMBDA", "RDSW", "IOFF0", "CGGMAX", "CGGMIN", "DVTCV", "ACV",
)

# Parameters drawn log-uniformly instead of uniformly, and their mask in
# canonical order.
LOG_UNIFORM_PARAMS = frozenset({"IOFF0"})
_LOG_MASK = np.array([n in LOG_UNIFORM_PARAMS for n in PARAM_NAMES])

# Parameters that ModelParams requires to be strictly positive.
POSITIVE_PARAMS = ("IOFF0", "ACV", "VSATV")
_POSITIVE_COLS = [PARAM_NAMES.index(n) for n in POSITIVE_PARAMS]

# Minimum separation between the C-V plateau levels, fF.
CGG_MARGIN_FF = 0.1

# Columns of the C-V plateau levels in a parameter vector or block.
I_CGGMAX = PARAM_NAMES.index("CGGMAX")
I_CGGMIN = PARAM_NAMES.index("CGGMIN")


@dataclass(frozen=True)
class ModelParams:
    """The 14 surrogate compact-model parameters.

    PHIG    gate work function, eV
    ETA0    DIBL coefficient, V/V
    CIT     interface-trap ideality contribution, dimensionless
    CDSC    drain-coupled ideality contribution, dimensionless
    U0      mobility prefactor, dimensionless multiplier
    UA      vertical-field mobility degradation, 1/V
    VSATV   saturation-voltage scale, V
    LAMBDA  channel-length modulation, 1/V
    RDSW    series-resistance degeneration, 1/A
    IOFF0   leakage floor, A
    CGGMAX  maximum gate capacitance, fF
    CGGMIN  minimum gate capacitance, fF
    DVTCV   C-V threshold offset from the I-V threshold, V
    ACV     C-V transition width, V
    """

    PHIG: float
    ETA0: float
    CIT: float
    CDSC: float
    U0: float
    UA: float
    VSATV: float
    LAMBDA: float
    RDSW: float
    IOFF0: float
    CGGMAX: float
    CGGMIN: float
    DVTCV: float
    ACV: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            object.__setattr__(self, name, require_number(name, getattr(self, name),
                                                          InvalidParameterError))
        for name in POSITIVE_PARAMS:
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.CGGMIN + CGG_MARGIN_FF > self.CGGMAX:
            raise InvalidParameterError(
                f"CGGMIN + {CGG_MARGIN_FF} must not exceed CGGMAX "
                f"(got CGGMIN={self.CGGMIN}, CGGMAX={self.CGGMAX})"
            )

    def to_vector(self) -> np.ndarray:
        """Flatten to a length-14 array in canonical order."""
        return np.array([getattr(self, n) for n in PARAM_NAMES], dtype=float)

    @classmethod
    def from_vector(cls, vec) -> "ModelParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (len(PARAM_NAMES),):
            raise InvalidParameterError(f"expected {len(PARAM_NAMES)} values, got shape {vec.shape}")
        return cls(*vec.tolist())  # the fields are in canonical order

    def to_dict(self) -> dict:
        return {n: getattr(self, n) for n in PARAM_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        missing = [n for n in PARAM_NAMES if n not in d]
        if missing:
            raise InvalidParameterError(f"missing parameters: {missing}")
        extra = [k for k in d if k not in PARAM_NAMES]
        if extra:
            raise InvalidParameterError(f"unknown parameters: {extra}")
        return cls(**{n: d[n] for n in PARAM_NAMES})

    def replace(self, **changes) -> "ModelParams":
        d = self.to_dict()
        d.update(changes)
        return ModelParams.from_dict(d)


def check_param_block(values) -> np.ndarray:
    """An (N, 14) block of parameter rows in canonical order, as a float
    array, checked against the ``ModelParams`` invariants on every row.
    Raises the error ``ModelParams`` raises for the first invalid row."""
    block = np.asarray(values, dtype=float)
    if block.ndim != 2 or block.shape[1] != len(PARAM_NAMES):
        raise InvalidParameterError(
            f"expected an (N, {len(PARAM_NAMES)}) parameter block, got shape {block.shape}")
    bad = (~np.isfinite(block).all(axis=1)
           | (block[:, _POSITIVE_COLS] <= 0).any(axis=1)
           | (block[:, I_CGGMIN] + CGG_MARGIN_FF > block[:, I_CGGMAX]))
    if bad.any():
        ModelParams.from_vector(block[bad.argmax()])
    return block


#: Canonical mid-range device used by demos, docs, and regression tests.
REFERENCE_PARAMS = ModelParams(
    PHIG=4.45, ETA0=0.10, CIT=0.10, CDSC=0.05, U0=1.0, UA=0.8, VSATV=0.4,
    LAMBDA=0.1, RDSW=500.0, IOFF0=1e-9, CGGMAX=1.0, CGGMIN=0.2, DVTCV=0.0,
    ACV=0.10,
)


@dataclass(frozen=True)
class ParamRanges:
    """Per-parameter (lo, hi) sampling bounds.

    All parameters are drawn uniformly except those in ``LOG_UNIFORM_PARAMS``
    (log-uniform). ``lo == hi`` is allowed and yields a constant; dataset
    generation and normalizer fitting additionally require ``lo < hi``. The
    ``POSITIVE_PARAMS`` need ``lo > 0``, so the vectors ``clip_vector``
    returns keep them positive, as ``ModelParams`` requires.
    """

    bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = [n for n in PARAM_NAMES if n not in self.bounds]
        if missing:
            raise ConfigError(f"ranges missing parameters: {missing}")
        extra = [k for k in self.bounds if k not in PARAM_NAMES]
        if extra:
            raise ConfigError(f"ranges contain unknown parameters: {extra}")
        bounds = {}
        for name, pair in self.bounds.items():
            lo, hi = bounds[name] = tuple(require_number(f"{name} bounds", v) for v in pair)
            if lo > hi:
                raise ConfigError(f"{name} bounds inverted: ({lo}, {hi})")
            if name in LOG_UNIFORM_PARAMS and lo <= 0:
                raise ConfigError(f"{name} is log-uniform and needs lo > 0, got {lo}")
            if name in POSITIVE_PARAMS and lo <= 0:
                raise ConfigError(f"{name} must be positive and needs lo > 0, got {lo}")
        object.__setattr__(self, "bounds", bounds)

    @cached_property
    def _box(self) -> tuple:
        # the bounds as vectors, built on first use; read-only, as they are shared
        box = np.array([self.bounds[n] for n in PARAM_NAMES], dtype=float)
        box.flags.writeable = False
        return box[:, 0], box[:, 1]

    def lo_vector(self) -> np.ndarray:
        """Lower bounds in canonical order; a fresh array the caller may change."""
        return self._box[0].copy()

    def hi_vector(self) -> np.ndarray:
        """Upper bounds in canonical order; a fresh array the caller may change."""
        return self._box[1].copy()

    def require_nondegenerate(self):
        """Raise unless lo < hi for every parameter."""
        for name, (lo, hi) in self.bounds.items():
            if not lo < hi:
                raise ConfigError(f"{name} range is degenerate: ({lo}, {hi})")

    def contains(self, params: ModelParams) -> bool:
        return all(
            self.bounds[n][0] <= getattr(params, n) <= self.bounds[n][1]
            for n in PARAM_NAMES
        )

    def clip_vector(self, vec) -> np.ndarray:
        """Clip a flat parameter vector into the box, then restore the C-V
        plateau margin by lowering CGGMIN if needed."""
        lo, hi = self._box
        # the ufuncs np.clip stands for, without its Python-level dispatch
        vec = np.minimum(np.maximum(np.asarray(vec, dtype=float), lo), hi)
        if vec[I_CGGMIN] + CGG_MARGIN_FF > vec[I_CGGMAX]:
            vec[I_CGGMIN] = vec[I_CGGMAX] - CGG_MARGIN_FF
        return vec

    @cached_property
    def _unit_box(self) -> tuple:
        # (lo, hi - lo) of the unit-box map, the log-uniform entries as logarithms
        lo, hi = self.lo_vector(), self.hi_vector()
        lo[_LOG_MASK], hi[_LOG_MASK] = np.log(lo[_LOG_MASK]), np.log(hi[_LOG_MASK])
        return lo, hi - lo

    def from_unit(self, u) -> np.ndarray:
        """Map unit-box points, along the last axis, to parameter vectors:
        0 gives lo and 1 gives hi, linearly for most parameters and on a log
        scale for the ``LOG_UNIFORM_PARAMS``. A point outside [0, 1] maps
        outside the box."""
        lo, span = self._unit_box
        z = u * span
        z += lo
        np.exp(z, out=z, where=_LOG_MASK)
        return z

    def to_unit(self, vec) -> np.ndarray:
        """The inverse of ``from_unit``."""
        lo, span = self._unit_box
        z = np.array(vec, dtype=float)
        z[..., _LOG_MASK] = np.log(z[..., _LOG_MASK])
        return (z - lo) / span

    def to_dict(self) -> dict:
        return {n: list(self.bounds[n]) for n in PARAM_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamRanges":
        """Ranges from a document that maps each name to a [lo, hi] list of
        two numbers; the constructor checks the numbers."""
        for name, pair in d.items():
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(f"{name} bounds must be a [lo, hi] pair of numbers, "
                                  f"got {reprlib.repr(pair)}")
        return cls(bounds=d)


#: Default Monte Carlo sampling ranges. Chosen so that every in-range draw
#: produces curves from which all 24 features extract cleanly.
DEFAULT_RANGES = ParamRanges(bounds={
    "PHIG": (4.30, 4.60),
    "ETA0": (0.05, 0.15),
    "CIT": (0.00, 0.30),
    "CDSC": (0.00, 0.20),
    "U0": (0.5, 1.5),
    "UA": (0.3, 1.5),
    "VSATV": (0.2, 0.6),
    "LAMBDA": (0.0, 0.3),
    "RDSW": (0.0, 2000.0),
    "IOFF0": (1e-10, 1e-8),
    "CGGMAX": (0.6, 1.5),
    "CGGMIN": (0.05, 0.45),
    "DVTCV": (-0.10, 0.10),
    "ACV": (0.05, 0.15),
})
