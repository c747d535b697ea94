"""The line-by-line curve-CSV parser, kept as the reference that the bulk
reader in ``fetfit.curve_io`` must agree with. Like the reader, it puts an
x column within 1e-9 V of a default sweep point for point on that sweep."""

from pathlib import Path

import numpy as np

from fetfit.curve_io import WRITABLE_KINDS, _HEADER_RE
from fetfit.device import CURVE_UNITS, CV_X, IV_X, Curve, CurveKind
from fetfit.errors import DataError


def read_curve_csv_by_line(path) -> Curve:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise DataError(f"{path}: bad header line {lines[0]!r}")
    try:
        kind = CurveKind(m.group("kind"))
    except ValueError as exc:
        raise DataError(f"{path}: unknown curve kind {m.group('kind')!r}") from exc
    if kind not in WRITABLE_KINDS:
        raise DataError(f"{path}: kind {kind.value} not allowed in CSV files")
    if m.group("unit") != CURVE_UNITS[kind]:
        raise DataError(
            f"{path}: unit {m.group('unit')!r} inconsistent with kind {kind.value} "
            f"(expected {CURVE_UNITS[kind]!r})"
        )

    def bias(text, field):
        if text == "na":
            return None
        try:
            return float(text)
        except ValueError as exc:
            raise DataError(f"{path}: bad {field} value {text!r}") from exc

    vds = bias(m.group("vds"), "vds")
    vgs = bias(m.group("vgs"), "vgs")
    xs, ys = [], []
    for ln_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{ln_no}: expected 'x,y', got {line!r}")
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
        except ValueError as exc:
            raise DataError(f"{path}:{ln_no}: {exc}") from exc
    if len(xs) < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    for grid in (IV_X, CV_X):
        if len(xs) == len(grid) and all(abs(a - b) <= 1e-9 for a, b in zip(xs, grid)):
            xs = grid.copy()
    try:
        return Curve(kind, np.array(xs), np.array(ys), vds=vds, vgs=vgs)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
