"""The line-by-line curve-CSV parser and the row-by-row writers, kept as
the references that the bulk reader and writers in ``fetfit.curve_io`` must
agree with. Like the reader, the parser puts an x column within 1e-9 V of a
default sweep point for point on that sweep."""

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


def _cell(v) -> str:
    return "%.17g" % v


def _bias_cell(v) -> str:
    return "na" if v is None else _cell(v)


def write_curve_csv_by_row(curve: Curve, path):
    """The row-by-row curve-CSV writer, kept as the reference for the bytes
    that ``fetfit.curve_io.write_curve_csv`` writes."""
    lines = [f"# kind={curve.kind.value}, vds={_bias_cell(curve.vds)}, "
             f"vgs={_bias_cell(curve.vgs)}, unit={CURVE_UNITS[curve.kind]}"]
    for x, y in zip(curve.x, curve.y):
        lines.append(f"{_cell(x)},{_cell(y)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_overlay_csv_by_row(target: Curve, extracted: Curve, path):
    """The row-by-row overlay writer, the reference for
    ``fetfit.curve_io.write_overlay_csv``."""
    lines = [f"# kind={target.kind.value}, vds={_bias_cell(target.vds)}, "
             f"vgs={_bias_cell(target.vgs)}, unit={CURVE_UNITS[target.kind]}, "
             f"columns=x,target,extracted"]
    for x, t, e in zip(target.x, target.y, extracted.y):
        lines.append(f"{_cell(x)},{_cell(t)},{_cell(e)}")
    Path(path).write_text("\n".join(lines) + "\n")
