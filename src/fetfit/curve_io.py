"""Curve CSV interchange format.

One curve per file: a single comment header carrying kind, fixed biases, and
the y unit, followed by bare ``x,y`` rows with at least 9 significant digits.
The same format is shared by every command that reads or writes curves, and
a file holds the curve of one device.

Reading accepts CRLF or LF line ends, blank and whitespace-only lines
(skipped), whitespace around either cell, and a missing final newline. Each
cell is converted exactly as ``float()`` converts it. A row with other than
two cells, or a cell ``float()`` rejects, is reported as ``path:line``.
Every curve is built by the public ``Curve`` constructor, so the rule of
``device`` applies: an ``x`` whose every point lies within
``device.GRID_TOL_V`` (1e-9 V) of a default sweep is put on that shared
read-only sweep, and ``0.030`` reads as 3 x 0.01 V.

A device directory holds one curve per slot: Ids-Vgs at Vds = 0.05 V,
Ids-Vgs at Vds = 0.7 V, and Cgg-Vgs. Files are classified by header, not by
name; two files that fill one slot are an error, and curves that fill none
(Ids-Vds, Gm-Vgs, other drain biases) are ignored.
"""

from __future__ import annotations

import os
import re
from itertools import repeat
from pathlib import Path

import numpy as np

from .device import CURVE_UNITS, CV_X, IV_X, VDS_HIGH, VDS_LOW, Curve, CurveKind, CurveSet
from .errors import DataError, read_text

_HEADER_RE = re.compile(
    r"^#\s*kind=(?P<kind>\w+),\s*vds=(?P<vds>[^,]+),\s*vgs=(?P<vgs>[^,]+),\s*unit=(?P<unit>\w+)\s*$"
)

#: Kinds that may appear in interchange files.
WRITABLE_KINDS = (CurveKind.IDS_VGS, CurveKind.CGG_VGS, CurveKind.IDS_VDS, CurveKind.GM_VGS)


def _fmt(v: float) -> str:
    return "%.17g" % v


def _bias_str(v: float | None) -> str:
    return "na" if v is None else _fmt(v)


# Each default sweep, with its x column as the writers write it (they reuse
# these cells): float() maps those cells to exactly the grid, so a file
# carrying them needs no conversion of its x column.
_GRIDS = [(grid, tuple(map(_fmt, grid))) for grid in (IV_X, CV_X)]


def _x_column(cells: tuple) -> np.ndarray:
    """The x cells as floats; a default sweep's shared grid, unconverted,
    when the cells are the ones ``write_curve_csv`` writes for it."""
    for grid, grid_cells in _GRIDS:
        if cells == grid_cells:
            return grid
    return np.array(list(map(float, cells)))


def _body(x: np.ndarray, *ys: np.ndarray) -> str:
    """The data rows of x and the y columns, every cell ``%.17g``, formatted
    by one % call; a default sweep's x cells are taken from ``_GRIDS``."""
    tail = ",%.17g" * len(ys)
    for grid, grid_cells in _GRIDS:
        if x is grid:
            return "\n".join([cell + tail for cell in grid_cells]) % tuple(
                np.column_stack(ys).ravel().tolist())
    return "\n".join(["%.17g" + tail] * len(x)) % tuple(
        np.column_stack((x, *ys)).ravel().tolist())


def _require_one_device(curve: Curve):
    if curve.y.ndim != 1:
        raise DataError(f"a curve CSV file holds one device; this {curve.kind.value} curve "
                        f"holds {len(curve.y)}")


def write_curve_csv(curve: Curve, path):
    if curve.kind not in WRITABLE_KINDS:
        raise DataError(f"curve kind {curve.kind.value} has no CSV representation")
    _require_one_device(curve)
    header = (f"# kind={curve.kind.value}, vds={_bias_str(curve.vds)}, "
              f"vgs={_bias_str(curve.vgs)}, unit={CURVE_UNITS[curve.kind]}")
    Path(path).write_text(f"{header}\n{_body(curve.x, curve.y)}\n")


def _parse_header(path, line: str):
    """(kind, vds, vgs) of a header line."""
    m = _HEADER_RE.match(line)
    if not m:
        raise DataError(f"{path}: bad header line {line!r}")
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

    return kind, bias(m.group("vds"), "vds"), bias(m.group("vgs"), "vgs")


def _raise_row_error(path, lines: list):
    """Raise the error of a data block the bulk conversion rejected, found
    line by line so that the message names the first bad line."""
    for ln_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{ln_no}: expected 'x,y', got {line!r}")
        try:
            float(parts[0])
            float(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{ln_no}: {exc}") from exc
    raise DataError(f"{path}: need at least 2 data rows")


def read_curve_csv(path) -> Curve:
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    kind, vds, vgs = _parse_header(path, lines[0])
    rows = list(filter(str.strip, lines[1:]))
    if len(rows) < 2:
        _raise_row_error(path, lines)
    # split each row at its first comma; float() rejects the y cell of a row
    # with no comma ("") or with a second one
    xs, _, ys = zip(*map(str.partition, rows, repeat(",")))
    try:
        x, y = _x_column(xs), np.array(list(map(float, ys)))
    except ValueError:
        _raise_row_error(path, lines)
    try:
        return Curve(kind, x, y, vds=vds, vgs=vgs)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


#: Stable file names used when a curve set is written as a directory.
CURVESET_FILES = {
    "ids_low": "ids_vgs_low.csv",
    "ids_high": "ids_vgs_high.csv",
    "cgg_low": "cgg_vgs.csv",
}

#: What fills each CurveSet slot, as named in error messages.
_SLOT_NAMES = {
    "ids_low": "Ids-Vgs at Vds=0.05",
    "ids_high": "Ids-Vgs at Vds=0.7",
    "cgg_low": "Cgg-Vgs",
}


def _slot(curve: Curve) -> str | None:
    if curve.kind == CurveKind.CGG_VGS:
        return "cgg_low"
    if curve.kind == CurveKind.IDS_VGS and curve.vds is not None:
        if abs(curve.vds - VDS_LOW) < 1e-9:
            return "ids_low"
        if abs(curve.vds - VDS_HIGH) < 1e-9:
            return "ids_high"
    return None


def write_curveset_dir(cs: CurveSet, directory):
    curves = {slot: getattr(cs, slot) for slot in CURVESET_FILES}
    for curve in curves.values():
        _require_one_device(curve)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for slot, curve in curves.items():
        write_curve_csv(curve, directory / CURVESET_FILES[slot])


def read_curveset_dir(directory) -> CurveSet:
    """Assemble a CurveSet from the curve CSVs of a directory (names ending
    in ``.csv``, read in sorted order), classified by header metadata."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"{directory}: not a directory")
    found = {}  # slot -> (file name, curve)
    for name in sorted(n for n in os.listdir(directory) if n.endswith(".csv")):
        curve = read_curve_csv(directory / name)
        slot = _slot(curve)
        if slot is None:
            continue
        if slot in found:
            raise DataError(f"{directory}: {found[slot][0]} and {name} both hold "
                            f"the {_SLOT_NAMES[slot]} curve")
        found[slot] = (name, curve)
    missing = [_SLOT_NAMES[slot] for slot in _SLOT_NAMES if slot not in found]
    if missing:
        raise DataError(f"{directory}: missing curves: {', '.join(missing)}")
    return CurveSet(**{slot: curve for slot, (_, curve) in found.items()})


def write_overlay_csv(target: Curve, extracted: Curve, path):
    """Two-curve overlay for plotting: x,target,extracted rows."""
    if target.x.shape != extracted.x.shape or np.any(target.x != extracted.x):
        raise DataError("overlay curves must share a grid")
    header = (f"# kind={target.kind.value}, vds={_bias_str(target.vds)}, "
              f"vgs={_bias_str(target.vgs)}, unit={CURVE_UNITS[target.kind]}, "
              f"columns=x,target,extracted")
    Path(path).write_text(f"{header}\n{_body(target.x, target.y, extracted.y)}\n")
