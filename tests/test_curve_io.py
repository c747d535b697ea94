"""Curve CSV format tests."""

import numpy as np
import pytest

from fetfit.curve_io import (
    WRITABLE_KINDS,
    read_curve_csv,
    read_curveset_dir,
    write_curve_csv,
    write_curveset_dir,
    write_overlay_csv,
)
from fetfit.device import (CV_X, IV_X, Curve, CurveKind, differentiate, simulate_curveset,
                           simulate_ids_vds)
from fetfit.errors import DataError
from fetfit.params import REFERENCE_PARAMS

from ._curve_csv import read_curve_csv_by_line, write_curve_csv_by_row, write_overlay_csv_by_row


def test_round_trip_all_kinds(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    curves = [cs.ids_low, cs.cgg_low, cs.gm_low(),
              simulate_ids_vds(REFERENCE_PARAMS, [0.5])[0]]
    for i, c in enumerate(curves):
        path = tmp_path / f"c{i}.csv"
        write_curve_csv(c, path)
        back = read_curve_csv(path)
        assert back.kind == c.kind
        assert back.vds == c.vds and back.vgs == c.vgs
        np.testing.assert_array_equal(back.x, c.x)
        np.testing.assert_array_equal(back.y, c.y)


def test_header_contract(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    path = tmp_path / "ids.csv"
    write_curve_csv(cs.ids_low, path)
    header = path.read_text().splitlines()[0]
    assert header == "# kind=IdsVgs, vds=0.050000000000000003, vgs=na, unit=A"
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 81
    assert all(len(r.split(",")) == 2 for r in rows)


def test_gm2_not_writable(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    gm2 = differentiate(cs.ids_low, 2)
    with pytest.raises(DataError):
        write_curve_csv(gm2, tmp_path / "gm2.csv")


def test_read_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("kind=IdsVgs\n0,1e-9\n0.01,2e-9\n")
    with pytest.raises(DataError):
        read_curve_csv(bad_header)

    wrong_unit = tmp_path / "b.csv"
    wrong_unit.write_text("# kind=IdsVgs, vds=0.05, vgs=na, unit=fF\n0,1e-9\n0.01,2e-9\n")
    with pytest.raises(DataError):
        read_curve_csv(wrong_unit)

    bad_cell = tmp_path / "c.csv"
    bad_cell.write_text("# kind=IdsVgs, vds=0.05, vgs=na, unit=A\n0,1e-9\n0.01,oops\n")
    with pytest.raises(DataError):
        read_curve_csv(bad_cell)

    non_positive = tmp_path / "d.csv"
    non_positive.write_text("# kind=IdsVgs, vds=0.05, vgs=na, unit=A\n0,-1e-9\n0.01,2e-9\n")
    with pytest.raises(DataError):
        read_curve_csv(non_positive)


def test_curveset_dir_round_trip(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    write_curveset_dir(cs, tmp_path / "dev")
    back = read_curveset_dir(tmp_path / "dev")
    np.testing.assert_array_equal(back.ids_low.y, cs.ids_low.y)
    np.testing.assert_array_equal(back.ids_high.y, cs.ids_high.y)
    np.testing.assert_array_equal(back.cgg_low.y, cs.cgg_low.y)


def test_curveset_dir_missing_curve(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    d = tmp_path / "dev"
    d.mkdir()
    write_curve_csv(cs.ids_low, d / "only_one.csv")
    with pytest.raises(DataError, match="missing curves"):
        read_curveset_dir(d)


def test_overlay_csv(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    path = tmp_path / "overlay.csv"
    write_overlay_csv(cs.ids_low, cs.ids_low.scaled(1.01), path)
    lines = path.read_text().splitlines()
    assert "columns=x,target,extracted" in lines[0]
    assert len(lines) == 82


def test_writers_match_the_row_by_row_reference(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    # off every default sweep, with a signed zero, a subnormal and the largest float
    odd = Curve(CurveKind.GM_VGS, [-0.0, 0.25, 0.5], [-0.0, 5e-324, -1.7976931348623157e308])
    curves = [cs.ids_low, cs.cgg_low, cs.gm_high(), simulate_ids_vds(REFERENCE_PARAMS, [0.5])[0],
              odd]
    assert {c.kind for c in curves} == set(WRITABLE_KINDS)
    for i, curve in enumerate(curves):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        write_curve_csv(curve, got)
        write_curve_csv_by_row(curve, want)
        assert got.read_bytes() == want.read_bytes(), curve.kind
    for i, (target, extracted) in enumerate([
            (cs.ids_low, cs.ids_low.scaled(1.01)), (cs.cgg_low, cs.cgg_low.scaled(0.99)),
            (odd, Curve(CurveKind.GM_VGS, odd.x, [1.0, -2.5e-7, 3.0]))]):
        got, want = tmp_path / f"got_overlay{i}.csv", tmp_path / f"want_overlay{i}.csv"
        write_overlay_csv(target, extracted, got)
        write_overlay_csv_by_row(target, extracted, want)
        assert got.read_bytes() == want.read_bytes(), target.kind


def _written(kind: str, path) -> str:
    """The text write_curve_csv gives for a curve of the reference device."""
    cs = simulate_curveset(REFERENCE_PARAMS)
    curve = {"IdsVgs": cs.ids_low, "CggVgs": cs.cgg_low, "GmVgs": cs.gm_low(),
             "IdsVds": simulate_ids_vds(REFERENCE_PARAMS, [0.5])[0]}[kind]
    write_curve_csv(curve, path)
    return path.read_text()


def _rows(edit):
    """An edit of a file's data rows, keeping its header."""
    def apply(text):
        header, *rows = text.splitlines()
        return "\n".join([header, *edit(rows)]) + "\n"
    return apply


def _spaced(rows):
    return [" %s \t, %s " % tuple(r.split(",")) for r in rows]


def _set_row(i, row):
    return _rows(lambda rows: rows[:i] + [row] + rows[i + 1:])


#: Files the reader accepts: every writable kind as written, then the row
#: forms the format allows.
ACCEPTED_CASES = {
    "IdsVgs": ("IdsVgs", lambda t: t),
    "CggVgs": ("CggVgs", lambda t: t),
    "IdsVds": ("IdsVds", lambda t: t),
    "GmVgs": ("GmVgs", lambda t: t),
    "crlf": ("CggVgs", lambda t: t.replace("\n", "\r\n")),
    "blank-lines": ("IdsVgs", lambda t: t.replace("\n", "\n\n \t \n", 5) + "   \n\n"),
    "spaces-around-comma": ("CggVgs", _rows(_spaced)),
    "no-final-newline": ("IdsVgs", lambda t: t.rstrip("\n")),
    "underscores-and-exponents": ("IdsVgs", _set_row(3, "3_0e-3,1_0.5e-10")),
    "x-in-exponent-form": ("IdsVgs", _rows(
        lambda rows: ["%.17e,%s" % (float(r.split(",")[0]), r.split(",")[1]) for r in rows])),
    "negative-zero-x": ("IdsVgs", _set_row(0, "-0,1e-10")),
    "unicode-digits": ("IdsVgs", _set_row(3, "0.03,\u0661e-10")),
}

#: Files the reader rejects.
REJECTED_CASES = {
    "empty-file": ("IdsVgs", lambda t: ""),
    "bad-header": ("IdsVgs", lambda t: t[1:]),
    "unknown-kind": ("IdsVgs", lambda t: t.replace("kind=IdsVgs", "kind=IdVg")),
    "kind-not-in-csv": ("IdsVgs", lambda t: t.replace("kind=IdsVgs", "kind=Gm2Vgs").replace(
        "unit=A", "unit=A_per_V2")),
    "wrong-unit": ("IdsVgs", lambda t: t.replace("unit=A", "unit=fF")),
    "bad-bias": ("IdsVgs", lambda t: t.replace("vds=0.050000000000000003", "vds=low")),
    "three-cells": ("IdsVgs", _set_row(7, "0.07,1e-10,2e-10")),
    "no-comma": ("IdsVgs", _set_row(7, "0.07 1e-10")),
    "commas-that-balance": ("IdsVgs", _rows(
        lambda rows: rows[:4] + ["0.04"] + ["0.05,1e-10,2e-10"] + rows[6:])),
    "unparsable-cell": ("IdsVgs", _set_row(12, "0.12,oops")),
    "two-bad-cells": ("IdsVgs", _rows(
        lambda rows: rows[:5] + ["zero,1e-10", "0.06,one"] + rows[7:])),
    "one-row": ("IdsVgs", _rows(lambda rows: rows[:1])),
    "no-rows": ("IdsVgs", _rows(lambda rows: [" "])),
    "non-positive-ids": ("IdsVgs", _set_row(2, "0.02,-1e-10")),
    "nan-cell": ("CggVgs", _set_row(2, "0.02,nan")),
    "non-uniform-grid": ("IdsVgs", _set_row(40, "0.4001,1e-7")),
    "decreasing-grid": ("IdsVgs", _set_row(1, "-0.5,1e-10")),
}


def _outcome(reader, path):
    try:
        return reader(path)
    except DataError as exc:
        return f"DataError: {exc}"


@pytest.mark.parametrize("case", [*ACCEPTED_CASES, *REJECTED_CASES])
def test_reader_agrees_with_line_parser(tmp_path, case):
    kind, edit = ACCEPTED_CASES.get(case) or REJECTED_CASES[case]
    path = tmp_path / "curve.csv"
    path.write_bytes(edit(_written(kind, path)).encode())
    got, want = _outcome(read_curve_csv, path), _outcome(read_curve_csv_by_line, path)
    if case in REJECTED_CASES:
        assert isinstance(want, str) and got == want
        return
    assert not isinstance(want, str), want
    assert not isinstance(got, str), got
    assert (got.kind, got.vds, got.vgs) == (want.kind, want.vds, want.vgs)
    assert got.x.tobytes() == want.x.tobytes()  # bit for bit, signed zeros included
    assert got.y.tobytes() == want.y.tobytes()


def test_default_grid_files_share_the_module_grid(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    for curve, grid in ((cs.ids_low, IV_X), (cs.gm_high(), IV_X), (cs.cgg_low, CV_X)):
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        assert read_curve_csv(path).x is grid
        text = path.read_text()
        path.write_text(_rows(_spaced)(text))
        assert read_curve_csv(path).x is grid  # same values, other text
        short = _rows(lambda rows: ["%.3f,%s" % (float(r.split(",")[0]), r.split(",")[1])
                                    for r in rows])(text)
        path.write_text(short)
        assert read_curve_csv(path).x is grid  # 0.030 for 3 x 0.01 V: within 1e-9 V
        path.write_text(_rows(lambda rows: ["%.17g,%s" % (float(r.split(",")[0]) + 2e-9,
                                                          r.split(",")[1]) for r in rows])(text))
        assert read_curve_csv(path).x is not grid  # 2e-9 V off
    off_grid = tmp_path / "off.csv"
    off_grid.write_text("# kind=IdsVgs, vds=0.05, vgs=na, unit=A\n0,1e-10\n0.02,2e-10\n0.04,4e-10\n")
    curve = read_curve_csv(off_grid)
    np.testing.assert_array_equal(curve.x, [0.0, 0.02, 0.04])
    assert curve.x.flags.writeable
    assert not np.shares_memory(curve.x, IV_X) and not np.shares_memory(curve.x, CV_X)


def test_curveset_dir_rejects_two_files_for_one_slot(tmp_path):
    d = tmp_path / "dev"
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS), d)
    other = simulate_curveset(REFERENCE_PARAMS.replace(PHIG=4.45))
    write_curve_csv(other.ids_low, d / "zz_other_device.csv")
    with pytest.raises(DataError, match="ids_vgs_low.csv and zz_other_device.csv both hold "
                                        "the Ids-Vgs at Vds=0.05 curve"):
        read_curveset_dir(d)


def test_curveset_dir_ignores_curves_that_fill_no_slot(tmp_path):
    cs = simulate_curveset(REFERENCE_PARAMS)
    d = tmp_path / "dev"
    write_curveset_dir(cs, d)
    write_curve_csv(simulate_ids_vds(REFERENCE_PARAMS, [0.5])[0], d / "a_ids_vds.csv")
    write_curve_csv(cs.gm_low(), d / "b_gm.csv")
    write_curve_csv(Curve(CurveKind.IDS_VGS, cs.ids_low.x, cs.ids_low.y, vds=0.3), d / "c.csv")
    (d / "notes.txt").write_text("not a curve\n")
    back = read_curveset_dir(d)
    np.testing.assert_array_equal(back.ids_low.y, cs.ids_low.y)
    np.testing.assert_array_equal(back.ids_high.y, cs.ids_high.y)
    np.testing.assert_array_equal(back.cgg_low.y, cs.cgg_low.y)


def test_block_curves_are_not_writable(tmp_path):
    block = simulate_curveset(np.stack([REFERENCE_PARAMS.to_vector()] * 2))
    with pytest.raises(DataError, match="a curve CSV file holds one device; this IdsVgs curve "
                                        "holds 2"):
        write_curve_csv(block.ids_low, tmp_path / "ids.csv")
    with pytest.raises(DataError, match="holds one device"):
        write_curveset_dir(block, tmp_path / "dev")
    assert not (tmp_path / "ids.csv").exists() and not (tmp_path / "dev").exists()
