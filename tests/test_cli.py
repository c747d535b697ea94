"""CLI contract tests on reduced-scale runs."""

import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fetfit
from fetfit.cli import main
from fetfit.curve_io import write_curveset_dir
from fetfit.device import IV_X, simulate_curveset
from fetfit.features import FEATURE_NAMES, FeatureConfig, featurize
from fetfit.params import REFERENCE_PARAMS

from ._dispatch import golden
from ._non_numbers import NON_NUMBERS, dumps

FAST_TRAIN = {"train": {"max_epochs": 8, "patience": 7, "refine": []}}


@pytest.fixture(scope="module")
def trained_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    gen_dir = root / "gen"
    assert main(["gen", "--n", "300", "--seed", "11", "--out", str(gen_dir)]) == 0
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(FAST_TRAIN))
    train_dir = root / "train"
    code = main(["train", "--data", str(gen_dir / "dataset.csv"),
                 "--out", str(train_dir), "--config", str(cfg_path)])
    assert code == 0
    return gen_dir, train_dir


def test_gen_writes_dataset_and_config_echo(trained_dirs):
    gen_dir, _ = trained_dirs
    assert (gen_dir / "dataset.csv").exists()
    resolved = json.loads((gen_dir / "config_resolved.json").read_text())
    assert resolved["command"] == "gen"
    assert resolved["seed"] == 11
    assert resolved["ranges"]["PHIG"] == [4.3, 4.6]


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--n", "150", "--seed", "3", "--out", str(a)]) == 0
    assert main(["gen", "--n", "150", "--seed", "3", "--out", str(b)]) == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


def test_train_outputs(trained_dirs):
    _, train_dir = trained_dirs
    assert (train_dir / "model.json").exists()
    history = (train_dir / "history.csv").read_text().splitlines()
    assert history[0].startswith("# meta ")
    assert history[1] == "epoch,train_loss,val_loss,wall_seconds"
    assert len(history) == 2 + 8  # meta + header + max_epochs rows


def test_features_command(tmp_path, trained_dirs):
    curves = tmp_path / "device0"
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS), curves)
    out = tmp_path / "feat"
    assert main(["features", "--curves", str(curves), "--out", str(out)]) == 0
    lines = (out / "features.csv").read_text().splitlines()
    assert lines[0] == "device," + ",".join(FEATURE_NAMES)
    assert len(lines) == 2
    values = np.array([float(v) for v in lines[1].split(",")[1:]])
    expected = featurize(simulate_curveset(REFERENCE_PARAMS), FeatureConfig())
    np.testing.assert_allclose(values, expected, rtol=1e-15)
    assert lines[1] == "device0," + ",".join("%.17g" % v for v in expected)


def test_extract_command(tmp_path, trained_dirs):
    _, train_dir = trained_dirs
    curves = tmp_path / "device0"
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS), curves)
    out = tmp_path / "ext"
    assert main(["extract", "--curves", str(curves),
                 "--model", str(train_dir / "model.json"), "--out", str(out)]) == 0
    params = json.loads((out / "params.json").read_text())
    assert sorted(params) == sorted(
        ["PHIG", "ETA0", "CIT", "CDSC", "U0", "UA", "VSATV", "LAMBDA",
         "RDSW", "IOFF0", "CGGMAX", "CGGMIN", "DVTCV", "ACV"])


def _rewrite_x(path, x):
    """Replace the x cells of a curve CSV with the strings in ``x``."""
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [f"{a},{r.split(',')[1]}" for a, r in zip(x, rows)])
                    + "\n")


def test_short_x_cells_pass_extract_and_verify(tmp_path, trained_dirs):
    """A device written with short x cells (0.030 for 3 x 0.01 V, 2e-18 V off
    the sweep) reads onto the default sweeps, so extract and verify --curves
    give the results of the device as written by fetfit."""
    model = str(trained_dirs[1] / "model.json")
    exact, short = tmp_path / "exact", tmp_path / "short"
    cs = simulate_curveset(REFERENCE_PARAMS.replace(PHIG=4.43))
    for d in (exact, short):
        write_curveset_dir(cs, d)
    for curve in short.iterdir():
        header, *rows = curve.read_text().splitlines()
        _rewrite_x(curve, ["%.3f" % float(r.split(",")[0]) for r in rows])
    assert "\n0.030," in (short / "ids_vgs_low.csv").read_text()
    for d in (exact, short):
        assert main(["extract", "--curves", str(d), "--model", model,
                     "--out", str(tmp_path / f"ext-{d.name}")]) == 0
        assert main(["verify", "--curves", str(d), "--model", model,
                     "--out", str(tmp_path / f"ver-{d.name}")]) == 0
    outputs = {}
    for d in ("exact", "short"):
        report = json.loads((tmp_path / f"ver-{d}" / "report.json").read_text())
        report.pop("extract_seconds")
        outputs[d] = (report, (tmp_path / f"ext-{d}" / "params.json").read_text())
    assert outputs["short"] == outputs["exact"]


def _off_sweep_device(tmp_path):
    """A device whose low-Vds x column is uniform, with both ends within
    1e-9 V of the sweep's, but whose middle lies 1.4e-9 V off it."""
    device = tmp_path / "device0"
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS), device)
    steps = [0.0, 0.0] + [0.99e-11] * 39 + [-0.99e-11] * 40  # each step within 1e-11 V of the first
    x = IV_X + 0.99e-9 + np.cumsum(steps)
    _rewrite_x(device / "ids_vgs_low.csv", ["%.17g" % v for v in x])
    return device


OFF_SWEEP_ERROR = (
    "IV low-Vds: curve must be sampled on the 0..0.8 V grid with step 0.01 (81 points); "
    "got 81 points spanning 9.9e-10..0.8 V; a point lies 1.4e-09 V off the sweep\n")


def test_verify_names_the_curve_directory_on_a_grid_mismatch(tmp_path, capsys, trained_dirs):
    device = _off_sweep_device(tmp_path)
    assert main(["verify", "--curves", str(device), "--model",
                 str(trained_dirs[1] / "model.json"), "--out", str(tmp_path / "out")]) == 3
    want = f"fetfit: error: ExtractionError: {device}: " + OFF_SWEEP_ERROR
    assert capsys.readouterr().err == want


def test_extract_names_the_curve_directory_on_a_grid_mismatch(tmp_path, capsys, trained_dirs):
    """So does features."""
    device = _off_sweep_device(tmp_path)
    model = ["--model", str(trained_dirs[1] / "model.json")]
    for command, extra in (("extract", model), ("features", [])):
        out = tmp_path / command
        assert main([command, "--curves", str(device), "--out", str(out)] + extra) == 3
        want = f"fetfit: error: ExtractionError: {device}: " + OFF_SWEEP_ERROR
        assert capsys.readouterr().err == want
        assert not any(p.is_file() for p in out.rglob("*"))


def test_features_names_the_failing_device_of_a_directory(tmp_path, capsys):
    good = tmp_path / "devices" / "a_good"
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS), good)
    bad = _off_sweep_device(tmp_path)
    bad.rename(tmp_path / "devices" / "b_bad")
    assert main(["features", "--curves", str(tmp_path / "devices"),
                 "--out", str(tmp_path / "out")]) == 3
    want = f"fetfit: error: ExtractionError: {tmp_path / 'devices' / 'b_bad'}: " + OFF_SWEEP_ERROR
    assert capsys.readouterr().err == want


def test_import_loads_no_scipy():
    """The package needs numpy alone; numpy.random is loaded with it."""
    src = str(Path(fetfit.__file__).parent.parent)
    code = ("import sys, fetfit, fetfit.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout == "[] True\n"


def test_verify_command_with_params(tmp_path, trained_dirs):
    _, train_dir = trained_dirs
    params_file = tmp_path / "true.json"
    params_file.write_text(json.dumps(REFERENCE_PARAMS.to_dict()))
    out = tmp_path / "verify"
    assert main(["verify", "--params", str(params_file),
                 "--model", str(train_dir / "model.json"), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["curve_errors"]) == 5
    assert report["true_params"]["PHIG"] == 4.45
    for label in ("cgg", "ids_low", "ids_high", "gm_low", "gm_high"):
        assert (out / "overlays" / f"{label}.csv").exists()
        svg_text = (out / "plots" / f"{label}.svg").read_text()
        assert svg_text.startswith("<svg")
        assert ">target<" in svg_text and ">extracted<" in svg_text
    # with known truth, the output-characteristic family is plotted too
    for vgs in (0.5, 0.6, 0.7):
        assert (out / "overlays" / f"ids_vds_vgs{vgs:g}.csv").exists()
        assert (out / "plots" / f"ids_vds_vgs{vgs:g}.svg").exists()


def test_verify_fixed_point_reports_zero(tmp_path):
    """With a constant-output model, the verify target simulated from the
    predicted parameters is reproduced bit-exactly: all errors are zero."""
    from fetfit.ann import MLPConfig, init_weights, save_model
    from fetfit.dataset import Normalizer
    from fetfit.params import DEFAULT_RANGES, ModelParams

    mcfg = MLPConfig(seed=0)
    w = init_weights(mcfg)
    for arr in w.W:
        arr[:] = 0.0  # output is the zero vector -> denormalizes to the lo bounds
    norm = Normalizer(feat_mean=np.zeros(24), feat_std=np.ones(24),
                      param_lo=DEFAULT_RANGES.lo_vector(),
                      param_hi=DEFAULT_RANGES.hi_vector())
    model_path = tmp_path / "const_model.json"
    save_model(model_path, w, norm, mcfg)
    lo_params = ModelParams.from_vector(DEFAULT_RANGES.lo_vector())

    params_file = tmp_path / "true.json"
    params_file.write_text(json.dumps(lo_params.to_dict()))
    out = tmp_path / "verify_fp"
    assert main(["verify", "--params", str(params_file),
                 "--model", str(model_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for ce in report["curve_errors"]:
        assert ce["rms_percent"] == 0.0
        if ce["subthreshold_rms_percent"] is not None:
            assert ce["subthreshold_rms_percent"] == 0.0
    for name, err in report["param_errors"].items():
        assert err["abs"] == 0.0


def test_verify_variability_suite(tmp_path, trained_dirs):
    _, train_dir = trained_dirs
    params_file = tmp_path / "true.json"
    params_file.write_text(json.dumps(REFERENCE_PARAMS.to_dict()))
    out = tmp_path / "var"
    assert main(["verify", "--params", str(params_file), "--variability",
                 "--model", str(train_dir / "model.json"), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["reports"]) == 5
    assert report["reports"][0]["knobs"] == [1.0, 1.0]
    assert set(report["average_rms_percent"]) == {"cgg", "ids_low", "ids_high",
                                                  "gm_low", "gm_high"}
    assert (out / "knob_lg0.9_eot1" / "plots" / "cgg.svg").exists()


def test_verify_variability_requires_params(tmp_path, trained_dirs):
    _, train_dir = trained_dirs
    curves = tmp_path / "device0"
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS), curves)
    code = main(["verify", "--curves", str(curves), "--variability",
                 "--model", str(train_dir / "model.json"), "--out", str(tmp_path / "x")])
    assert code == 3


def test_demo_exit_code_contract(tmp_path):
    """Reduced-scale demo: the quality gates are calibrated for the full
    25k pipeline, so a tiny run must fail them and exit 4."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 8, "patience": 7, "refine": []}}))
    out = tmp_path / "demo"
    code = main(["demo", "--out", str(out), "--n", "300", "--devices", "20",
                 "--config", str(cfg)])
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    assert any(not c["pass"] for c in summary["checks"])


def test_missing_file_exits_3(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert code == 3


@pytest.mark.parametrize("reader", ["curve-csv", "model", "dataset", "config", "params"])
def test_non_utf8_input_exits_3(tmp_path, capsys, trained_dirs, reader):
    model = str(trained_dirs[1] / "model.json")
    curves = tmp_path / "device0"
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS), curves)
    bad, out = tmp_path / "bad.json", str(tmp_path / "out")
    path, error, argv = {
        "curve-csv": (curves / "ids_vgs_low.csv", "DataError",
                      ["features", "--curves", str(curves)]),
        "model": (bad, "DataError", ["extract", "--curves", str(curves), "--model", str(bad)]),
        "dataset": (bad, "DataError", ["train", "--data", str(bad)]),
        "config": (bad, "ConfigError", ["gen", "--n", "10", "--seed", "1", "--config", str(bad)]),
        "params": (bad, "DataError", ["verify", "--params", str(bad), "--model", model]),
    }[reader]
    path.write_bytes((path.read_bytes() if path.exists() else b"{}\n").replace(b"\n", b"\xff\n", 1))
    assert main(argv + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"fetfit: error: {error}: {path}: not UTF-8 text: ")
    assert err.count("\n") == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "100"])  # missing --seed/--out
    assert exc.value.code == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    """paths.out and paths.model were once accepted and never read; the
    refine schedule has one config name, refine."""
    cfg_path = tmp_path / "cfg.json"
    for cfg, message in (({"tempo": 1}, "unknown config key 'tempo'"),
                         ({"paths": {"out": "elsewhere"}}, "unknown key paths.'out'"),
                         ({"paths": {"model": "m.json"}}, "unknown key paths.'model'"),
                         ({"train": {"refine_factors": []}}, "unknown key train.'refine_factors'")):
        cfg_path.write_text(json.dumps(cfg))
        code = main(["gen", "--n", "100", "--seed", "1", "--out", str(tmp_path / "o"),
                     "--config", str(cfg_path)])
        assert code == 3
        assert capsys.readouterr().err.endswith(message + "\n")
        assert not any(p.is_file() for p in (tmp_path / "o").rglob("*"))


GEN = ["gen", "--n", "100", "--seed", "1"]
TRAIN = ["train", "--data", "absent.csv"]
#: How a JSON reader's message starts for text that Python's reader refuses.
UNPARSABLE = "not valid JSON: "


@pytest.mark.parametrize("argv, cfg, field", [
    (GEN, {"ranges": {"PHIG": 4.4}}, "PHIG"),
    (GEN, {"ranges": {"PHIG": ["4.3", "4.6"]}}, "PHIG"),
    (GEN, {"features": {"ss_lo": 1.0, "ss_hi": 0.5}}, "ss_lo"),
    (TRAIN, {"mlp": {"hidden": 64}}, None),
    (TRAIN, {"train": {"refine": 0.1}}, None),
    (TRAIN, {"train": {"batch_size": 2.5}}, "batch_size"),
    (TRAIN, {"train": {"max_epochs": 50.9}}, "max_epochs"),
    (TRAIN, {"mlp": {"seed": 2.9}}, "seed"),
    (TRAIN, {"mlp": {"hidden": [64.7]}}, "layer width"),
    (["features", "--curves", "absent"], {"mlp": {"hidden": 64}}, None),
    (GEN, {"seed": NON_NUMBERS["string"]}, "seed"),
    # the cases below got through, or ended in a traceback, before the config
    # reader checked the seed and the settings checked their numbers themselves:
    (GEN, {"seed": NON_NUMBERS["bool"]}, "seed"),  # gen exited 0
    (GEN, {"seed": -5}, "seed"),  # gen exited 0
    (GEN, {"features": {"i_crit": NON_NUMBERS["huge-int"]}}, "i_crit"),  # an OverflowError
    (GEN, {"features": {"i_crit": NON_NUMBERS["inf"]}}, "i_crit"),  # every device failed
    (TRAIN, {"train": {"learning_rate": NON_NUMBERS["string"]}}, "learning_rate"),
    (TRAIN, {"train": {"learning_rate": NON_NUMBERS["bool"]}}, "learning_rate"),
    # a traceback before: numpy's weight draw refused the width
    (TRAIN, {"mlp": {"hidden": [10**29]}}, "layer width must be <= 4096"),
    # tracebacks before the file was read with errors.read_json, which names
    # the file; these fail before any section is read
    (GEN, {"features": {"i_crit": NON_NUMBERS["5000-digit-int"]}}, UNPARSABLE),
    (GEN, {"features": {"i_crit": NON_NUMBERS["deep-nest"]}}, UNPARSABLE),
], ids=["ranges", "ranges-string-pair", "features", "mlp", "train", "train-batch-size-float",
        "train-max-epochs-float", "mlp-seed-float", "mlp-hidden-float", "section-unused",
        "seed-string", "seed-bool", "seed-negative", "features-huge-int", "features-inf", "train-lr-string",
        "train-lr-bool", "mlp-hidden-over-bound", "features-5000-digit-int", "features-deep-nest"])
def test_malformed_config_section_exits_3(tmp_path, capsys, argv, cfg, field):
    """field: the name the message gives (None: the message names only the
    section; ``UNPARSABLE``: the file is not JSON Python reads)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(cfg))
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out), "--config", str(cfg_path)])
    assert code == 3
    err = capsys.readouterr().err
    reason = UNPARSABLE if field == UNPARSABLE else "bad "
    assert err.startswith(f"fetfit: error: ConfigError: {cfg_path}: {reason}")
    assert field is None or field in err
    assert err.count("\n") == 1 and len(err) < 300
    assert not any(p.is_file() for p in out.rglob("*"))


@pytest.mark.parametrize("name", ["ACV", "VSATV"])
def test_gen_nonpositive_range_of_positive_param_exits_3(tmp_path, capsys, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ranges": {name: [0.0, 0.15]}}))
    out = tmp_path / "out"
    assert main(["gen", "--n", "100", "--seed", "1", "--out", str(out),
                 "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fetfit: error: ConfigError: ") and name in err
    assert err.count("\n") == 1
    assert not any(p.is_file() for p in out.rglob("*"))


def test_gen_threads_setting_is_gone(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"threads": 2}))
    out = tmp_path / "out"
    assert main(["gen", "--n", "100", "--seed", "1", "--out", str(out),
                 "--config", str(cfg_path)]) == 3
    assert "unknown config key 'threads'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["gen", "--n", "100", "--seed", "1", "--out", str(out), "--threads", "2"])
    assert info.value.code == 2


def test_nan_train_setting_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": {"learning_rate": float("nan")}}))
    assert "NaN" in cfg_path.read_text()
    out = tmp_path / "out"
    code = main(["train", "--data", "absent.csv", "--out", str(out),
                 "--config", str(cfg_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("fetfit: error: ConfigError: ")
    assert err.count("\n") == 1
    assert not any(p.is_file() for p in out.rglob("*"))


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "100", "--seed", "-1"],
    ["train", "--data", "absent.csv", "--seed", "-1"],
], ids=["gen", "train"])
def test_negative_seed_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "fetfit: error: ConfigError: seed must be >= 0, got -1\n"
    assert not any(p.is_file() for p in out.rglob("*"))


def test_train_echoes_refine_schedule(tmp_path, trained_dirs):
    gen_dir, _ = trained_dirs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 2, "patience": 1, "refine": [0.1]}}))
    out = tmp_path / "train"
    assert main(["train", "--data", str(gen_dir / "dataset.csv"),
                 "--out", str(out), "--config", str(cfg)]) == 0
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["train"]["refine_factors"] == [0.1]


@pytest.mark.parametrize("command", ["gen", "train", "features", "extract", "verify", "demo"])
def test_failure_removes_partial_outputs(tmp_path, trained_dirs, command):
    """Each command fails after writing its config echo; nothing stays."""
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ranges": {"CGGMAX": [0.6, 0.61], "CGGMIN": [0.55, 0.59]}}))
    empty = tmp_path / "empty"
    empty.mkdir()
    model = str(trained_dirs[1] / "model.json")
    no_val = tmp_path / "no_val.csv"  # loads, then training finds no validation rows
    no_val.write_text((trained_dirs[0] / "dataset.csv").read_text().replace(",val\n", ",train\n"))
    argv = {
        "gen": ["gen", "--n", "100", "--seed", "1", "--config", str(cfg)],
        "train": ["train", "--data", str(no_val)],
        "features": ["features", "--curves", str(empty)],
        "extract": ["extract", "--curves", str(empty), "--model", model],
        "verify": ["verify", "--curves", str(empty), "--model", model],
        "demo": ["demo", "--n", "100", "--devices", "1", "--config", str(cfg)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 3
    assert out.is_dir()
    assert not any(p.is_file() for p in out.rglob("*"))


def test_no_writes_outside_out(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only_here"
    assert main(["gen", "--n", "100", "--seed", "5", "--out", str(out)]) == 0
    assert os.listdir(workdir) == []


#: A non-default config: a top-level seed as the train seed fallback, an
#: integer-valued float setting (echoed as a float) and a refinement stage.
ECHO_CFG = {
    "seed": 4,
    "ranges": {"PHIG": [4.35, 4.55]},
    "features": {"i_crit": 1.5e-7},
    "mlp": {"hidden": [16, 12], "seed": 3},
    "train": {"learning_rate": 0.002, "batch_size": 64, "max_epochs": 3, "patience": 2,
              "eps": 1, "refine": [0.5]},
}

ECHO_SHA256 = {
    "gen": "ec9819167058d5528ddc8fb8b60bfbaf18684427492e6948517de610507a6514",
    "train": "5f13c463f109547295338d5cbd842b8c3e355417a6a1d9579ecbd95b5b4df2ce",
    "verify": "b15ace81e43efcc358e5c2188fa1830137fc84c3d69d9177a4b828f6ffe35757",
}

#: The history meta line holds the best validation loss, whose bits follow
#: the dataset's, so its digest is recorded per CPU dispatch family.
HISTORY_META_SHA256 = {
    "X86_V4": "6dfbf0da6fae0f5b15a1a5c057d78dbc7a1213f8d1795a6616b093c56371f25d",
    "X86_V3": "58eb3d962d4380801726a198c0891e6d866797bc13176a3e492e893c5ea22b85",
}


def test_echo_bytes_golden(tmp_path, monkeypatch):
    """The resolved-config echoes and the history meta line keep their bytes."""
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(ECHO_CFG))
    Path("true.json").write_text(json.dumps(REFERENCE_PARAMS.to_dict()))
    runs = {
        "gen": ["gen", "--n", "120", "--seed", "9"],
        "train": ["train", "--data", "gen/dataset.csv"],
        "verify": ["verify", "--params", "true.json", "--model", "train/model.json"],
    }
    digests = {}
    for name, argv in runs.items():
        assert main(argv + ["--out", name, "--config", "cfg.json"]) == 0
        digests[name] = hashlib.sha256(Path(name, "config_resolved.json").read_bytes()).hexdigest()
    assert digests == ECHO_SHA256
    meta = Path("train", "history.csv").read_text().splitlines()[0]
    assert hashlib.sha256(meta.encode()).hexdigest() == golden(HISTORY_META_SHA256,
                                                               "history meta digest")


def test_extract_and_verify_clip_to_the_model_box(tmp_path):
    """A model trained on wider ranges than the defaults: verify --curves
    without a config clips its prediction to the model's box, as extract
    does, not to the default ranges."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ranges": {"PHIG": [4.30, 4.80], "U0": [0.3, 2.0]},
                               "train": {"max_epochs": 40, "patience": 39, "refine": []}}))
    gen, train = tmp_path / "gen", tmp_path / "train"
    assert main(["gen", "--n", "300", "--seed", "11", "--out", str(gen),
                 "--config", str(cfg)]) == 0
    assert main(["train", "--data", str(gen / "dataset.csv"), "--out", str(train),
                 "--config", str(cfg)]) == 0
    device = tmp_path / "device0"
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS.replace(PHIG=4.75, U0=1.9)), device)
    model = str(train / "model.json")
    assert main(["extract", "--curves", str(device), "--model", model,
                 "--out", str(tmp_path / "ext")]) == 0
    assert main(["verify", "--curves", str(device), "--model", model,
                 "--out", str(tmp_path / "ver")]) == 0
    extracted = json.loads((tmp_path / "ext" / "params.json").read_text())
    verified = json.loads((tmp_path / "ver" / "report.json").read_text())["predicted_params"]
    assert verified == extracted
    assert extracted["PHIG"] > 4.6 or extracted["U0"] > 1.5  # outside the default box
    for run in ("ext", "ver"):  # each echoes the box it clipped to, the model's
        resolved = json.loads((tmp_path / run / "config_resolved.json").read_text())
        assert resolved["ranges"]["PHIG"] == [4.3, 4.8]


def _set_weights(doc, layer, key, values):
    """Store ``values`` as layer ``layer``'s ``key`` array, as a version-2
    model file holds it: base64 of little-endian float64 bytes."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    doc["layers"][layer][key] = base64.b64encode(raw).decode("ascii")


def _weights(doc, layer, key):
    return np.frombuffer(base64.b64decode(doc["layers"][layer][key]), "<f8")


MALFORMED_MODEL = "malformed model file: "


@pytest.mark.parametrize("edit, start, field", [
    (lambda doc: doc["normalizer"]["feat_mean"].pop(), MALFORMED_MODEL, "normalizer.feat_mean"),
    (lambda doc: doc["normalizer"]["param_lo"].pop(), MALFORMED_MODEL, "normalizer.param_lo"),
    (lambda doc: doc["normalizer"]["param_lo"].__setitem__(9, 0.0), MALFORMED_MODEL, "IOFF0"),
    (lambda doc: doc["normalizer"]["feat_std"].__setitem__(0, float("nan")), MALFORMED_MODEL,
     "normalizer.feat_std"),
    (lambda doc: doc["normalizer"]["feature_names"].reverse(), MALFORMED_MODEL, "feature names"),
    # the model loaded with each of the values below before it checked its
    # arrays; the NaN weight made extract fail later, without naming the
    # model file
    (lambda doc: doc["normalizer"]["feat_mean"].__setitem__(0, NON_NUMBERS["string"]),
     MALFORMED_MODEL, "normalizer.feat_mean"),
    (lambda doc: _set_weights(doc, 0, "W", np.where(
        np.arange(24 * 128) == 5, np.nan, _weights(doc, 0, "W"))),
     MALFORMED_MODEL, "layers[0].W must be finite, got nan"),
    (lambda doc: doc["layers"][1].__setitem__("b", NON_NUMBERS["string"]), MALFORMED_MODEL,
     "layers[1].b is not valid base64"),
    (lambda doc: doc["layers"][1].__setitem__("b", NON_NUMBERS["huge-int"]), MALFORMED_MODEL,
     "layers[1].b must be a base64 string"),
    (lambda doc: doc["layers"][1].__setitem__("b", [0.0] * 96), MALFORMED_MODEL,
     "layers[1].b must be a base64 string"),  # as a version-1 file holds it
    (lambda doc: doc["layers"][1].__setitem__("b", doc["layers"][1]["b"][:-1]), MALFORMED_MODEL,
     "layers[1].b is not valid base64"),
    (lambda doc: _set_weights(doc, 1, "b", _weights(doc, 1, "b")[:-1]), MALFORMED_MODEL,
     "layers[1].b must hold 96 float64 values"),
    (lambda doc: _set_weights(doc, 4, "W", np.full(44 * 14, np.inf)), MALFORMED_MODEL,
     "layers[4].W must be finite, got inf"),
    (lambda doc: doc["mlp"]["widths"].__setitem__(1, 5000), MALFORMED_MODEL,
     "layer width must be <= 4096"),
    (lambda doc: doc.__setitem__("version", 1), "model version 1 unsupported", "retrain"),
    # tracebacks before the file was read with errors.read_json
    (lambda doc: doc["normalizer"]["feat_mean"].__setitem__(0, NON_NUMBERS["5000-digit-int"]),
     UNPARSABLE, "more than 4300 digits"),
    (lambda doc: doc["normalizer"].__setitem__("feat_mean", NON_NUMBERS["deep-nest"]),
     UNPARSABLE, "nested too deeply"),
], ids=["23-feat-mean", "13-param-lo", "ioff0-lo-zero", "nan-feat-std", "feature-names",
        "string-feat-mean", "nan-weight", "string-bias", "huge-int-bias", "list-bias",
        "cut-base64", "short-bias", "inf-weights", "width-over-bound", "version-1",
        "5000-digit-int", "deep-nest"])
def test_malformed_model_normalizer_exits_3(tmp_path, capsys, trained_dirs, edit, start, field):
    """start: how the message goes on after the file name; field: what
    else it names."""
    doc = json.loads((trained_dirs[1] / "model.json").read_text())
    edit(doc)
    model, out, device = tmp_path / "model.json", tmp_path / "out", tmp_path / "device0"
    model.write_text(dumps(doc))
    write_curveset_dir(simulate_curveset(REFERENCE_PARAMS), device)
    assert main(["extract", "--curves", str(device), "--model", str(model),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"fetfit: error: DataError: {model}: {start}")
    assert field in err
    assert err.count("\n") == 1 and len(err) < 300
    assert not any(p.is_file() for p in out.rglob("*"))


@pytest.mark.parametrize("value, named", [
    ("abc", "PHIG"), (None, "PHIG"), ([1], "PHIG"), (True, "PHIG"), ("missing", "PHIG"),
    (NON_NUMBERS["huge-int"], "PHIG"),  # a traceback before
    # tracebacks before the file was read with errors.read_json
    (NON_NUMBERS["5000-digit-int"], UNPARSABLE), (NON_NUMBERS["deep-nest"], UNPARSABLE),
], ids=["string", "null", "list", "bool", "missing-key", "huge-int", "5000-digit-int",
        "deep-nest"])
def test_malformed_params_file_exits_3(tmp_path, capsys, trained_dirs, value, named):
    doc = REFERENCE_PARAMS.to_dict()
    if value == "missing":
        del doc["PHIG"]
    else:
        doc["PHIG"] = value
    params, out = tmp_path / "true.json", tmp_path / "out"
    params.write_text(dumps(doc))
    assert main(["verify", "--params", str(params), "--model",
                 str(trained_dirs[1] / "model.json"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"fetfit: error: DataError: {params}: ") and named in err
    assert err.count("\n") == 1 and len(err) < 300
    assert not any(p.is_file() for p in out.rglob("*"))


@pytest.mark.parametrize("edit", [
    lambda meta: {k: v for k, v in meta.items() if k != "seed"},
    lambda meta: {**meta, "seed": "x"},
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": "ab"}},
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": [4.6, 4.3]}},
    lambda meta: [],
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": {}}},
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": "45"}},
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": [4.3, 4.6, 9.9]}},
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": [True, 4.6]}},
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": ["4.3", "4.6"]}},
    # an OverflowError traceback before the bounds were checked with require_number
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": [NON_NUMBERS["huge-int"], 4.6]}},
    # tracebacks before the meta line was read with errors.parse_json
    lambda meta: {**meta, "ranges": {**meta["ranges"],
                                     "PHIG": [NON_NUMBERS["5000-digit-int"], 4.6]}},
    lambda meta: {**meta, "ranges": {**meta["ranges"], "PHIG": NON_NUMBERS["deep-nest"]}},
], ids=["no-seed", "string-seed", "string-range", "inverted-range", "not-an-object",
        "object-range", "digit-string-range", "triple-range", "bool-range", "string-pair-range",
        "huge-int-range", "5000-digit-int-range", "deep-nest-range"])
def test_malformed_dataset_meta_exits_3(tmp_path, capsys, trained_dirs, edit):
    meta_line, *rest = (trained_dirs[0] / "dataset.csv").read_text().splitlines()
    data, out = tmp_path / "dataset.csv", tmp_path / "out"
    meta = edit(json.loads(meta_line[len("# meta "):]))
    data.write_text("\n".join(["# meta " + dumps(meta)] + rest) + "\n")
    assert main(["train", "--data", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"fetfit: error: DataError: {data}: ") and "meta line" in err
    assert err.count("\n") == 1 and len(err) < 300
    assert not any(p.is_file() for p in out.rglob("*"))
