"""CLI contract tests on reduced-scale runs."""

import json
import os

import numpy as np
import pytest

from fetfit.cli import main
from fetfit.curve_io import write_curveset_dir
from fetfit.device import simulate_curveset
from fetfit.features import FEATURE_NAMES, FeatureConfig, featurize
from fetfit.params import REFERENCE_PARAMS

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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "100"])  # missing --seed/--out
    assert exc.value.code == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tempo": 1}))
    code = main(["gen", "--n", "100", "--seed", "1", "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    assert code == 3


@pytest.mark.parametrize("argv, cfg", [
    (["gen", "--n", "100", "--seed", "1"], {"ranges": {"PHIG": 4.4}}),
    (["gen", "--n", "100", "--seed", "1"], {"features": {"ss_lo": 1.0, "ss_hi": 0.5}}),
    (["train", "--data", "absent.csv"], {"mlp": {"hidden": 64}}),
    (["train", "--data", "absent.csv"], {"train": {"refine": 0.1}}),
], ids=["ranges", "features", "mlp", "train"])
def test_malformed_config_section_exits_3(tmp_path, capsys, argv, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out), "--config", str(cfg_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("fetfit: error: ConfigError: bad ")
    assert err.count("\n") == 1
    assert not any(p.is_file() for p in out.rglob("*"))


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


def test_train_echoes_refine_schedule(tmp_path, trained_dirs):
    gen_dir, _ = trained_dirs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 2, "patience": 1, "refine": [0.1]}}))
    out = tmp_path / "train"
    assert main(["train", "--data", str(gen_dir / "dataset.csv"),
                 "--out", str(out), "--config", str(cfg)]) == 0
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["train"]["refine_factors"] == [0.1]


def test_failure_removes_partial_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ranges": {"CGGMAX": [0.6, 0.61], "CGGMIN": [0.55, 0.59]}}))
    code = main(["gen", "--n", "100", "--seed", "1", "--out", str(out), "--config", str(cfg)])
    assert code == 3
    assert not (out / "dataset.csv").exists()
    assert not (out / "config_resolved.json").exists()


def test_no_writes_outside_out(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only_here"
    assert main(["gen", "--n", "100", "--seed", "5", "--out", str(out)]) == 0
    assert os.listdir(workdir) == []
