"""Command-line front end for the extraction pipeline.

Subcommands: gen, train, features, extract, verify, demo. Every command
writes only inside its --out directory and echoes the fully resolved
configuration there; partially written outputs are removed on failure.

Exit codes: 0 success, 2 usage error, 3 data/config error, 4 demo
acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import ann, curve_io, dataset, svg, verify
from .device import CurveKind, simulate_curveset, simulate_ids_vds
from .errors import (ConfigError, DataError, ExtractionError, FetfitError, InvalidParameterError,
                     read_json, require_int)
from .features import FEATURE_NAMES, FeatureConfig, featurize
from .params import DEFAULT_RANGES, PARAM_NAMES, REFERENCE_PARAMS, ModelParams, ParamRanges

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ACCEPTANCE = 4

DEMO_GEN_SEED = 101
DEMO_TRAIN_SEED = 202
DEMO_N = 25000
DEMO_DEVICES = 200

#: Config sections, each a JSON object; the one other top-level key is ``seed``.
_CONFIG_SECTIONS = ("ranges", "features", "mlp", "train", "paths")
#: Config keys that name a settings field differently.
_ALIASES = {"refine": "refine_factors"}
_FEATURE_KEYS = {f.name for f in fields(FeatureConfig)}
_MLP_KEYS = {"hidden", "seed"}
_TRAIN_KEYS = {f.name for f in fields(ann.TrainConfig)} - set(_ALIASES.values()) | set(_ALIASES)
_PATH_KEYS = {"dataset"}


class Outputs:
    """Tracks files written by one command so they can be removed if the
    command fails partway."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.created: list[Path] = []

    def path(self, *parts) -> Path:
        p = self.out_dir.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        self.created.append(p)
        return p

    def cleanup(self):
        for p in reversed(self.created):
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def load_config(path) -> dict:
    if path is None:
        return {}
    cfg = read_json(path, ConfigError)
    for key, value in cfg.items():
        if key == "seed":
            continue  # checked with the sections below
        if key not in _CONFIG_SECTIONS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: {key} must be dict")
    for section, allowed in (("features", _FEATURE_KEYS), ("mlp", _MLP_KEYS),
                             ("train", _TRAIN_KEYS), ("paths", _PATH_KEYS)):
        for k in cfg.get(section, {}):
            if k not in allowed:
                raise ConfigError(f"{path}: unknown key {section}.{k!r}")
    try:  # every section is checked here, where the error can name the file
        with _config_section("seed"):
            require_int("seed", cfg.get("seed", 0), minimum=0)
        resolve_ranges(cfg), resolve_feature_cfg(cfg), resolve_mlp_cfg(cfg), resolve_train_cfg(cfg)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


@contextmanager
def _config_section(section: str):
    """Report a malformed value in one config section as a ConfigError."""
    try:
        yield
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section!r} config: {exc}") from exc


def _settings(cls, section: str, cfg: dict):
    """The settings dataclass ``cls`` from one config section. Every value
    goes to the constructor as given, and the constructor checks it."""
    with _config_section(section):
        return cls(**{_ALIASES.get(k, k): v for k, v in cfg.get(section, {}).items()})


def resolve_ranges(cfg: dict) -> ParamRanges:
    with _config_section("ranges"):
        return ParamRanges.from_dict({**DEFAULT_RANGES.to_dict(), **cfg.get("ranges", {})})


def resolve_feature_cfg(cfg: dict) -> FeatureConfig:
    return _settings(FeatureConfig, "features", cfg)


def resolve_mlp_cfg(cfg: dict) -> ann.MLPConfig:
    section = cfg.get("mlp", {})
    with _config_section("mlp"):
        hidden = section.get("hidden", ann.DEFAULT_HIDDEN)
        return ann.MLPConfig(widths=(len(FEATURE_NAMES), *hidden, len(PARAM_NAMES)),
                             seed=section.get("seed", 0))


def resolve_train_cfg(cfg: dict, seed_flag=None) -> ann.TrainConfig:
    tcfg = _settings(ann.TrainConfig, "train", cfg)
    return tcfg if seed_flag is None else replace(tcfg, seed=seed_flag)


def echo_config(out: Outputs, command: str, cfg: dict, extras: dict,
                ranges: ParamRanges | None = None):
    """Write config_resolved.json: the command, its feature settings, the
    box it uses (none for a command that uses none) and ``extras``."""
    resolved = {"command": command, "features": asdict(resolve_feature_cfg(cfg)), **extras}
    if ranges is not None:
        resolved["ranges"] = ranges.to_dict()
    _write_json(out.path("config_resolved.json"), resolved, sort_keys=True)


def _write_json(path, doc, sort_keys=False):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def read_params_file(path) -> ModelParams:
    doc = read_json(path)
    try:
        return ModelParams.from_dict(doc)
    except InvalidParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc


@contextmanager
def _naming(directory):
    """Prefix a data or extraction error, such as a grid off the default
    sweeps, with the curve directory it came from (None: no directory)."""
    try:
        yield
    except (DataError, ExtractionError) as exc:
        if directory is None:
            raise
        raise type(exc)(f"{directory}: {exc}") from exc


def _generate(out: Outputs, n: int, seed: int, ranges: ParamRanges, fcfg: FeatureConfig):
    """Build and save a dataset; returns it with the wall time taken."""
    t0 = time.perf_counter()
    ds = dataset.build_dataset(n, seed=seed, ranges=ranges, feature_cfg=fcfg)
    dataset.save_dataset(ds, out.path("dataset.csv"))
    return ds, time.perf_counter() - t0


def _train(out: Outputs, ds, mcfg: ann.MLPConfig, tcfg: ann.TrainConfig):
    """Fit the normalizer, train, and save the model and the history;
    returns (weights, normalizer, history, training wall time)."""
    norm = dataset.fit_normalizer(ds)
    t0 = time.perf_counter()
    w, history = ann.train(ds, norm, mcfg, tcfg)
    wall = time.perf_counter() - t0
    ann.save_model(out.path("model.json"), w, norm, mcfg)
    ann.write_history_csv(history, out.path("history.csv"))
    return w, norm, history, wall


# ---- subcommands ----

def cmd_gen(args, cfg: dict, out: Outputs) -> int:
    ranges = resolve_ranges(cfg)
    echo_config(out, "gen", cfg, {"n": args.n, "seed": args.seed}, ranges)
    _, wall = _generate(out, args.n, args.seed, ranges, resolve_feature_cfg(cfg))
    print(f"generated {args.n} devices in {wall:.2f} s -> {out.out_dir / 'dataset.csv'}")
    return EXIT_OK


def cmd_train(args, cfg: dict, out: Outputs) -> int:
    data_path = args.data or cfg.get("paths", {}).get("dataset")
    if not data_path:
        raise ConfigError("no dataset: pass --data or set paths.dataset in the config")
    mcfg = resolve_mlp_cfg(cfg)
    seed_flag = args.seed
    if seed_flag is None and "seed" not in cfg.get("train", {}):
        seed_flag = cfg.get("seed")  # top-level seed as fallback
    tcfg = resolve_train_cfg(cfg, seed_flag=seed_flag)
    ds = dataset.load_dataset(data_path)
    echo_config(out, "train", cfg, {
        "data": str(data_path),
        "mlp": {"widths": list(mcfg.widths), "seed": mcfg.seed},
        "train": asdict(tcfg),
    }, ds.ranges)
    _, _, history, wall = _train(out, ds, mcfg, tcfg)
    print(f"trained {history.meta['trained_epochs']} epochs in {wall:.2f} s; "
          f"best val loss {history.meta['best_val_loss']:.3e}")
    return EXIT_OK


def _discover_devices(curves_dir: Path) -> list:
    """A device is a directory of curve CSVs: either the given directory
    itself or each of its immediate subdirectories."""
    curves_dir = Path(curves_dir)
    if not curves_dir.is_dir():
        raise DataError(f"{curves_dir}: not a directory")
    if any(curves_dir.glob("*.csv")):
        return [(curves_dir.name, curves_dir)]
    devices = [(d.name, d) for d in sorted(curves_dir.iterdir())
               if d.is_dir() and any(d.glob("*.csv"))]
    if not devices:
        raise DataError(f"{curves_dir}: no curve CSVs found")
    return devices


def cmd_features(args, cfg: dict, out: Outputs) -> int:
    fcfg = resolve_feature_cfg(cfg)
    echo_config(out, "features", cfg, {"curves": str(args.curves)})
    lines = ["device," + ",".join(FEATURE_NAMES)]
    row_fmt = "%s" + ",%.17g" * len(FEATURE_NAMES)
    for name, directory in _discover_devices(args.curves):
        cs = curve_io.read_curveset_dir(directory)
        with _naming(directory):
            vec = featurize(cs, fcfg)
        lines.append(row_fmt % (name, *vec.tolist()))
    out.path("features.csv").write_text("\n".join(lines) + "\n")
    print(f"extracted features for {len(lines) - 1} device(s) -> {out.out_dir / 'features.csv'}")
    return EXIT_OK


def cmd_extract(args, cfg: dict, out: Outputs) -> int:
    fcfg = resolve_feature_cfg(cfg)
    w, norm, _ = ann.load_model(args.model)
    echo_config(out, "extract", cfg, {"curves": str(args.curves), "model": str(args.model)},
                norm.param_ranges)
    cs = curve_io.read_curveset_dir(args.curves)
    with _naming(args.curves):
        fv = featurize(cs, fcfg)
    params = ann.predict_params(w, norm, fv)
    _write_json(out.path("params.json"), params.to_dict())
    print(f"extracted 14 parameters -> {out.out_dir / 'params.json'}")
    return EXIT_OK


#: Gate biases of the output-characteristic family plotted by cmd_verify.
OUTPUT_FAMILY_VGS = (0.5, 0.6, 0.7)

#: x label, y label and log y axis of an overlay plot, per curve kind.
_PLOT_AXES = {
    CurveKind.IDS_VGS: ("Vgs (V)", "Ids (A)", True),
    CurveKind.CGG_VGS: ("Vgs (V)", "Cgg (fF)", False),
    CurveKind.GM_VGS: ("Vgs (V)", "Gm (A/V)", False),
    CurveKind.IDS_VDS: ("Vds (V)", "Ids (A)", True),
}


def _write_overlays(out: Outputs, rows, subdir=""):
    """An overlay CSV and an SVG plot per (label, target, predicted) row."""
    for label, tgt, pred in rows:
        curve_io.write_overlay_csv(tgt, pred, out.path(subdir, "overlays", f"{label}.csv"))
        x_label, y_label, log_y = _PLOT_AXES[tgt.kind]
        bias, value = ("Vgs", tgt.vgs) if tgt.kind is CurveKind.IDS_VDS else ("Vds", tgt.vds)
        held = f"{bias}={value:g} V" if value is not None else ""
        svg.write_overlay_svg(
            out.path(subdir, "plots", f"{label}.svg"), tgt.x, tgt.y, pred.y,
            title=f"{tgt.kind.value} {held} (rms {verify.rms_percent(pred, tgt):.3g}%)",
            x_label=x_label, y_label=y_label, log_y=log_y,
        )


def _report_rows(report, target) -> list:
    """Overlay rows of the five reported curves of a round trip."""
    pred_cs = simulate_curveset(report.predicted)
    return [(label, tgt, pred) for label, pred, tgt in verify._report_pairs(pred_cs, target)]


def cmd_verify(args, cfg: dict, out: Outputs) -> int:
    if args.variability and not args.params:
        raise ConfigError("--variability needs --params (true base parameters)")
    fcfg = resolve_feature_cfg(cfg)
    w, norm, _ = ann.load_model(args.model)
    echo_config(out, "verify", cfg, {
        "curves": str(args.curves) if args.curves else None,
        "params": str(args.params) if args.params else None,
        "model": str(args.model), "variability": bool(args.variability),
    }, norm.param_ranges)
    if args.variability:
        base = read_params_file(args.params)
        reports = verify.variability_suite(base, w, norm, cfg=fcfg)
        doc = {
            "reports": [r.to_dict() for r in reports],
            "average_rms_percent": verify.aggregate_curve_errors(reports),
        }
        for r in reports:
            _write_overlays(out, _report_rows(r, simulate_curveset(r.true_params)),
                            subdir=f"knob_lg{r.knobs[0]:g}_eot{r.knobs[1]:g}")
        _write_json(out.path("report.json"), doc)
        print("variability suite: average rms% per curve:",
              json.dumps(doc["average_rms_percent"], sort_keys=True))
        return EXIT_OK

    if args.params:
        true_params = read_params_file(args.params)
        target = simulate_curveset(true_params)
    else:
        true_params = None
        target = curve_io.read_curveset_dir(args.curves)
    with _naming(args.curves):
        report = verify.round_trip(target, w, norm, true_params=true_params, cfg=fcfg)
    _write_json(out.path("report.json"), report.to_dict())
    rows = _report_rows(report, target)
    if true_params is not None:  # the output-characteristic family
        rows += [(f"ids_vds_vgs{ct.vgs:g}", ct, cp) for ct, cp in zip(
            simulate_ids_vds(true_params, OUTPUT_FAMILY_VGS),
            simulate_ids_vds(report.predicted, OUTPUT_FAMILY_VGS))]
    _write_overlays(out, rows)
    for ce in report.curve_errors:
        sub = ("" if ce.subthreshold_rms_percent is None
               else f"  subthreshold {ce.subthreshold_rms_percent:.4g}%")
        print(f"{ce.label:9s} rms {ce.rms_percent:.4g}%{sub}")
    return EXIT_OK


def cmd_demo(args, cfg: dict, out: Outputs) -> int:
    ranges = resolve_ranges(cfg)
    echo_config(out, "demo", cfg, {
        "n": args.n, "devices": args.devices,
        "gen_seed": DEMO_GEN_SEED, "train_seed": DEMO_TRAIN_SEED,
    }, ranges)
    fcfg = resolve_feature_cfg(cfg)
    mcfg = resolve_mlp_cfg(cfg)
    tcfg = resolve_train_cfg(cfg, seed_flag=DEMO_TRAIN_SEED)

    print(f"[1/4] generating {args.n} devices (seed {DEMO_GEN_SEED})")
    ds, gen_wall = _generate(out, args.n, DEMO_GEN_SEED, ranges, fcfg)
    print(f"      {gen_wall:.1f} s")

    print("[2/4] training the extractor")
    w, norm, history, train_wall = _train(out, ds, mcfg, tcfg)
    print(f"      {history.meta['trained_epochs']} epochs, {train_wall:.1f} s, "
          f"best val loss {history.meta['best_val_loss']:.3e}")

    print(f"[3/4] round-tripping {args.devices} held-out devices")
    _, medians = verify.holdout_round_trip(ds, norm, w, n_devices=args.devices, cfg=fcfg)

    print("[4/4] variability suite on the reference device")
    var_reports = verify.variability_suite(REFERENCE_PARAMS, w, norm, cfg=fcfg)
    var_avg = verify.aggregate_curve_errors(var_reports[1:])  # the four knob settings

    checks = [(f"median {label}", medians[label], limit)
              for label, limit in verify.ROUND_TRIP_LIMITS.items()]
    checks += [(f"variability avg {label}", var_avg[label],
                verify.VARIABILITY_FACTOR * medians[label]) for label in verify.REPORT_CURVES]
    rows = [(name, value, limit, value <= limit) for name, value, limit in checks]
    ok = all(r[3] for r in rows)

    print(f"\n{'check':28s} {'value':>10s} {'limit':>10s}  result")
    for name, value, limit, passed in rows:
        print(f"{name:28s} {value:9.3f}% {limit:9.3f}%  {'PASS' if passed else 'FAIL'}")

    summary = {
        "gen_seconds": gen_wall,
        "train_seconds": train_wall,
        "trained_epochs": history.meta["trained_epochs"],
        "best_val_loss": history.meta["best_val_loss"],
        "round_trip_medians": medians,
        "variability_average": var_avg,
        "checks": [{"name": r[0], "value": r[1], "limit": r[2], "pass": bool(r[3])}
                   for r in rows],
        "pass": bool(ok),
    }
    _write_json(out.path("summary.json"), summary)
    print(f"\ndemo {'PASSED' if ok else 'FAILED'}; summary -> {out.out_dir / 'summary.json'}")
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetfit",
        description="Feature-based compact-model parameter extraction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a Monte Carlo training dataset")
    p.add_argument("--n", type=int, required=True, help="number of devices")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train the parameter-extraction network")
    p.add_argument("--data", help="dataset CSV from 'gen'")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, help="training seed override")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("features", help="extract the 24 curve features")
    p.add_argument("--curves", required=True, help="device directory (or directory of devices)")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("extract", help="predict compact-model parameters from curves")
    p.add_argument("--curves", required=True)
    p.add_argument("--model", required=True, help="model file from 'train'")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("verify", help="round-trip verification with overlays and plots")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--curves", help="target curve directory")
    src.add_argument("--params", help="true parameter JSON (target is simulated)")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variability", action="store_true",
                   help="run the five-set process-variability suite")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("demo", help="full pipeline run with pass/fail summary")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=DEMO_N,
                   help=f"dataset size (default {DEMO_N})")
    p.add_argument("--devices", type=int, default=DEMO_DEVICES,
                   help=f"held-out devices to verify (default {DEMO_DEVICES})")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Outputs(args.out)
        try:
            return args.fn(args, cfg, out)
        except BaseException:
            out.cleanup()
            raise
    except (FetfitError, OSError) as exc:
        print(f"fetfit: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
