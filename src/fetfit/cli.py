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
from pathlib import Path

from . import ann, curve_io, dataset, svg, verify
from .device import CurveKind, simulate_curveset, simulate_ids_vds
from .errors import ConfigError, DataError, FetfitError
from .features import FEATURE_NAMES, FeatureConfig, featurize
from .params import DEFAULT_RANGES, PARAM_NAMES, ModelParams, ParamRanges

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ACCEPTANCE = 4

DEMO_GEN_SEED = 101
DEMO_TRAIN_SEED = 202
DEMO_N = 25000
DEMO_DEVICES = 200

_CONFIG_SECTIONS = {
    "seed": int,
    "threads": int,
    "ranges": dict,
    "features": dict,
    "mlp": dict,
    "train": dict,
    "paths": dict,
}
_FEATURE_KEYS = {"i_crit", "ss_lo", "ss_hi"}
_MLP_KEYS = {"hidden", "seed"}
_TRAIN_KEYS = {"learning_rate", "batch_size", "max_epochs", "patience",
               "beta1", "beta2", "eps", "seed", "refine"}
_PATH_KEYS = {"dataset", "model", "out"}


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
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for key, value in cfg.items():
        if key not in _CONFIG_SECTIONS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if not isinstance(value, _CONFIG_SECTIONS[key]):
            raise ConfigError(f"{path}: {key} must be {_CONFIG_SECTIONS[key].__name__}")
    for section, allowed in (("features", _FEATURE_KEYS), ("mlp", _MLP_KEYS),
                             ("train", _TRAIN_KEYS), ("paths", _PATH_KEYS)):
        for k in cfg.get(section, {}):
            if k not in allowed:
                raise ConfigError(f"{path}: unknown key {section}.{k!r}")
    for k in cfg.get("ranges", {}):
        if k not in PARAM_NAMES:
            raise ConfigError(f"{path}: unknown parameter in ranges: {k!r}")
    return cfg


@contextmanager
def _config_section(section: str):
    """Report a malformed value in one config section as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section!r} config: {exc}") from exc


def resolve_ranges(cfg: dict) -> ParamRanges:
    overrides = cfg.get("ranges", {})
    if not overrides:
        return DEFAULT_RANGES
    merged = DEFAULT_RANGES.to_dict()
    with _config_section("ranges"):
        for k, v in overrides.items():
            if not isinstance(v, list) or len(v) != 2:
                raise ConfigError(f"bad 'ranges' config: {k} must be a [lo, hi] pair, got {v!r}")
            merged[k] = [float(v[0]), float(v[1])]
    return ParamRanges.from_dict(merged)


def resolve_feature_cfg(cfg: dict) -> FeatureConfig:
    with _config_section("features"):
        kw = {k: float(v) for k, v in cfg.get("features", {}).items()}
        return FeatureConfig(**kw)


def resolve_mlp_cfg(cfg: dict) -> ann.MLPConfig:
    section = cfg.get("mlp", {})
    with _config_section("mlp"):
        hidden = tuple(int(v) for v in section.get("hidden", ann.DEFAULT_HIDDEN))
        seed = int(section.get("seed", 0))
    return ann.MLPConfig(widths=(len(FEATURE_NAMES), *hidden, len(PARAM_NAMES)), seed=seed)


def resolve_train_cfg(cfg: dict, seed_flag=None) -> ann.TrainConfig:
    section = dict(cfg.get("train", {}))
    if seed_flag is not None:
        section["seed"] = seed_flag
    kw = {}
    with _config_section("train"):
        for k, v in section.items():
            if k == "refine":
                kw["refine_factors"] = tuple(float(x) for x in v)
            elif k in ("batch_size", "max_epochs", "patience", "seed"):
                kw[k] = int(v)
            else:
                kw[k] = float(v)
    return ann.TrainConfig(**kw)


def echo_config(out: Outputs, command: str, cfg: dict, extras: dict):
    fc = resolve_feature_cfg(cfg)
    resolved = {
        "command": command,
        "ranges": resolve_ranges(cfg).to_dict(),
        "features": {"i_crit": fc.i_crit, "ss_lo": fc.ss_lo, "ss_hi": fc.ss_hi},
    }
    resolved.update(extras)
    with open(out.path("config_resolved.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_params_file(path) -> ModelParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: parameter file must be a JSON object")
    return ModelParams.from_dict(doc)


def write_params_file(params: ModelParams, path):
    with open(path, "w") as fh:
        json.dump(params.to_dict(), fh, indent=2)
        fh.write("\n")


# ---- subcommands ----

def cmd_gen(args) -> int:
    cfg = load_config(args.config)
    out = Outputs(args.out)
    try:
        ranges = resolve_ranges(cfg)
        fcfg = resolve_feature_cfg(cfg)
        threads = args.threads if args.threads else int(cfg.get("threads", 1))
        echo_config(out, "gen", cfg, {"n": args.n, "seed": args.seed, "threads": threads})
        t0 = time.perf_counter()
        ds = dataset.build_dataset(args.n, seed=args.seed, ranges=ranges,
                                   feature_cfg=fcfg, threads=threads)
        dataset.save_dataset(ds, out.path("dataset.csv"))
        wall = time.perf_counter() - t0
        print(f"generated {args.n} devices in {wall:.2f} s -> {out.out_dir / 'dataset.csv'}")
        return EXIT_OK
    except BaseException:
        out.cleanup()
        raise


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = Outputs(args.out)
    try:
        data_path = args.data or cfg.get("paths", {}).get("dataset")
        if not data_path:
            raise ConfigError("no dataset: pass --data or set paths.dataset in the config")
        mcfg = resolve_mlp_cfg(cfg)
        seed_flag = args.seed
        if seed_flag is None and "seed" not in cfg.get("train", {}):
            seed_flag = cfg.get("seed")  # top-level seed as fallback
        tcfg = resolve_train_cfg(cfg, seed_flag=seed_flag)
        echo_config(out, "train", cfg, {
            "data": str(data_path),
            "mlp": {"widths": list(mcfg.widths), "seed": mcfg.seed},
            "train": {k: getattr(tcfg, k) for k in
                      ("learning_rate", "batch_size", "max_epochs", "patience",
                       "beta1", "beta2", "eps", "seed", "refine_factors")},
        })
        ds = dataset.load_dataset(data_path)
        norm = dataset.fit_normalizer(ds)
        t0 = time.perf_counter()
        w, history = ann.train(ds, norm, mcfg, tcfg)
        wall = time.perf_counter() - t0
        ann.save_model(out.path("model.json"), w, norm, mcfg)
        ann.write_history_csv(history, out.path("history.csv"))
        print(f"trained {history.meta['trained_epochs']} epochs in {wall:.2f} s; "
              f"best val loss {history.meta['best_val_loss']:.3e}")
        return EXIT_OK
    except BaseException:
        out.cleanup()
        raise


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


def cmd_features(args) -> int:
    cfg = load_config(args.config)
    out = Outputs(args.out)
    try:
        fcfg = resolve_feature_cfg(cfg)
        echo_config(out, "features", cfg, {"curves": str(args.curves)})
        rows = []
        for name, directory in _discover_devices(args.curves):
            cs = curve_io.read_curveset_dir(directory)
            rows.append((name, featurize(cs, fcfg)))
        lines = ["device," + ",".join(FEATURE_NAMES)]
        for name, vec in rows:
            lines.append(name + "," + ",".join("%.17g" % v for v in vec))
        out.path("features.csv").write_text("\n".join(lines) + "\n")
        print(f"extracted features for {len(rows)} device(s) -> {out.out_dir / 'features.csv'}")
        return EXIT_OK
    except BaseException:
        out.cleanup()
        raise


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    out = Outputs(args.out)
    try:
        fcfg = resolve_feature_cfg(cfg)
        echo_config(out, "extract", cfg, {"curves": str(args.curves), "model": str(args.model)})
        w, norm, _ = ann.load_model(args.model)
        cs = curve_io.read_curveset_dir(args.curves)
        params = ann.predict_params(w, norm, featurize(cs, fcfg))
        write_params_file(params, out.path("params.json"))
        print(f"extracted 14 parameters -> {out.out_dir / 'params.json'}")
        return EXIT_OK
    except BaseException:
        out.cleanup()
        raise


def _emit_overlays(out: Outputs, report, target_cs, subdir=""):
    pred_cs = simulate_curveset(report.predicted)
    pairs = {
        "cgg": (target_cs.cgg_low, pred_cs.cgg_low, False),
        "ids_low": (target_cs.ids_low, pred_cs.ids_low, True),
        "ids_high": (target_cs.ids_high, pred_cs.ids_high, True),
        "gm_low": (target_cs.gm_low(), pred_cs.gm_low(), False),
        "gm_high": (target_cs.gm_high(), pred_cs.gm_high(), False),
    }
    for label, (tgt, pred, log_y) in pairs.items():
        curve_io.write_overlay_csv(tgt, pred, out.path(subdir, "overlays", f"{label}.csv"))
        unit = {CurveKind.IDS_VGS: "Ids (A)", CurveKind.CGG_VGS: "Cgg (fF)",
                CurveKind.GM_VGS: "Gm (A/V)"}[tgt.kind]
        bias = f"Vds={tgt.vds:g} V" if tgt.vds is not None else ""
        svg.write_overlay_svg(
            out.path(subdir, "plots", f"{label}.svg"),
            tgt.x, tgt.y, pred.y,
            title=f"{tgt.kind.value} {bias} (rms {report.error(label).rms_percent:.3g}%)",
            x_label="Vgs (V)", y_label=unit, log_y=log_y,
        )


#: Gate biases of the output-characteristic family plotted by cmd_verify.
OUTPUT_FAMILY_VGS = (0.5, 0.6, 0.7)


def _emit_output_family(out: Outputs, report):
    """Ids-Vds overlays at fixed gate biases; needs known true parameters."""
    fam_true = simulate_ids_vds(report.true_params, OUTPUT_FAMILY_VGS)
    fam_pred = simulate_ids_vds(report.predicted, OUTPUT_FAMILY_VGS)
    for ct, cp in zip(fam_true, fam_pred):
        label = f"ids_vds_vgs{ct.vgs:g}"
        curve_io.write_overlay_csv(ct, cp, out.path("overlays", f"{label}.csv"))
        svg.write_overlay_svg(
            out.path("plots", f"{label}.svg"), ct.x, ct.y, cp.y,
            title=f"IdsVds Vgs={ct.vgs:g} V (rms {verify.rms_percent(cp, ct):.3g}%)",
            x_label="Vds (V)", y_label="Ids (A)", log_y=True,
        )


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out = Outputs(args.out)
    try:
        if args.variability and not args.params:
            raise ConfigError("--variability needs --params (true base parameters)")
        fcfg = resolve_feature_cfg(cfg)
        ranges = resolve_ranges(cfg)
        echo_config(out, "verify", cfg, {
            "curves": str(args.curves) if args.curves else None,
            "params": str(args.params) if args.params else None,
            "model": str(args.model), "variability": bool(args.variability),
        })
        w, norm, _ = ann.load_model(args.model)
        if args.variability:
            base = read_params_file(args.params)
            reports = verify.variability_suite(base, w, norm, cfg=fcfg, ranges=ranges)
            doc = {
                "reports": [r.to_dict() for r in reports],
                "average_rms_percent": verify.aggregate_curve_errors(reports),
            }
            for r in reports:
                knob_dir = f"knob_lg{r.knobs[0]:g}_eot{r.knobs[1]:g}"
                true_cs = simulate_curveset(r.true_params)
                _emit_overlays(out, r, true_cs, subdir=knob_dir)
            with open(out.path("report.json"), "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            print("variability suite: average rms% per curve:",
                  json.dumps(doc["average_rms_percent"], sort_keys=True))
            return EXIT_OK

        if args.params:
            true_params = read_params_file(args.params)
            target = simulate_curveset(true_params)
        else:
            true_params = None
            target = curve_io.read_curveset_dir(args.curves)
        report = verify.round_trip(target, w, norm, true_params=true_params,
                                   cfg=fcfg, ranges=ranges)
        with open(out.path("report.json"), "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        _emit_overlays(out, report, target)
        if report.true_params is not None:
            _emit_output_family(out, report)
        for ce in report.curve_errors:
            sub = ("" if ce.subthreshold_rms_percent is None
                   else f"  subthreshold {ce.subthreshold_rms_percent:.4g}%")
            print(f"{ce.label:9s} rms {ce.rms_percent:.4g}%{sub}")
        return EXIT_OK
    except BaseException:
        out.cleanup()
        raise


def cmd_demo(args) -> int:
    cfg = load_config(args.config)
    out = Outputs(args.out)
    try:
        n = args.n
        n_devices = args.devices
        echo_config(out, "demo", cfg, {
            "n": n, "devices": n_devices,
            "gen_seed": DEMO_GEN_SEED, "train_seed": DEMO_TRAIN_SEED,
        })
        ranges = resolve_ranges(cfg)
        fcfg = resolve_feature_cfg(cfg)
        mcfg = resolve_mlp_cfg(cfg)
        tcfg = resolve_train_cfg(cfg, seed_flag=DEMO_TRAIN_SEED)

        print(f"[1/4] generating {n} devices (seed {DEMO_GEN_SEED})")
        t0 = time.perf_counter()
        ds = dataset.build_dataset(n, seed=DEMO_GEN_SEED, ranges=ranges, feature_cfg=fcfg)
        gen_wall = time.perf_counter() - t0
        dataset.save_dataset(ds, out.path("dataset.csv"))
        print(f"      {gen_wall:.1f} s")

        print("[2/4] training the extractor")
        norm = dataset.fit_normalizer(ds)
        t0 = time.perf_counter()
        w, history = ann.train(ds, norm, mcfg, tcfg)
        train_wall = time.perf_counter() - t0
        ann.save_model(out.path("model.json"), w, norm, mcfg)
        ann.write_history_csv(history, out.path("history.csv"))
        print(f"      {history.meta['trained_epochs']} epochs, {train_wall:.1f} s, "
              f"best val loss {history.meta['best_val_loss']:.3e}")

        print(f"[3/4] round-tripping {n_devices} held-out devices")
        reports, medians = verify.holdout_round_trip(ds, norm, w, n_devices=n_devices, cfg=fcfg)

        print("[4/4] variability suite on the reference device")
        from .params import REFERENCE_PARAMS
        var_reports = verify.variability_suite(REFERENCE_PARAMS, w, norm, cfg=fcfg, ranges=ranges)
        var_avg = verify.aggregate_curve_errors(var_reports[1:])  # the four knob settings

        rows = []
        ok = True
        for label in ("cgg", "ids_low", "ids_high", "gm_low", "gm_high",
                      "sub_low", "sub_high"):
            limit = verify.ROUND_TRIP_LIMITS[label]
            passed = medians[label] <= limit
            ok &= passed
            rows.append((f"median {label}", medians[label], limit, passed))
        for label in verify.REPORT_CURVES:
            limit = verify.VARIABILITY_FACTOR * medians[label]
            passed = var_avg[label] <= limit
            ok &= passed
            rows.append((f"variability avg {label}", var_avg[label], limit, passed))

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
        with open(out.path("summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"\ndemo {'PASSED' if ok else 'FAILED'}; summary -> {out.out_dir / 'summary.json'}")
        return EXIT_OK if ok else EXIT_ACCEPTANCE
    except BaseException:
        out.cleanup()
        raise


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
    p.add_argument("--threads", type=int, help="worker threads for featurization")
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
        return args.fn(args)
    except (FetfitError, OSError) as exc:
        print(f"fetfit: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
