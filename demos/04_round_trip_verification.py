"""Round-trip one device: curves in, parameters out, curves back.

Trains a small extractor, picks an unseen device, predicts its parameters
from the curve features alone, resimulates, and prints the per-curve
relative RMS errors and the parameter recovery table.
"""

from fetfit import (
    MLPConfig,
    ModelParams,
    TrainConfig,
    build_dataset,
    fit_normalizer,
    round_trip,
    simulate_curveset,
    train,
)
from fetfit.params import PARAM_NAMES

ds = build_dataset(2000, seed=2)
norm = fit_normalizer(ds)
weights, _ = train(ds, norm, MLPConfig(seed=0),
                   TrainConfig(max_epochs=150, patience=149, seed=0))

true_params = ModelParams.from_vector(ds.Y[ds.indices("test")[0]])
target = simulate_curveset(true_params)
report = round_trip(target, weights, norm, true_params=true_params)

print("per-curve relative RMS:")
for ce in report.curve_errors:
    sub = ("" if ce.subthreshold_rms_percent is None
           else f"   subthreshold {ce.subthreshold_rms_percent:6.3f}%")
    print(f"  {ce.label:9s} ({ce.kind}, Vds={ce.vds:g} V)  rms {ce.rms_percent:6.3f}%{sub}")

print(f"\nfeature extraction + prediction took {report.extract_seconds * 1e3:.2f} ms")
print(f"\n{'param':8s} {'true':>12s} {'predicted':>12s} {'range rel err':>14s}")
for name in PARAM_NAMES:
    t = getattr(report.true_params, name)
    p = getattr(report.predicted, name)
    rel = report.param_errors[name]["range_relative"]
    print(f"{name:8s} {t:12.5g} {p:12.5g} {100 * rel:13.2f}%")
