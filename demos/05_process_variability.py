"""Robustness to process variation: +/-10% gate length and oxide thickness.

The knob mapping perturbs the reference device the way geometry changes
would (thinner oxide -> more capacitance and better ideality, shorter gate
-> more DIBL and channel-length modulation). The suite round-trips the
baseline plus the four single-knob corners and reports per-curve errors.
"""

from fetfit import MLPConfig, REFERENCE_PARAMS, TrainConfig, build_dataset, fit_normalizer, train
from fetfit.verify import REPORT_CURVES, aggregate_curve_errors, variability_suite

ds = build_dataset(2000, seed=3)
norm = fit_normalizer(ds)
weights, _ = train(ds, norm, MLPConfig(seed=0),
                   TrainConfig(max_epochs=150, patience=149, seed=0))

reports = variability_suite(REFERENCE_PARAMS, weights, norm)

header = "  ".join(f"{label:>9s}" for label in REPORT_CURVES)
print(f"{'knobs (lg, eot)':16s} {header}")
for report in reports:
    row = "  ".join(f"{report.error(label).rms_percent:8.3f}%" for label in REPORT_CURVES)
    print(f"{str(report.knobs):16s} {row}")

avg = aggregate_curve_errors(reports[1:])
row = "  ".join(f"{avg[label]:8.3f}%" for label in REPORT_CURVES)
print(f"{'knob average':16s} {row}")
