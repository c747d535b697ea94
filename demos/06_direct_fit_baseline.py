"""Classical curve fitting vs. the trained extractor, on the clock.

direct_fit runs a derivative-free simplex descent (up to 2000 curve-set
evaluations) from a mid-range starting point; the network answers from one
feature-extraction pass. Both are scored on the same summed curve error.
"""

import time

import numpy as np

from fetfit import (
    MLPConfig,
    ModelParams,
    TrainConfig,
    build_dataset,
    direct_fit,
    direct_fit_objective,
    fit_normalizer,
    round_trip,
    simulate_curveset,
    train,
)

ds = build_dataset(2000, seed=4)
norm = fit_normalizer(ds)
weights, _ = train(ds, norm, MLPConfig(seed=0),
                   TrainConfig(max_epochs=150, patience=149, seed=0))

lo, hi = ds.ranges.lo_vector(), ds.ranges.hi_vector()
mid = ModelParams.from_vector(ds.ranges.clip_vector((lo + hi) / 2))

print(f"{'device':>6s} {'NN obj':>9s} {'NN ms':>8s} {'fit obj':>9s} {'fit s':>7s} {'speedup':>9s}")
nn_total = fit_total = 0.0
for k, idx in enumerate(ds.indices("test")[:5]):
    true_params = ModelParams.from_vector(ds.Y[idx])
    target = simulate_curveset(true_params)

    t0 = time.perf_counter()
    report = round_trip(target, weights, norm)
    nn_wall = time.perf_counter() - t0
    nn_obj = direct_fit_objective(report.predicted, target)

    t0 = time.perf_counter()
    fitted = direct_fit(target, ds.ranges, mid)
    fit_wall = time.perf_counter() - t0
    fit_obj = direct_fit_objective(fitted, target)

    nn_total += nn_wall
    fit_total += fit_wall
    print(f"{k:6d} {nn_obj:8.3f}% {nn_wall * 1e3:8.2f} {fit_obj:8.3f}% "
          f"{fit_wall:7.2f} {fit_wall / nn_wall:8.0f}x")

print(f"\ntotal wall: network {nn_total * 1e3:.1f} ms vs direct fit {fit_total:.1f} s "
      f"({fit_total / nn_total:.0f}x)")
print("(the 2k-device extractor trades accuracy for speed; at the full 25k scale "
      "its curve errors drop to ~1-2%)")
