"""In-range parameter sampling for property sweeps, independent of the
library's dataset sampler."""

import numpy as np

from fetfit.params import DEFAULT_RANGES, LOG_UNIFORM_PARAMS, PARAM_NAMES, ModelParams


def draw_sequential(rng, n, ranges=DEFAULT_RANGES):
    """n devices drawn one at a time, 14 scalar draws each, redrawing a
    device whose C-V plateau margin is violated."""
    out = []
    while len(out) < n:
        vals = {}
        for name in PARAM_NAMES:
            lo, hi = ranges.bounds[name]
            if name in LOG_UNIFORM_PARAMS:
                vals[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                vals[name] = float(rng.uniform(lo, hi))
        if vals["CGGMIN"] + 0.1 > vals["CGGMAX"]:
            continue
        out.append(ModelParams(**vals))
    return out


def sample_params_list(n, seed, ranges=DEFAULT_RANGES):
    return draw_sequential(np.random.default_rng(seed), n, ranges)
