"""Parameter set and sampling-range tests."""

import numpy as np
import pytest

from fetfit.errors import ConfigError, InvalidParameterError
from fetfit.params import (DEFAULT_RANGES, LOG_UNIFORM_PARAMS, PARAM_NAMES, POSITIVE_PARAMS,
                           REFERENCE_PARAMS, ModelParams, ParamRanges)

from ._non_numbers import NON_NUMBERS


@pytest.mark.parametrize("name", POSITIVE_PARAMS)
@pytest.mark.parametrize("lo", [0.0, -0.1])
def test_ranges_reject_nonpositive_lower_bound_of_positive_params(name, lo):
    bounds = {**DEFAULT_RANGES.to_dict(), name: [lo, DEFAULT_RANGES.bounds[name][1]]}
    with pytest.raises(ConfigError, match=name):
        ParamRanges.from_dict(bounds)


@pytest.mark.parametrize("value, message", [
    ({}, "^PHIG bounds must be a"),
    ("45", "^PHIG bounds must be a"),
    ([4.3, 4.6, 9.9], "^PHIG bounds must be a"),
    ([True, 4.6], "^PHIG bounds must be a"),
    (["4.3", "4.6"], "^PHIG bounds must be a"),
    # an OverflowError from float() while from_dict converted the bounds itself
    ([NON_NUMBERS["huge-int"], 4.6], "^PHIG bounds must be finite, got an integer too large for a float$"),
], ids=["object", "string", "triple", "bool", "string-pair", "huge-int"])
def test_ranges_from_dict_takes_only_a_pair_of_numbers(value, message):
    with pytest.raises(ConfigError, match=message):
        ParamRanges.from_dict({**DEFAULT_RANGES.to_dict(), "PHIG": value})


def test_unit_box_maps_corners_to_bounds_and_round_trips():
    lo, hi = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
    linear = [n not in LOG_UNIFORM_PARAMS for n in PARAM_NAMES]
    n = len(PARAM_NAMES)
    assert np.array_equal(DEFAULT_RANGES.from_unit(np.zeros(n))[linear], lo[linear])
    assert np.array_equal(DEFAULT_RANGES.from_unit(np.ones(n))[linear], hi[linear])
    np.testing.assert_allclose(DEFAULT_RANGES.from_unit(np.array([[0.0] * n, [1.0] * n])),
                               [lo, hi], rtol=1e-12)
    u = np.random.default_rng(4).random((50, n))
    np.testing.assert_allclose(DEFAULT_RANGES.to_unit(DEFAULT_RANGES.from_unit(u)), u,
                               rtol=0, atol=1e-12)


def test_clip_vector_meets_model_params_invariants():
    """Every finite vector clipped into a valid box is a valid ModelParams,
    including vectors whose C-V plateaus need the margin repair."""
    ranges = ParamRanges.from_dict({**DEFAULT_RANGES.to_dict(), "CGGMIN": [0.05, 1.0]})
    lo, hi = ranges.lo_vector(), ranges.hi_vector()
    rng = np.random.default_rng(3)
    for _ in range(500):
        vec = ranges.clip_vector(lo + rng.uniform(-0.5, 1.5, size=lo.size) * (hi - lo))
        ModelParams.from_vector(vec)


@pytest.mark.parametrize("value, message", [
    ("4.4", "PHIG must be a number, got '4.4'"),
    (None, "PHIG must be a number, got None"),
    ([4.4], r"PHIG must be a number, got \[4.4\]"),
    (True, "PHIG must be a number, got True"),
    (float("nan"), "PHIG must be finite, got nan"),
    # an OverflowError from math.isfinite while ModelParams checked numbers itself
    (NON_NUMBERS["huge-int"], "PHIG must be finite, got an integer too large for a float$"),
], ids=["string", "null", "list", "bool", "nan", "huge-int"])
def test_params_reject_non_numbers_by_name(value, message):
    # from_dict passes values through, so a bool or a string is not converted
    with pytest.raises(InvalidParameterError, match=message):
        ModelParams.from_dict({**REFERENCE_PARAMS.to_dict(), "PHIG": value})
