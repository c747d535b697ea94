import numpy as np
import pytest

from fetfit.errors import ConfigError, DataError, require_number, require_numbers


@pytest.mark.parametrize("value", [3, 2.5, np.int32(3), np.float32(2.5), np.float64(2.5)],
                         ids=["int", "float", "numpy-int", "numpy-float32", "numpy-float64"])
def test_require_number_takes_python_and_numpy_numbers(value):
    number = require_number("x", value)
    assert type(number) is float and number == float(value)


def test_require_number_rejects_an_integer_past_the_string_limit():
    # 5,001 digits, more than Python will turn into a string, so the message
    # must not try to print or count them
    with pytest.raises(ConfigError, match="^x must be finite, got an integer too large for a float$"):
        require_number("x", 10**5000)


def test_require_numbers_takes_numpy_float32_arrays():
    array = require_numbers("w", np.ones((2, 3), dtype=np.float32), (2, 3))
    assert array.dtype == float and array.shape == (2, 3)
    with pytest.raises(DataError, match="^an entry of w must be a number"):
        require_numbers("w", [[1.0, "2"]], (1, 2))
