import re

import numpy as np
import pytest

from fetfit.errors import (ConfigError, DataError, parse_json, read_json, require_number,
                           require_numbers)


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


@pytest.mark.parametrize("text, message", [
    ("{", "not valid JSON: Expecting property name"),
    ('{"a": ' + "9" * 5000 + "}", "not valid JSON: an integer has more than 4300 digits$"),
    ("[" * 100_000 + "]" * 100_000, "not valid JSON: arrays or objects nested too deeply$"),
    ("[1]", "the document is a JSON array, not an object$"),
    ("null", "the document is a JSON null, not an object$"),
], ids=["truncated", "5000-digit-int", "deep-nest", "array", "null"])
def test_parse_json_maps_every_failure_to_one_line(text, message):
    with pytest.raises(DataError, match=f"^src: {message}"):
        parse_json(text, "src")


def test_read_json_names_the_file_and_raises_the_given_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": [1, 2.5]}')
    assert read_json(path) == {"a": [1, 2.5]}
    path.write_text("[" * 100_000)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not valid JSON: "):
        read_json(path, ConfigError)
