"""Exception types shared across the package, the readers that report an
undecodable file or a malformed JSON document as one of them, and the
checks of values read from JSON: ``require_int`` for an integer setting,
and ``require_number`` and ``require_numbers`` for a number and an array of
numbers. These checks alone decide what a number is."""

import json
import math
import reprlib
import sys

import numpy as np


class FetfitError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(FetfitError):
    """A compact-model parameter is non-finite or violates a hard invariant."""


class ExtractionError(FetfitError):
    """A curve feature could not be extracted; the message names the feature.

    For a block of devices the message is the first failing row's and
    ``rows`` holds the index of every failing row (None: the failure is
    not tied to rows, such as a grid the extractor cannot use).
    """

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows


class ConfigError(FetfitError):
    """Invalid configuration: bad ranges, unknown keys, incompatible settings."""


class DataError(FetfitError):
    """Malformed input data: bad CSV headers, NaN cells, grid mismatches."""


class TrainingDivergedError(FetfitError):
    """Training aborted because the validation loss became non-finite."""


def read_text(path, error=DataError) -> str:
    """Text of the UTF-8 file at ``path``; a file that does not decode
    raises ``error`` with a message naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


#: The JSON name of each type other than dict that ``json.loads`` returns.
_JSON_KINDS = {list: "array", str: "string", int: "number", float: "number", bool: "boolean",
               type(None): "null"}


def parse_json(text: str, source, error=DataError) -> dict:
    """The JSON object in ``text``, read from ``source`` (a file, or a line
    of one). Text that is not JSON, that holds an integer longer than
    Python converts (4,300 digits by default) or nests too deeply for the
    parser, or a document that is not an object, raises ``error`` with one
    line naming ``source``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{source}: not valid JSON: {exc}") from exc
    except ValueError as exc:  # the integer digit limit; its message names a Python setting
        raise error(f"{source}: not valid JSON: an integer has more than "
                    f"{sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise error(f"{source}: not valid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict):
        raise error(f"{source}: the document is a JSON {_JSON_KINDS[type(doc)]}, not an object")
    return doc


def read_json(path, error=DataError) -> dict:
    """The JSON object in the UTF-8 file at ``path``; anything else raises
    ``error`` as ``read_text`` and ``parse_json`` do."""
    return parse_json(read_text(path, error), path, error)


def require_int(name: str, value, minimum: int | None = None, maximum: int | None = None):
    """Raise ConfigError unless ``value`` is an int or numpy integer (a bool
    is not) from ``minimum`` to ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {reprlib.repr(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {_int_text(value)}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {_int_text(value)}")


def _int_text(value) -> str:
    """``value`` for a message, a long one shortened by ``reprlib``."""
    try:
        return reprlib.repr(value)
    except ValueError:  # Python prints no integer past its digit limit, 4,300 by default
        return "an integer too long to print"


def require_number(name: str, value, error=ConfigError) -> float:
    """``value`` as a float. Raise ``error`` unless it is an int or a float,
    numpy numbers included but never a bool, and finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float; its digits are not echoed
        raise error(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {number!r}")
    return number


def require_numbers(name: str, values, shape: tuple) -> np.ndarray:
    """``values``, nested lists of numbers, as a float array of ``shape``.
    Raise DataError unless every entry is a number as ``require_number``
    has it and the nesting gives ``shape``. A bool among numbers reads as
    0 or 1, as numpy converts it."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting; its entries are lists
        array = np.asarray(values, dtype=object)
    if array.dtype.kind not in "fiu":
        # name the first entry that is not a number; an object array keeps
        # each entry as given, where a string array would have converted them
        for value in np.asarray(values, dtype=object).flat:
            require_number(f"an entry of {name}", value, DataError)
    if array.shape != shape:
        raise DataError(f"{name} must be an array of shape {shape}, got shape {array.shape}")
    array = array.astype(float, copy=False)  # no copy of a float array
    finite = np.isfinite(array)
    if not finite.all():
        raise DataError(f"{name} must be finite, got {array[~finite][0].item()!r}")
    return array

