"""Exception types shared across the package, the text-file reader that
reports an undecodable file as one of them, and the integer-setting check
that reports a bad setting as a ConfigError."""

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


def require_int(name: str, value, minimum: int | None = None):
    """Raise ConfigError unless ``value`` is an int or numpy integer (a bool
    is not) no smaller than ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
