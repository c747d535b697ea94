"""JSON values that are not numbers, by test id, for the tests of every
reader that takes a number: a string, a bool, null, a list, an integer too
large for a float, and the two non-finite floats that Python's JSON reader
accepts (``Infinity`` and ``NaN``)."""

NON_NUMBERS = {
    "string": "0.001",
    "bool": True,
    "null": None,
    "list": [1],
    "huge-int": 10**400,  # 401 digits
    "inf": float("inf"),
    "nan": float("nan"),
}
