"""JSON values that are not numbers, by test id, for the tests of every
reader that takes a number: a string, a bool, null, a list, an integer too
large for a float, an integer too long for Python's JSON reader, an array
nested too deeply for it, and the two non-finite floats that the reader
accepts (``Infinity`` and ``NaN``). ``dumps`` writes a document holding
any of them."""

import json


def _nested(depth: int) -> list:
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


NON_NUMBERS = {
    "string": "0.001",
    "bool": True,
    "null": None,
    "list": [1],
    "huge-int": 10**400,  # 401 digits
    "5000-digit-int": 10**4999,  # json.loads raises a ValueError, not a JSONDecodeError
    "deep-nest": _nested(100_000),  # json.loads raises a RecursionError
    "inf": float("inf"),
    "nan": float("nan"),
}

#: JSON text of the values that ``json.dumps`` refuses, by ``id``: Python
#: turns no integer of more than 4,300 digits into text, and the encoder
#: recurses once per level of nesting.
_TEXTS = {id(NON_NUMBERS["5000-digit-int"]): "1" + "0" * 4999,
          id(NON_NUMBERS["deep-nest"]): "[" * 100_000 + "]" * 100_000}


def dumps(doc) -> str:
    """``json.dumps(doc)``, with each value of ``_TEXTS`` written as its text."""
    def mark(value):
        if id(value) in _TEXTS:
            return f"\0{id(value)}"
        if isinstance(value, dict):
            return {k: mark(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [mark(v) for v in value]
        return value

    text = json.dumps(mark(doc))
    for key, raw in _TEXTS.items():
        text = text.replace(json.dumps(f"\0{key}"), raw)
    return text
