"""The one field check of every JSON input: model files, traces and configs.

A spec maps each field name to a kind: the Python types a JSON scalar of that
kind loads as, a nested spec, a frozenset of the strings it may hold, FLOATS
(finite numbers at any depth, as a float array) or INDICES (a flat list of JSON
integers, as an index array).  Types match exactly, so true is not an integer
and not a number at any depth, and numbers must be finite, since
``json.loads`` accepts NaN and Infinity."""

import json
import sys

import numpy as np

INTEGER, NUMBER, STRING, NUMBER_OR_STRING = (int,), (int, float), (str,), (int, float, str)
FLOATS, INDICES = "finite JSON numbers", "list of JSON integers"
_NAMES = {INTEGER: "integer", NUMBER: "number", STRING: "string",
          NUMBER_OR_STRING: "number or string"}
_LARGEST = sys.float_info.max


def read_fields(obj, spec: dict, name: str, partial=False, prefix="") -> dict:
    """{field: value} for each field of ``spec`` in the JSON object ``obj``,
    which messages call ``name``; FLOATS and INDICES come back as arrays.
    The first field that is missing (unless ``partial``) or of the wrong
    kind raises ValueError naming its dotted path."""
    if type(obj) is not dict:
        raise ValueError(f"{name} must be a JSON object, got {type(obj).__name__}")
    values = {}
    for field, kind in spec.items():
        try:
            value = obj[field]
        except KeyError:
            if partial:
                continue
            raise ValueError(f"field {prefix + field!r} is missing") from None
        # commonest kind first, no path built unless needed: traces are long
        if kind is INTEGER:
            if type(value) is not int:
                raise fault(prefix + field, "be a JSON integer", value)
        elif kind is INDICES:
            value = _indices(value, prefix + field)
        elif kind is FLOATS:
            value = _floats(value, prefix + field)
        elif type(kind) is dict:
            value = read_fields(value, kind, f"field {prefix + field!r}",
                                prefix=f"{prefix}{field}.")
        elif type(kind) is frozenset:
            if type(value) is not str or value not in kind:
                raise fault(prefix + field, "be one of "
                             + ", ".join(map(json.dumps, sorted(kind))), value)
        elif type(value) not in kind:
            raise fault(prefix + field, f"be a JSON {_NAMES[kind]}", value)
        # false for NaN, the infinities and integers beyond the float range
        elif type(value) is not str and not -_LARGEST <= value <= _LARGEST:
            raise fault(prefix + field, f"hold {FLOATS}", value)
        values[field] = value
    return values


def fault(path: str, rule: str, value) -> ValueError:
    """The error of a field whose value breaks ``rule``: "must <rule>, got <value>"."""
    return ValueError(f"field {path!r} must {rule}, got {json.dumps(value)[:40]}")


def _floats(value, path: str) -> np.ndarray:
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    # refuses bool, str and object arrays (null, integers beyond int64), and
    # true or false among numbers, which numpy reads as 1 or 0
    if (array.dtype.kind not in "iuf" or not np.isfinite(array).all()
            or _holds_bool(value)):
        raise fault(path, f"hold {FLOATS}", value)
    return array.astype(float)


def _holds_bool(value) -> bool:
    """Whether a JSON value is true or false or holds one at any depth."""
    return type(value) is bool or type(value) is list and any(map(_holds_bool, value))


def _indices(value, path: str) -> np.ndarray:
    if type(value) is list and set(map(type, value)) <= {int}:
        try:
            return np.array(value, dtype=np.intp)
        except OverflowError:  # beyond the index range
            pass
    raise fault(path, f"be a {INDICES}", value)
