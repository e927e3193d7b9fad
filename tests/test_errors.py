from __future__ import annotations

import json
import struct
import typing
from dataclasses import dataclass, field, make_dataclass

import numpy as np
import pytest

from oracles import reference_as_declared, reference_fits
from trajtopo.errors import InvalidInputError, check_fields, fits, from_json_object

_HINTS = {
    "bool": bool, "int": int, "float": float, "str": str, "dict": dict,
    "list[float]": list[float], "list[int]": list[int], "list[list[float]]": list[list[float]],
    "dict[str, float]": dict[str, float], "dict[str, str]": dict[str, str],
    "int | None": int | None, "float | None": float | None, "str | None": str | None,
    "list[int] | None": list[int] | None, "dict | None": dict | None,
    "Optional[float]": typing.Optional[float], "int | float": int | float,
}

# decoded JSON values, each spelled as a config file spells it, and numpy scalars
_VALUES = {
    "true": True, "false": False, "0": 0, "1": 1, "-3": -3, "2**53+1": 2**53 + 1,
    "2**1100": 2**1100, "-2**1100": -(2**1100), "1.5": 1.5, "0.0": 0.0, "-0.0": -0.0,
    "NaN": json.loads("NaN"), "Infinity": json.loads("Infinity"),
    "-Infinity": json.loads("-Infinity"), "1e400": json.loads("1e400"),
    "max": 1.7976931348623157e308, "string": "x", "null": None,
    "[]": [], "[1,2.5]": [1, 2.5], "[true]": [True], "[1,null]": [1, None],
    "[1,2]": [1, 2], "[NaN]": [json.loads("NaN")], "[2**1100]": [2**1100],
    "[[1,2.5],[]]": [[1, 2.5], []], "[[1],true]": [[1], True],
    "{}": {}, '{"a":1}': {"a": 1}, '{"a":true}': {"a": True},
    '{"a":1e400}': {"a": json.loads("1e400")},
    '{"a":"b"}': {"a": "b"}, "{1:1.0}": {1: 1.0}, '{"a":-0.0,"b":2}': {"a": -0.0, "b": 2},
    "np.float64": np.float64(2.5), "np.int64": np.int64(3), "np.bool_": np.bool_(True),
}


def _same(a, b) -> bool:
    """`a` and `b` have one type throughout and equal bits, -0.0 and NaN included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("hint", _HINTS.values(), ids=list(_HINTS))
@pytest.mark.parametrize("value", _VALUES.values(), ids=list(_VALUES))
def test_compiled_checks_agree_with_the_per_value_dispatch(hint, value):
    """The check compiled once per annotation accepts what the per-value
    dispatch of the oracle accepts, and converts each accepted value to the
    same types and bits, in a new list or dict where the oracle makes one."""
    accepted = reference_fits(value, hint)
    assert fits(value, hint) is accepted

    one = make_dataclass("One", [("x", hint)])
    values = {"x": value}
    if not accepted:
        with pytest.raises(InvalidInputError, match=r"^thing 'x' must be "):
            check_fields(one, values, "thing")
        assert values["x"] is value
        return
    check_fields(one, values, "thing")
    expected = reference_as_declared(value, hint)
    assert _same(values["x"], expected)
    assert (values["x"] is value) is (expected is value)


@dataclass
class _Config:
    n: int
    eta: float = 0.1
    grid: list[float] = field(default_factory=list)
    scales: dict[str, float] = field(default_factory=dict)
    limit: int | None = None


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "conf must be a JSON object"),
        ({"n": 1, "eta": 0.1, "zeta": 1, "alpha": 2}, "unknown conf keys: ['alpha', 'zeta']"),
        ({"eta": 0.1}, "conf lacks ['n']"),
        ({"n": 1.0}, "conf 'n' must be int, got 1.0"),
        ({"n": 1, "eta": True}, "conf 'eta' must be float, got True"),
        ({"n": 1, "grid": [1, "2"]}, "conf 'grid' must be list[float], got [1, '2']"),
        ({"n": 1, "scales": {"a": 1e400}},
         "conf 'scales' must be dict[str, float], got {'a': inf}"),
        ({"n": 1, "limit": 2.5}, "conf 'limit' must be int | None, got 2.5"),
        ({"n": True, "eta": "x"}, "conf 'n' must be int, got True"),
    ],
)
def test_from_json_object_messages(doc, message):
    """Each rejection names the source, the first bad field in field order
    and the annotation as written."""
    with pytest.raises(InvalidInputError) as exc:
        from_json_object(_Config, doc, "conf")
    assert str(exc.value) == message


def test_from_json_object_converts_each_field_as_declared():
    doc = {"n": 3, "eta": 1, "grid": [1, 2.5], "scales": {"a": 2}, "limit": 7}
    got = from_json_object(_Config, doc, "conf")
    assert got == _Config(n=3, eta=1.0, grid=[1.0, 2.5], scales={"a": 2.0}, limit=7)
    assert type(got.eta) is float and [type(v) for v in got.grid] == [float, float]
    assert type(got.scales["a"]) is float and type(got.limit) is int
    assert doc == {"n": 3, "eta": 1, "grid": [1, 2.5], "scales": {"a": 2}, "limit": 7}
