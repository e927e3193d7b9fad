"""Exception types shared across the toolkit, and the typed check that
turns a bad config value into an InvalidInputError.

The CLI maps these onto exit codes: invalid input -> 2, numerical
failure -> 3. Plain OSError is left alone for filesystem problems.
"""

import contextlib
import dataclasses
import functools
import numbers
import sys
import types
import typing


class TrajtopoError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(TrajtopoError):
    """An argument, config value, or input file violates a precondition."""


class UnsupportedVersionError(InvalidInputError):
    """Artifact schema version is not supported by this build."""


class NumericalFailureError(TrajtopoError):
    """A solver or estimator could not produce a trustworthy value."""


class UndefinedStatisticError(TrajtopoError):
    """A statistic is undefined for the given data (e.g. zero variance)."""


def fits(value, hint) -> bool:
    """Whether a decoded JSON value fits the annotation `hint`, a class, a
    union, `list[...]` or `dict[..., ...]`. An integer also fits `float`,
    since configs say `100` for `100.0`; a bool fits neither `int` nor
    `float`. A value that fills a `float` must be finite as a float: JSON
    also reads NaN, Infinity, 1e400 and integers beyond the float range."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union or origin is types.UnionType:
        return any(fits(value, h) for h in args)
    if origin is list:
        return isinstance(value, list) and all(fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            fits(k, args[0]) and fits(v, args[1]) for k, v in value.items()
        )
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Integral if hint is int else hint)


def _as_declared(value, hint):
    """`value`, which fits `hint`, with each number that fills a `float` as a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union or origin is types.UnionType:
        return _as_declared(value, next(h for h in args if fits(value, h)))
    if origin is list:
        return [_as_declared(v, args[0]) for v in value]
    if origin is dict:
        return {k: _as_declared(v, args[1]) for k, v in value.items()}
    return float(value) if hint is float else value


# resolved once per class: with postponed annotations every call would
# compile each field's annotation string again
_type_hints = functools.cache(typing.get_type_hints)


def check_fields(cls, values: dict, what: str) -> None:
    """Raise InvalidInputError for the first field of dataclass `cls` whose
    value in `values` does not fit its annotation, else store each value in
    `values` as `_as_declared` gives it, so that `100` and `100.0` are one
    value in a float field; absent fields are not checked."""
    hints = _type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name in values and not fits(values[f.name], hints[f.name]):
            raise InvalidInputError(f"{what} {f.name!r} must be {f.type}, got {values[f.name]!r}")
    values.update({k: _as_declared(v, hints[k]) for k, v in values.items() if k in hints})


def from_json_object(cls, doc, what: str):
    """Build dataclass `cls` from a decoded JSON object whose keys are its
    field names; unknown and missing keys, wrong-typed values and the
    class's own checks raise InvalidInputError naming the source `what`."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise InvalidInputError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [
        f.name for f in fields
        if f.name not in doc
        and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise InvalidInputError(f"{what} lacks {missing}")
    doc = dict(doc)
    check_fields(cls, doc, what)
    with naming(what):
        return cls(**doc)


@contextlib.contextmanager
def naming(what: str):
    """Re-raise an InvalidInputError of the block, same class, naming `what`."""
    try:
        yield
    except InvalidInputError as exc:
        raise type(exc)(f"{what}: {exc}") from exc
