"""Exception types shared across the toolkit, and the typed check that
turns a bad config value into an InvalidInputError.

The CLI maps these onto exit codes: invalid input -> 2, numerical
failure -> 3. Plain OSError is left alone for filesystem problems.
"""

import contextlib
import dataclasses
import functools
import math
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


class _Hint(typing.NamedTuple):
    """An annotation compiled once: `check(value)` tells whether a decoded
    JSON value fits it, `convert(value)` gives a fitting value as declared."""

    check: typing.Callable[[object], bool]
    convert: typing.Callable[[object], object]


def _same(value):
    return value


@functools.cache
def _compile(hint) -> _Hint:
    """`hint`, a class, a union, `list[...]` or `dict[..., ...]`, as a
    `_Hint`. An integer also fits `float`, since configs say `100` for
    `100.0`, and is converted to a float there; a bool fits neither `int`
    nor `float`. A value that fills a `float` must be finite as a float:
    JSON also reads NaN, Infinity, 1e400 and integers beyond the float
    range. A union converts a value as its first member that it fits."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union or origin is types.UnionType:
        members = [_compile(h) for h in args]
        return _Hint(
            lambda value: any(m.check(value) for m in members),
            lambda value: next(m for m in members if m.check(value)).convert(value),
        )
    if origin is list:
        item = _compile(args[0])
        return _Hint(lambda value: isinstance(value, list) and all(map(item.check, value)),
                     lambda value: [item.convert(v) for v in value])
    if origin is dict:
        key, item = _compile(args[0]), _compile(args[1])
        return _Hint(
            lambda value: isinstance(value, dict) and all(
                key.check(k) and item.check(v) for k, v in value.items()
            ),
            lambda value: {k: item.convert(v) for k, v in value.items()},
        )
    if hint is bool:
        return _Hint(lambda value: isinstance(value, bool), _same)
    if hint is float:
        return _Hint(lambda value: (not isinstance(value, bool) and isinstance(value, numbers.Real)
                                    and abs(value) <= sys.float_info.max),
                     float)
    kind = numbers.Integral if hint is int else hint
    return _Hint(lambda value: not isinstance(value, bool) and isinstance(value, kind), _same)


def fits(value, hint) -> bool:
    """Whether a decoded JSON value fits the annotation `hint` (see `_compile`)."""
    return _compile(hint).check(value)


class _Field(typing.NamedTuple):
    name: str
    declared: object  # the annotation as written, for messages
    hint: _Hint


class _Plan(typing.NamedTuple):
    """What `check_fields` and `from_json_object` need of one dataclass."""

    fields: tuple[_Field, ...]
    names: frozenset[str]
    required: tuple[str, ...]


@functools.cache
def _plan(cls) -> _Plan:
    # resolved once per class: with postponed annotations every call would
    # compile each field's annotation string again
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return _Plan(
        tuple(_Field(f.name, f.type, _compile(hints[f.name])) for f in fields),
        frozenset(f.name for f in fields),
        tuple(f.name for f in fields
              if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING),
    )


def check_fields(cls, values: dict, what: str) -> None:
    """Raise InvalidInputError for the first field of dataclass `cls` whose
    value in `values` does not fit its annotation, else store each value in
    `values` as its annotation converts it, so that `100` and `100.0` are
    one value in a float field; absent fields are not checked."""
    fields = [f for f in _plan(cls).fields if f.name in values]
    for f in fields:
        value = values[f.name]
        if not f.hint.check(value):
            raise InvalidInputError(f"{what} {f.name!r} must be {f.declared}, got {value!r}")
    for f in fields:
        values[f.name] = f.hint.convert(values[f.name])


def check_positive(values: dict[str, float]) -> None:
    """Raise InvalidInputError naming the first of `values`, by name, that
    is not finite and positive: NaN and infinities fail as zero does."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise InvalidInputError(f"{name} must be finite and positive, got {value}")


def from_json_object(cls, doc, what: str):
    """Build dataclass `cls` from a decoded JSON object whose keys are its
    field names; unknown and missing keys, wrong-typed values and the
    class's own checks raise InvalidInputError naming the source `what`.
    It is the one type check of `RunRecord`, `TheoremPMag` and
    `StabilityReport`. Configs and `ArtifactManifest` check again when built
    directly, where a config must turn `10` into `10.0` or its fingerprint
    changes; for a stored file this check runs first and names the file."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    plan = _plan(cls)
    unknown = doc.keys() - plan.names
    if unknown:
        raise InvalidInputError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [name for name in plan.required if name not in doc]
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
