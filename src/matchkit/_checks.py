"""Value checks shared by the config dataclasses and the learners' direct-call
arguments.

A config field declares its range where it is defined, with `integer`, `real`
or `setting` in place of a plain default, and its class sets
`check = check_config`, which reads every field's declaration.  The
direct-call arguments use `check_finite` and `check_int`, as `Range` does.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator


def _isfinite(value: numbers.Real) -> bool:
    """`math.isfinite`, False for an int past the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_number(value) -> bool:
    """True for a real number (numpy scalars included) other than a bool.

    The float test comes first: an isinstance test against `numbers.Real`
    costs ten times as much.
    """
    return isinstance(value, float) or (isinstance(value, numbers.Real)
                                        and not isinstance(value, bool))


def finite_real(value) -> bool:
    """True for a finite int or float (numpy scalars included), False for bools."""
    return _is_number(value) and _isfinite(value)


def check_finite(name: str, value, minimum: float | None = None) -> None:
    """Raise ValueError naming `name` unless `value` is a finite number >= `minimum`.

    A bool is not a number here, as in `finite_real`.
    """
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not _isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise ValueError naming `name` unless `value` is an integer >= `minimum`.

    `operator.index` accepts Python and numpy integers and rejects floats,
    so 2.5 fails here instead of as a TypeError deep inside a fit.  A bool
    is refused too, though `operator.index` takes it.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclasses.dataclass(frozen=True)
class Range:
    """What a config field may hold: a `kind` (int, float for a finite real,
    str, or a config class whose own `check` runs) and, for a number, the
    bounds `ge`, `gt`, `le`, `lt` and the `choices` that it declares."""

    kind: type
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    choices: tuple = ()

    def describe(self) -> str:
        """The range as an error states it: "1 or 2", ">= 1", "< 1" or "in (0, 1]",
        and for a field with no bound "any integer", "any finite number",
        "any str" or "a NetConfig"."""
        if self.choices:
            return " or ".join(map(str, self.choices))
        ends = [(op, bound) for op, bound in ((">=", self.ge), (">", self.gt),
                                              ("<=", self.le), ("<", self.lt)) if bound is not None]
        if not ends:
            unbounded = {int: "any integer", float: "any finite number", str: "any str"}
            return unbounded.get(self.kind, f"a {self.kind.__name__}")
        if len(ends) == 1:
            return f"{ends[0][0]} {ends[0][1]}"
        (low_op, low), (high_op, high) = ends
        bracket = {">=": "[", ">": "(", "<=": "]", "<": ")"}
        return f"in {bracket[low_op]}{low}, {high}{bracket[high_op]}"

    def check(self, name: str, value) -> None:
        """Raise ValueError naming `name` unless `value` is in this range."""
        if self.kind is int:
            check_int(name, value)
        elif self.kind is float:
            check_finite(name, value)
        elif not isinstance(value, self.kind):
            raise ValueError(f"{name} must be a {self.kind.__name__}, got {value!r}")
        else:
            if self.kind is not str:
                value.check()
            return
        if ((self.ge is not None and value < self.ge) or (self.gt is not None and value <= self.gt)
                or (self.le is not None and value > self.le)
                or (self.lt is not None and value >= self.lt)
                or (self.choices and value not in self.choices)):
            raise ValueError(f"{name} must be {self.describe()}, got {value}")


def setting(kind: type, default=dataclasses.MISSING, **bounds):
    """A dataclass field of `kind` with a default and the `Range` of `bounds`."""
    return dataclasses.field(default=default, metadata={"range": Range(kind, **bounds)})


integer = functools.partial(setting, int)
real = functools.partial(setting, float)


@functools.cache
def field_ranges(cls) -> tuple[tuple[str, Range], ...]:
    """(name, Range) for each field of config class `cls`, built once per class.

    A field that declares no range is a TypeError, so none goes unchecked.
    """
    table = []
    for f in dataclasses.fields(cls):
        if "range" not in f.metadata:
            raise TypeError(f"{cls.__name__}.{f.name} declares no range")
        table.append((f.name, f.metadata["range"]))
    return tuple(table)


def check_config(config) -> None:
    """Raise ValueError naming the first field of `config` outside its declared range."""
    for name, rng in field_ranges(type(config)):
        rng.check(name, getattr(config, name))


def dataclass_from_doc(cls, doc, what: str):
    """Build dataclass `cls` from a JSON object holding exactly its fields.

    A non-object, an unknown key or a missing key raises ValueError naming
    `what` and the key; the values themselves are left to `cls.check`.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"{what} has unknown keys: {', '.join(unknown)}")
    missing = [name for name in names if name not in doc]
    if missing:
        raise ValueError(f"{what} is missing keys: {', '.join(missing)}")
    return cls(**doc)
