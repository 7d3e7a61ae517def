"""Value checks shared by the config dataclasses' `check` methods and the
learners' direct-call arguments."""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator


def finite_real(value) -> bool:
    """True for a finite int or float (numpy scalars included), False for bools."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_finite(name: str, value, minimum: float | None = None) -> None:
    """Raise ValueError naming `name` unless `value` is a finite number >= `minimum`."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise ValueError naming `name` unless `value` is an integer >= `minimum`.

    `operator.index` accepts Python and numpy integers and rejects floats,
    so 2.5 fails here instead of as a TypeError deep inside a fit.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def require_finite(config, *names: str) -> None:
    """Raise ValueError naming the first field of `names` that is not a finite number."""
    for name in names:
        check_finite(name, getattr(config, name))


def require_int(config, *names: str) -> None:
    """Raise ValueError naming the first field of `names` that is not an integer."""
    for name in names:
        check_int(name, getattr(config, name))


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
