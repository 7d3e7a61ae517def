"""Field checks shared by the config dataclasses' `check` methods."""

from __future__ import annotations

import math
import operator


def require_finite(config, *names: str) -> None:
    """Raise ValueError naming the first field of `names` that is NaN or ±inf."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_int(config, *names: str) -> None:
    """Raise ValueError naming the first field of `names` that is not an integer.

    `operator.index` accepts Python and numpy integers and rejects floats,
    so 2.5 fails here instead of as a TypeError deep inside a fit.
    """
    for name in names:
        value = getattr(config, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
