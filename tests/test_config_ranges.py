"""Generated from the configs' range declarations: every field of every config
refuses a value past its range with an error naming it, and takes every value
inside, closed bounds and numpy integers included."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matchkit._checks import check_config, field_ranges, integer  # noqa: E402
from matchkit.dbwp import DbwpParams  # noqa: E402
from matchkit.gbtree import GbtConfig  # noqa: E402
from matchkit.ingest import SyntheticSpec  # noqa: E402
from matchkit.maml import MamlConfig  # noqa: E402
from matchkit.momentum import MomentumConfig  # noqa: E402
from matchkit.neural import NetConfig  # noqa: E402
from matchkit.winjud import WinjudParams  # noqa: E402

CONFIGS = (WinjudParams, MomentumConfig, DbwpParams, GbtConfig, NetConfig, MamlConfig,
           SyntheticSpec)
# Values for the fields that have no default.
REQUIRED = {NetConfig: {"input_dim": 3}, MamlConfig: {"net": NetConfig(input_dim=3)},
            SyntheticSpec: {"n_points": 5}}
FIELDS = [pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
          for cls in CONFIGS for f in dataclasses.fields(cls)]
INT64_MAX = 2**63 - 1
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def declared(cls, name):
    """The field's Range; a field that declares none fails here."""
    return dict(field_ranges(cls))[name]


def ends(rng):
    """(low, low_open, high, high_open), a bound None where there is none."""
    low, low_open = (rng.ge, False) if rng.gt is None else (rng.gt, True)
    high, high_open = (rng.le, False) if rng.lt is None else (rng.lt, True)
    return low, low_open, high, high_open


def with_value(cls, name, value):
    return dataclasses.replace(cls(**REQUIRED.get(cls, {})), **{name: value})


def assert_refused(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        with_value(cls, name, value).check()


def edges_past(rng):
    """Each bound's nearest value outside it, and the kind's wrong types."""
    low, low_open, high, high_open = ends(rng)
    if rng.kind is int:
        values = [2.5, 1e308, float("nan"), "1", True, False]
        values += [c + step for c in rng.choices[:1] + rng.choices[-1:] for step in (-1, 1)
                   if c + step not in rng.choices]
        if low is not None:
            values.append(low if low_open else low - 1)
        if high is not None:
            values.append(high if high_open else high + 1)
        return values
    if rng.kind is float:
        values = [float("nan"), float("inf"), float("-inf"), 10**400, "0.5", None]
        if low is not None:
            values.append(low if low_open else math.nextafter(low, -math.inf))
        if high is not None:
            values.append(high if high_open else math.nextafter(high, math.inf))
            if high < 1e308:
                values.append(1e308)
        return values
    return [None, 3, b"x"]


def strategy_past(rng):
    """Values outside the range, drawn beyond each bound."""
    low, low_open, high, high_open = ends(rng)
    parts = [st.sampled_from(edges_past(rng))]
    if rng.kind is int:
        parts.append(st.floats() | st.booleans() | st.text())
        if rng.choices:
            parts.append(st.integers().filter(lambda v: v not in rng.choices))
        if low is not None:
            parts.append(st.integers(max_value=low - (not low_open)))
        if high is not None:
            parts.append(st.integers(min_value=high + (not high_open)))
    elif rng.kind is float:
        parts.append(st.booleans() | st.text())
        if low is not None:
            parts.append(st.floats(max_value=low, exclude_max=not low_open))
        if high is not None:
            parts.append(st.floats(min_value=high, exclude_min=not high_open))
    return st.one_of(parts)


def edges_inside(rng, default):
    """The closed bounds themselves, the choices, and numpy integers."""
    values = [] if default is dataclasses.MISSING else [default]
    values += list(rng.choices)
    values += [b for b in (rng.ge, rng.le) if b is not None]
    if rng.kind is int:
        values += [np.int64(v) for v in values] + [np.int32(v) for v in values]
    elif rng.kind is float:
        values += [np.float64(v) for v in values]
    return values


def strategy_inside(rng):
    low, low_open, high, high_open = ends(rng)
    if rng.kind is int:
        if rng.choices:
            ints = st.sampled_from(rng.choices)
        else:
            ints = st.integers(min_value=None if low is None else low + low_open,
                               max_value=None if high is None else high - high_open)
        return ints | ints.filter(lambda v: abs(v) <= INT64_MAX).map(np.int64)
    if rng.kind is float:
        return st.floats(min_value=low, max_value=high, exclude_min=low_open,
                         exclude_max=high_open, allow_nan=False, allow_infinity=False)
    if rng.kind is str:
        return st.text()
    return st.just(rng.kind(**REQUIRED.get(rng.kind, {})))


@pytest.mark.parametrize("cls, name", FIELDS)
def test_values_past_the_range_name_the_field(cls, name):
    rng = declared(cls, name)
    for value in edges_past(rng):
        assert_refused(cls, name, value)

    @SETTINGS
    @given(strategy_past(rng))
    def check(value):
        assert_refused(cls, name, value)

    check()


@pytest.mark.parametrize("cls, name", FIELDS)
def test_values_inside_the_range_pass(cls, name):
    rng = declared(cls, name)
    default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
    for value in edges_inside(rng, default):
        with_value(cls, name, value).check()

    @SETTINGS
    @given(strategy_inside(rng))
    def check(value):
        with_value(cls, name, value).check()

    check()


def test_nested_config_is_checked_with_its_own_ranges():
    bad = dataclasses.replace(NetConfig(input_dim=3), hidden_lstm=0)
    with pytest.raises(ValueError, match="^hidden_lstm must be >= 1, got 0$"):
        MamlConfig(net=bad).check()


def test_a_field_without_a_range_is_refused():
    @dataclasses.dataclass(frozen=True)
    class Bare:
        declared: int = integer(1)
        bare: int = 2

        check = check_config

    with pytest.raises(TypeError, match="^Bare.bare declares no range$"):
        Bare().check()


@pytest.mark.parametrize("cls, name, value, message", [
    (GbtConfig, "learning_rate", 0.0, "learning_rate must be in (0, 1], got 0.0"),
    (NetConfig, "dropout_rate", 1.0, "dropout_rate must be in [0, 1), got 1.0"),
    (MomentumConfig, "set_factor", 1.0, "set_factor must be > 1, got 1.0"),
    (WinjudParams, "beta", -0.5, "beta must be >= 0, got -0.5"),
    (DbwpParams, "player", 3, "player must be 1 or 2, got 3"),
    (DbwpParams, "grid_step_s", 0.0, "grid_step_s must be > 0, got 0.0"),
    (SyntheticSpec, "match_id", 7, "match_id must be a str, got 7"),
    (MamlConfig, "net", None, "net must be a NetConfig, got None"),
    (NetConfig, "epochs", True, "epochs must be an integer, got True"),
    (NetConfig, "adam_lr", float("inf"), "adam_lr must be finite, got inf"),
])
def test_one_wording_per_kind_of_bound(cls, name, value, message):
    with pytest.raises(ValueError) as info:
        with_value(cls, name, value).check()
    assert str(info.value) == message


def test_mean_duration_bound_is_the_largest_with_a_finite_point():
    bound = declared(SyntheticSpec, "mean_point_duration_s").le
    assert math.isfinite(1.5 * bound)
    assert not math.isfinite(1.5 * math.nextafter(bound, math.inf))
