"""Property tests: train_gbt equals the scalar split scan, grid_search the
per-cell loop, and model JSON round trips both ways, on small random matrices."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import oracle_grid_search, oracle_train_gbt  # noqa: E402
from matchkit.gbtree import (  # noqa: E402
    GbtConfig,
    grid_search,
    model_from_json,
    model_to_json,
    train_gbt,
)

# Few distinct values, so ties within and across columns are common; 1.0 is
# the threshold between 0.0 and 2.0, so held-out rows can fall on a split.
VALUES = st.sampled_from([-1.5, -0.25, 0.0, 0.5, 1.0, 2.0, 3.0])


def _matrix(draw, min_rows, max_rows):
    n = draw(st.integers(min_rows, max_rows))
    n_features = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(VALUES, min_size=n * n_features,
                               max_size=n * n_features))).reshape(n, n_features)
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    return x, y


def _shape_settings(draw):
    return dict(
        n_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 3)),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 2.5])),
        min_gain=draw(st.sampled_from([0.0, 0.05])),
    )


@st.composite
def fits(draw):
    x, y = _matrix(draw, 2, 24)
    cfg = GbtConfig(lam=draw(st.sampled_from([0.0, 0.5, 2.0])),
                    rho=draw(st.sampled_from([0.0, 0.5, 1.0])), **_shape_settings(draw))
    names = tuple(draw(st.permutations(["a", "b", "c"]))[:x.shape[1]])
    return x, y, cfg, names


@st.composite
def duplicate_name_fits(draw):
    x, y, cfg, _ = draw(fits())
    names = tuple(draw(st.lists(st.sampled_from(["a", "b"]), min_size=x.shape[1],
                                max_size=x.shape[1])))
    return x, y, cfg, names


@st.composite
def searches(draw):
    x, y = _matrix(draw, 4, 40)
    # Unsorted, with repeats, and with lam = 0 and rho at both ends.
    lambda_grid = draw(st.lists(st.sampled_from([2.0, 0.0, 0.5, 0.01]), min_size=1, max_size=4))
    rho_grid = draw(st.lists(st.sampled_from([1.0, 0.0, 0.25, 0.5]), min_size=1, max_size=4))
    cfg = GbtConfig(learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
                    **_shape_settings(draw))
    return x, y, lambda_grid, rho_grid, cfg


@settings(max_examples=150, deadline=None)
@given(fits())
def test_train_gbt_equals_scalar_scan(case):
    x, y, cfg, names = case
    assert model_to_json(train_gbt(x, y, cfg, names)) == oracle_train_gbt(x, y, cfg, names)


@settings(max_examples=100, deadline=None)
@given(duplicate_name_fits())
def test_duplicate_names_tie_as_one_name(case):
    x, y, cfg, names = case
    assert model_to_json(train_gbt(x, y, cfg, names)) == oracle_train_gbt(x, y, cfg, names)


@settings(max_examples=100, deadline=None)
@given(searches())
def test_grid_search_equals_per_cell_loop(case):
    x, y, lambda_grid, rho_grid, cfg = case
    assert (grid_search(x, y, lambda_grid, rho_grid, cfg)
            == oracle_grid_search(x, y, lambda_grid, rho_grid, cfg))


@settings(max_examples=100, deadline=None)
@given(fits())
def test_model_json_round_trips(case):
    x, y, cfg, names = case
    model = train_gbt(x, y, cfg, names)
    text = model_to_json(model)
    assert model_from_json(text) == model
    assert model_to_json(model_from_json(text)) == text
