"""Property test: train_gbt equals the scalar split scan on small random matrices."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import oracle_train_gbt  # noqa: E402
from matchkit.gbtree import GbtConfig, train_gbt  # noqa: E402


@st.composite
def fits(draw):
    n = draw(st.integers(2, 24))
    n_features = draw(st.integers(1, 3))
    # Few distinct values, so ties within and across columns are common.
    values = st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0, 3.0])
    x = np.array(draw(st.lists(values, min_size=n * n_features,
                               max_size=n * n_features))).reshape(n, n_features)
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    cfg = GbtConfig(
        n_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 3)),
        lam=draw(st.sampled_from([0.0, 0.5, 2.0])),
        rho=draw(st.sampled_from([0.0, 0.5, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 2.5])),
        min_gain=draw(st.sampled_from([0.0, 0.05])),
    )
    names = tuple(draw(st.permutations(["a", "b", "c"]))[:n_features])
    return x, y, cfg, names


@settings(max_examples=150, deadline=None)
@given(fits())
def test_train_gbt_equals_scalar_scan(case):
    x, y, cfg, names = case
    assert train_gbt(x, y, cfg, names) == oracle_train_gbt(x, y, cfg, names)
