"""Property test: the feature-major LSTM forward/BPTT equals the batch-major
oracle to rounding level on random shapes, losses and dropout masks."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import assert_matches_batch_major  # noqa: E402
from matchkit.neural import NetConfig, init_net  # noqa: E402


@st.composite
def cases(draw):
    cfg = NetConfig(
        input_dim=draw(st.integers(1, 4)),
        hidden_dense=draw(st.integers(1, 4)),
        hidden_lstm=draw(st.integers(1, 6)),
        seq_len=draw(st.integers(1, 8)),
        dropout_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
        l2_mix=draw(st.booleans()),
        seed=draw(st.integers(0, 50)),
    )
    batch = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = init_net(cfg)
    scale = draw(st.sampled_from([0.0, 0.3, 2.0]))  # 2.0 saturates some gates
    for k in net.params:
        net.params[k] = net.params[k] + rng.normal(0, scale, net.params[k].shape)
    x = rng.normal(0, 1, (batch, cfg.seq_len, cfg.input_dim))
    y = rng.normal(0, 2, batch)
    return net, x, y


@settings(max_examples=80, deadline=None)
@given(case=cases(), loss_kind=st.sampled_from(["huber", "mse"]),
       train_mode=st.booleans(), seed=st.integers(0, 1000))
def test_feature_major_equals_batch_major(case, loss_kind, train_mode, seed):
    net, x, y = case
    assert_matches_batch_major(net, x, y, loss_kind=loss_kind, train_mode=train_mode, seed=seed)
