import itertools
import math

import numpy as np
import pytest

from helpers import assert_matches_batch_major
from matchkit.dbwp import DbwpParams, DbwpSeries, dbwp_scores
from matchkit.momentum import MomentumConfig, momentum_series
from matchkit.neural import (
    NEURAL_VARIANTS,
    AdamState,
    NetConfig,
    adam_step,
    assemble_match_features,
    backward,
    build_sequences,
    forward,
    forward_batch,
    huber_loss,
    init_adam_state,
    init_net,
    param_count,
    param_specs,
    train_deep_lstm,
    train_net,
    train_report_to_json,
    write_loss_csv,
)

import io


def tiny_config(**kw):
    base = dict(input_dim=2, hidden_dense=4, hidden_lstm=3, seq_len=3,
                dropout_rate=0.0, seed=0)
    base.update(kw)
    return NetConfig(**base)


def naive_forward(net, seq):
    """Independent scalar re-implementation of the two-branch forward pass."""
    p = net.params
    cfg = net.config
    lam, alpha = 1.0507009873554805, 1.6732632423543772

    x_last = seq[-1]
    a1 = x_last @ p["dense_w1"] + p["dense_b1"]
    z1 = np.array([lam * (v if v > 0 else alpha * (math.exp(v) - 1.0)) for v in a1])
    dense = float(z1 @ p["dense_w2"][:, 0] + p["dense_b2"][0])

    H = cfg.hidden_lstm
    w, u, b = ({gate: p[name][..., k * H:(k + 1) * H] for k, gate in enumerate("ifoc")}
               for name in ("lstm_w", "lstm_u", "lstm_b"))
    h = np.zeros(H)
    c = np.zeros(H)
    for t in range(seq.shape[0]):
        xt = seq[t]
        gi = 1.0 / (1.0 + np.exp(-(xt @ w["i"] + h @ u["i"] + b["i"])))
        gf = 1.0 / (1.0 + np.exp(-(xt @ w["f"] + h @ u["f"] + b["f"])))
        go = 1.0 / (1.0 + np.exp(-(xt @ w["o"] + h @ u["o"] + b["o"])))
        gc = np.tanh(xt @ w["c"] + h @ u["c"] + b["c"])
        c = gf * c + gi * gc
        h = go * np.tanh(c)
    recurrent = float(h @ p["rw"][:, 0] + p["rb"][0])
    return dense + recurrent


def public_loss(net, x, y):
    """Mean Huber loss computed through the public scalar API only."""
    preds = forward_batch(net, x)
    return float(np.mean([huber_loss(float(r), net.config.huber_delta)
                          for r in preds - y]))


class TestConfigAndParams:
    def test_param_count_by_hand(self):
        cfg = NetConfig(input_dim=3, hidden_dense=4, hidden_lstm=2)
        # dense: 3*4 + 4 + 4*1 + 1 = 21; lstm inputs 3*(4*2)=24,
        # recurrences 2*(4*2)=16, biases 4*2=8; readout 2+1=3.
        assert param_count(cfg) == 21 + 24 + 16 + 8 + 3

    def test_init_matches_specs(self):
        cfg = tiny_config(seed=11)
        net = init_net(cfg)
        specs = dict(param_specs(cfg))
        assert set(net.params) == set(specs)
        for name, shape in specs.items():
            assert net.params[name].shape == shape
        assert param_count(cfg) == sum(v.size for v in net.params.values())

    def test_init_deterministic_and_seed_sensitive(self):
        a = init_net(tiny_config(seed=5))
        b = init_net(tiny_config(seed=5))
        c = init_net(tiny_config(seed=6))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)

    def test_biases_start_at_zero(self):
        net = init_net(tiny_config())
        for name in ("dense_b1", "dense_b2", "lstm_b", "rb"):
            assert not net.params[name].any()

    @pytest.mark.parametrize("kw", [
        dict(input_dim=0), dict(hidden_dense=0), dict(hidden_lstm=0),
        dict(seq_len=0), dict(epochs=0), dict(dropout_rate=1.0),
        dict(dropout_rate=-0.1), dict(huber_delta=0.0), dict(adam_lr=0.0),
        dict(adam_beta1=1.0), dict(adam_beta2=0.0),
        dict(adam_lr=float("nan")), dict(adam_lr=float("inf")),
        dict(huber_delta=float("nan")), dict(huber_delta=float("inf")),
        dict(dropout_rate=float("nan")), dict(adam_beta1=float("-inf")),
        dict(adam_beta2=float("nan")),
        dict(epochs=2.5), dict(hidden_lstm=2.5), dict(input_dim=3.0),
        dict(hidden_dense=4.5), dict(seq_len=6.0), dict(seed=0.5),
    ])
    def test_config_validation(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            tiny_config(**kw).check()

    def test_init_equals_per_gate_draws(self):
        # The fused LSTM arrays hold the per-gate blocks drawn in the order
        # dense_w1, dense_w2, w_i..w_c, u_i..u_c, rw, each at scale 1/sqrt(rows).
        cfg = NetConfig(input_dim=3, hidden_dense=5, hidden_lstm=4, seed=17)
        d, hd, hl = cfg.input_dim, cfg.hidden_dense, cfg.hidden_lstm
        rng = np.random.default_rng(cfg.seed)
        dense_w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hd))
        dense_w2 = rng.normal(0.0, 1.0 / np.sqrt(hd), size=(hd, 1))
        w = [rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hl)) for _ in "ifoc"]
        u = [rng.normal(0.0, 1.0 / np.sqrt(hl), size=(hl, hl)) for _ in "ifoc"]
        rw = rng.normal(0.0, 1.0 / np.sqrt(hl), size=(hl, 1))
        p = init_net(cfg).params
        assert np.array_equal(p["dense_w1"], dense_w1)
        assert np.array_equal(p["dense_w2"], dense_w2)
        assert np.array_equal(p["lstm_w"], np.concatenate(w, axis=1))
        assert np.array_equal(p["lstm_u"], np.concatenate(u, axis=1))
        assert np.array_equal(p["rw"], rw)


class TestHuber:
    def test_quadratic_zone(self):
        assert huber_loss(0.0, 1.0) == 0.0
        assert huber_loss(0.5, 1.0) == 0.125
        assert huber_loss(-0.5, 1.0) == 0.125
        assert huber_loss(1.0, 1.0) == 0.5

    def test_linear_zone(self):
        assert huber_loss(2.0, 1.0) == 1.5
        assert huber_loss(-3.0, 1.0) == 2.5
        assert huber_loss(3.0, 2.0) == 6.0 - 2.0

    def test_bad_delta(self):
        for delta in (0.0, -1.0, math.nan, math.inf, "1"):
            with pytest.raises(ValueError, match="delta"):
                huber_loss(1.0, delta)


class TestForward:
    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            cfg = tiny_config(input_dim=int(rng.integers(1, 4)),
                              hidden_dense=int(rng.integers(2, 6)),
                              hidden_lstm=int(rng.integers(2, 5)),
                              seq_len=int(rng.integers(2, 7)),
                              seed=trial)
            net = init_net(cfg)
            for k in net.params:
                net.params[k] = net.params[k] + rng.normal(0, 0.4, net.params[k].shape)
            seq = rng.normal(0, 1, (cfg.seq_len, cfg.input_dim))
            assert forward(net, seq) == pytest.approx(naive_forward(net, seq), abs=1e-10)

    def test_all_zero_params_predict_zero(self):
        cfg = tiny_config()
        net = init_net(cfg)
        for k in net.params:
            net.params[k] = np.zeros_like(net.params[k])
        seq = np.random.default_rng(0).normal(0, 1, (cfg.seq_len, cfg.input_dim))
        assert forward(net, seq) == 0.0

    def test_eval_mode_deterministic_across_seeds(self):
        cfg = tiny_config(dropout_rate=0.5)
        net = init_net(cfg)
        seq = np.random.default_rng(1).normal(0, 1, (cfg.seq_len, cfg.input_dim))
        a = forward(net, seq, train_mode=False, seed=1)
        b = forward(net, seq, train_mode=False, seed=999)
        assert a == b

    def test_train_mode_dropout_is_seeded(self):
        cfg = tiny_config(dropout_rate=0.5, seed=3)
        net = init_net(cfg)
        rng = np.random.default_rng(4)
        for k in net.params:
            net.params[k] = net.params[k] + rng.normal(0, 0.5, net.params[k].shape)
        seq = rng.normal(0, 1, (cfg.seq_len, cfg.input_dim))
        a = forward(net, seq, train_mode=True, seed=7)
        b = forward(net, seq, train_mode=True, seed=7)
        c = forward(net, seq, train_mode=True, seed=8)
        assert a == b
        assert a != c  # different mask with overwhelming probability

    def test_branch_outputs_sum_exactly(self):
        cfg = tiny_config(seed=9)
        net = init_net(cfg)
        rng = np.random.default_rng(10)
        for k in net.params:
            net.params[k] = net.params[k] + rng.normal(0, 0.5, net.params[k].shape)
        seq = rng.normal(0, 1, (cfg.seq_len, cfg.input_dim))
        dense_only = net.copy()
        dense_only.params["rw"] = np.zeros_like(net.params["rw"])
        dense_only.params["rb"] = np.zeros_like(net.params["rb"])
        recurrent_only = net.copy()
        recurrent_only.params["dense_w2"] = np.zeros_like(net.params["dense_w2"])
        recurrent_only.params["dense_b2"] = np.zeros_like(net.params["dense_b2"])
        assert forward(net, seq) == forward(dense_only, seq) + forward(recurrent_only, seq)

    def test_shape_errors(self):
        net = init_net(tiny_config())
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 2)))  # wrong seq_len
        with pytest.raises(ValueError):
            forward(net, np.zeros((3, 3)))  # wrong input_dim
        with pytest.raises(ValueError):
            forward(net, np.zeros(6))
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros((4, 3, 2))[:, :2, :])


class TestBackward:
    def test_gradients_match_central_differences(self):
        # Analytic BPTT gradients against finite differences of the public
        # forward + scalar Huber path, dropout off.
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(6):
            cfg = tiny_config(input_dim=int(rng.integers(1, 4)),
                              hidden_dense=int(rng.integers(2, 5)),
                              hidden_lstm=int(rng.integers(2, 4)),
                              seq_len=int(rng.integers(2, 6)),
                              seed=trial)
            net = init_net(cfg)
            for k in net.params:
                net.params[k] = net.params[k] + rng.normal(0, 0.3, net.params[k].shape)
            x = rng.normal(0, 1, (4, cfg.seq_len, cfg.input_dim))
            y = rng.normal(0, 1, 4)
            loss, grads = backward(net, x, y)
            assert loss == pytest.approx(public_loss(net, x, y), rel=1e-12)
            h = 1e-5
            for name in net.params:
                flat = net.params[name].reshape(-1)
                gflat = grads[name].reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = public_loss(net, x, y)
                    flat[i] = orig - h
                    lm = public_loss(net, x, y)
                    flat[i] = orig
                    fd = (lp - lm) / (2 * h)
                    err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
                    worst = max(worst, err)
        assert worst < 1e-4

    def test_mse_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        cfg = tiny_config(seed=1)
        net = init_net(cfg)
        for k in net.params:
            net.params[k] = net.params[k] + rng.normal(0, 0.3, net.params[k].shape)
        x = rng.normal(0, 1, (5, cfg.seq_len, cfg.input_dim))
        y = rng.normal(0, 1, 5)

        def mse_of():
            r = forward_batch(net, x) - y
            return float(np.mean(r * r))

        loss, grads = backward(net, x, y, loss_kind="mse")
        assert loss == pytest.approx(mse_of(), rel=1e-12)
        h = 1e-5
        for name in ("dense_w1", "lstm_w", "lstm_u", "rw", "lstm_b"):
            flat = net.params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = mse_of()
                flat[i] = orig - h
                lm = mse_of()
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(gflat[i] - fd) / max(1.0, abs(fd)) < 1e-4

    def test_l2_mix_adds_scaled_mse(self):
        rng = np.random.default_rng(6)
        cfg_plain = tiny_config(seed=2)
        cfg_mix = tiny_config(seed=2, l2_mix=True)
        net_plain = init_net(cfg_plain)
        net_mix = init_net(cfg_mix)  # same seed -> same params
        x = rng.normal(0, 1, (6, 3, 2))
        y = rng.normal(0, 3, 6)  # large residuals exercise the linear zone
        loss_plain, _ = backward(net_plain, x, y)
        loss_mix, _ = backward(net_mix, x, y)
        r = forward_batch(net_plain, x) - y
        assert loss_mix == pytest.approx(loss_plain + 0.05 * float(np.mean(r * r)), rel=1e-12)

    def test_zero_residual_gives_zero_gradients(self):
        cfg = tiny_config(seed=4)
        net = init_net(cfg)
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (5, cfg.seq_len, cfg.input_dim))
        y = forward_batch(net, x)
        loss, grads = backward(net, x, y)
        assert loss == 0.0
        for g in grads.values():
            assert not g.any()

    def test_batch_duplication_preserves_loss_and_gradients(self):
        cfg = tiny_config(seed=5)
        net = init_net(cfg)
        rng = np.random.default_rng(12)
        for k in net.params:
            net.params[k] = net.params[k] + rng.normal(0, 0.4, net.params[k].shape)
        x = rng.normal(0, 1, (7, cfg.seq_len, cfg.input_dim))
        y = rng.normal(0, 1, 7)
        loss1, grads1 = backward(net, x, y)
        loss2, grads2 = backward(net, np.repeat(x, 2, axis=0), np.repeat(y, 2))
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        for name in grads1:
            np.testing.assert_allclose(grads2[name], grads1[name], rtol=1e-10, atol=1e-14)

    def test_dropout_gradient_matches_masked_subnetwork(self):
        # With a fixed mask seed, gradients must differentiate the sampled
        # subnetwork, i.e. match finite differences of the masked forward.
        cfg = tiny_config(dropout_rate=0.5, seed=6)
        net = init_net(cfg)
        rng = np.random.default_rng(13)
        for k in net.params:
            net.params[k] = net.params[k] + rng.normal(0, 0.4, net.params[k].shape)
        x = rng.normal(0, 1, (4, cfg.seq_len, cfg.input_dim))
        y = rng.normal(0, 1, 4)

        def masked_loss():
            preds = forward_batch(net, x, train_mode=True, seed=42)
            return float(np.mean([huber_loss(float(r), cfg.huber_delta) for r in preds - y]))

        _, grads = backward(net, x, y, train_mode=True, seed=42)
        h = 1e-5
        flat = net.params["dense_w1"].reshape(-1)
        gflat = grads["dense_w1"].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = masked_loss()
            flat[i] = orig - h
            lm = masked_loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(gflat[i] - fd) / max(1.0, abs(fd)) < 1e-4

    def test_target_shape_mismatch(self):
        net = init_net(tiny_config())
        with pytest.raises(ValueError):
            backward(net, np.zeros((4, 3, 2)), np.zeros(5))

    def test_unknown_loss_kind(self):
        net = init_net(tiny_config())
        with pytest.raises(ValueError):
            backward(net, np.zeros((2, 3, 2)), np.zeros(2), loss_kind="hinge")

    def test_empty_batch(self):
        net = init_net(tiny_config())
        with pytest.raises(ValueError, match="empty"):
            backward(net, np.zeros((0, 3, 2)), np.zeros(0))


class TestFeatureMajorMatchesBatchMajor:
    # The recurrence runs feature-major; the batch-major pair it replaced is
    # the oracle in tests/helpers.py.
    SHAPES = [  # (hidden_lstm, input_dim, seq_len)
        (1, 1, 1), (3, 2, 5), (16, 3, 16), (5, 4, 2),
    ]
    MODES = [  # (loss_kind, l2_mix, dropout_rate, train_mode)
        ("huber", False, 0.0, False),
        ("huber", False, 0.3, True),
        ("mse", False, 0.2, True),
        ("huber", True, 0.2, True),
        ("huber", True, 0.0, False),
    ]

    @pytest.mark.parametrize("batch", [1, 2, 57, 228])
    def test_seeded_sweep(self, batch):
        rng = np.random.default_rng(batch)
        for hidden, dim, steps in self.SHAPES:
            for loss_kind, l2_mix, rate, train_mode in self.MODES:
                cfg = NetConfig(input_dim=dim, hidden_dense=5, hidden_lstm=hidden,
                                seq_len=steps, dropout_rate=rate, l2_mix=l2_mix,
                                seed=int(rng.integers(100)))
                net = init_net(cfg)
                for k in net.params:
                    net.params[k] = net.params[k] + rng.normal(0, 0.3, net.params[k].shape)
                x = rng.normal(0, 1, (batch, steps, dim))
                y = rng.normal(0, 1.5, batch)  # both Huber zones
                assert_matches_batch_major(net, x, y, loss_kind=loss_kind,
                                           train_mode=train_mode, seed=int(rng.integers(100)))

    def test_default_config_at_benchmark_batch(self):
        cfg = NetConfig(input_dim=3)
        net = init_net(cfg)
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (228, cfg.seq_len, 3))
        y = rng.normal(0, 1, 228)
        assert_matches_batch_major(net, x, y, train_mode=True, seed=11)


class TestBuffersUntouched:
    def _case(self):
        cfg = NetConfig(input_dim=3, hidden_dense=5, hidden_lstm=4, seq_len=6,
                        dropout_rate=0.25)
        net = init_net(cfg)
        rng = np.random.default_rng(21)
        for k in net.params:
            net.params[k] = net.params[k] + rng.normal(0, 0.3, net.params[k].shape)
        big = rng.normal(0, 1, (2 * 9, cfg.seq_len, 2 * cfg.input_dim))
        x = big[::2, :, 1::2]  # a strided view
        y = big[1::2, 0, 0]
        assert not x.flags.c_contiguous and not y.flags.c_contiguous
        return net, x, y

    def test_inputs_and_params_stay_bit_identical(self):
        net, x, y = self._case()
        before = [a.tobytes() for a in (x, y, *net.params.values())]
        backward(net, x, y, train_mode=True, seed=3)
        backward(net, x, y, loss_kind="mse")
        forward_batch(net, x, train_mode=True, seed=3)
        forward_batch(net, x)
        assert [a.tobytes() for a in (x, y, *net.params.values())] == before

    def test_strided_input_gives_the_contiguous_result(self):
        net, x, y = self._case()
        loss, grads = backward(net, x, y, train_mode=True, seed=3)
        loss_c, grads_c = backward(net, np.ascontiguousarray(x), np.ascontiguousarray(y),
                                   train_mode=True, seed=3)
        assert loss == loss_c
        for name in grads:
            np.testing.assert_array_equal(grads[name], grads_c[name])
        np.testing.assert_array_equal(forward_batch(net, x, train_mode=True, seed=3),
                                      forward_batch(net, np.ascontiguousarray(x),
                                                    train_mode=True, seed=3))

    def test_gradients_own_their_memory(self):
        net, x, y = self._case()
        _, grads = backward(net, x, y, train_mode=True, seed=3)
        pred = forward_batch(net, x)
        for name, g in grads.items():
            assert g.shape == net.params[name].shape
            assert g.flags.owndata, name
            for other in (x, y, *net.params.values()):
                assert not np.shares_memory(g, other), name
        # The LSTM gradients are split from one accumulator: none may overlap another.
        for a, b in itertools.combinations(grads, 2):
            assert not np.shares_memory(grads[a], grads[b]), (a, b)
        for other in (x, *net.params.values()):
            assert not np.shares_memory(pred, other)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        cfg = tiny_config(adam_lr=0.05)
        net = init_net(cfg)
        grads = {k: np.full_like(v, 2.0) if v.size else v for k, v in net.params.items()}
        grads["dense_w1"] = -3.0 * np.ones_like(net.params["dense_w1"])
        state = init_adam_state(cfg)
        new_params, state = adam_step(net.params, grads, state, 1, cfg)
        # m_hat = g, v_hat = g^2, so the update is lr * g / (|g| + eps).
        step = new_params["dense_w1"] - net.params["dense_w1"]
        np.testing.assert_allclose(step, 0.05 * np.ones_like(step), rtol=1e-6)
        step2 = new_params["lstm_w"] - net.params["lstm_w"]
        np.testing.assert_allclose(step2, -0.05 * np.ones_like(step2), rtol=1e-6)

    def test_zero_gradient_leaves_params_unchanged(self):
        cfg = tiny_config()
        net = init_net(cfg)
        grads = {k: np.zeros_like(v) for k, v in net.params.items()}
        new_params, _ = adam_step(net.params, grads, init_adam_state(cfg), 1, cfg)
        for k in net.params:
            assert np.array_equal(new_params[k], net.params[k])

    def test_does_not_mutate_inputs(self):
        cfg = tiny_config()
        net = init_net(cfg)
        before = {k: v.copy() for k, v in net.params.items()}
        grads = {k: np.ones_like(v) for k, v in net.params.items()}
        state = init_adam_state(cfg)
        adam_step(net.params, grads, state, 1, cfg)
        for k in before:
            assert np.array_equal(net.params[k], before[k])
            assert not state.m[k].any()

    def test_bias_correction_second_step(self):
        # Two identical gradient steps: m_hat and v_hat stay g and g^2, so the
        # update size is the same both times (up to eps).
        cfg = tiny_config(adam_lr=0.01)
        net = init_net(cfg)
        grads = {k: 0.5 * np.ones_like(v) for k, v in net.params.items()}
        state = init_adam_state(cfg)
        p1, state = adam_step(net.params, grads, state, 1, cfg)
        p2, state = adam_step(p1, grads, state, 2, cfg)
        step1 = p1["dense_w1"] - net.params["dense_w1"]
        step2 = p2["dense_w1"] - p1["dense_w1"]
        np.testing.assert_allclose(step1, step2, rtol=1e-6)

    def test_step_index_validation(self):
        cfg = tiny_config()
        net = init_net(cfg)
        grads = {k: np.zeros_like(v) for k, v in net.params.items()}
        with pytest.raises(ValueError):
            adam_step(net.params, grads, init_adam_state(cfg), 0, cfg)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3, "0.1"])
    def test_bad_lr_override(self, lr):
        cfg = tiny_config()
        net = init_net(cfg)
        grads = {k: np.ones_like(v) for k, v in net.params.items()}
        with pytest.raises(ValueError, match="lr"):
            adam_step(net.params, grads, init_adam_state(cfg), 1, cfg, lr=lr)

    def test_zero_lr_leaves_params_unchanged(self):
        cfg = tiny_config()
        net = init_net(cfg)
        grads = {k: np.ones_like(v) for k, v in net.params.items()}
        new_params, _ = adam_step(net.params, grads, init_adam_state(cfg), 1, cfg, lr=0.0)
        for k in net.params:
            assert np.array_equal(new_params[k], net.params[k])

    def test_lr_override(self):
        cfg = tiny_config(adam_lr=1e-3)
        net = init_net(cfg)
        grads = {k: np.ones_like(v) for k, v in net.params.items()}
        p_big, _ = adam_step(net.params, grads, init_adam_state(cfg), 1, cfg, lr=0.1)
        step = p_big["dense_w1"] - net.params["dense_w1"]
        np.testing.assert_allclose(step, -0.1 * np.ones_like(step), rtol=1e-6)


class TestTraining:
    def test_loss_curve_non_increasing_after_smoothing(self):
        cfg = tiny_config(input_dim=2, hidden_dense=8, hidden_lstm=4, seq_len=6,
                          epochs=100, adam_lr=1e-3, seed=1)
        net = init_net(cfg)
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (60, 6, 2))
        y = 0.7 * x[:, -1, 0] - 0.3 * x[:, -1, 1] + 0.05 * rng.normal(0, 1, 60)
        _, losses = train_net(net, x, y)
        assert len(losses) == 100
        smoothed = np.convolve(losses, np.ones(5) / 5.0, "valid")
        assert np.all(np.diff(smoothed) <= 1e-9)

    def test_constant_zero_targets_reach_near_zero_mse(self):
        cfg = tiny_config(input_dim=2, hidden_dense=8, hidden_lstm=4, seq_len=4,
                          epochs=50, adam_lr=0.01, seed=3)
        net = init_net(cfg)
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (40, 4, 2))
        y = np.zeros(40)
        trained, losses = train_net(net, x, y, loss_kind="mse")
        final_mse = float(np.mean(forward_batch(trained, x) ** 2))
        assert final_mse < 5e-3
        assert final_mse < losses[0] / 50.0

    @pytest.mark.parametrize("kw, name", [
        (dict(epochs=-1), "epochs"), (dict(epochs=2.0), "epochs"),
        (dict(lr=math.nan), "lr"), (dict(epochs=0, lr=math.inf), "lr"),
        (dict(epochs=0, lr=-0.1), "lr"),
    ])
    def test_bad_overrides(self, kw, name):
        cfg = tiny_config(epochs=2)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (5, cfg.seq_len, cfg.input_dim))
        with pytest.raises(ValueError, match=name):
            train_net(init_net(cfg), x, np.zeros(5), **kw)

    def test_training_is_deterministic(self):
        cfg = tiny_config(epochs=10, dropout_rate=0.2, seed=8)
        rng = np.random.default_rng(14)
        x = rng.normal(0, 1, (20, cfg.seq_len, cfg.input_dim))
        y = rng.normal(0, 1, 20)
        a, losses_a = train_net(init_net(cfg), x, y)
        b, losses_b = train_net(init_net(cfg), x, y)
        assert losses_a == losses_b
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])


class TestSequencesAndFeatures:
    def test_build_sequences_window_content(self):
        feats = np.arange(12.0).reshape(6, 2)
        targs = np.arange(6.0)
        x, y = build_sequences(feats, targs, 3)
        assert x.shape == (4, 3, 2)
        np.testing.assert_array_equal(x[0], feats[0:3])
        np.testing.assert_array_equal(x[-1], feats[3:6])
        np.testing.assert_array_equal(y, targs[2:])

    def test_build_sequences_errors(self):
        with pytest.raises(ValueError):
            build_sequences(np.zeros((4, 2)), np.zeros(3), 2)
        with pytest.raises(ValueError):
            build_sequences(np.zeros((2, 2)), np.zeros(2), 3)
        for seq_len in (0, -2, 2.5, "2"):
            with pytest.raises(ValueError, match="seq_len"):
                build_sequences(np.zeros((5, 3)), np.zeros(5), seq_len)

    def test_variant_feature_widths(self, match_300):
        mom = momentum_series(match_300, MomentumConfig())
        series = dbwp_scores(match_300, DbwpParams())
        widths = {"full": 3, "no_momentum": 1, "no_server": 2}
        for variant, width in widths.items():
            feats, targs = assemble_match_features(match_300, series, mom, variant)
            assert feats.shape == (len(series.indices), width)
            assert targs.shape == (len(series.indices),)

    def test_full_feature_columns(self, match_300):
        mom = momentum_series(match_300, MomentumConfig())
        series = dbwp_scores(match_300, DbwpParams())
        feats, targs = assemble_match_features(match_300, series, mom, "full")
        for row, idx in zip(feats, series.indices):
            assert row[0] == mom.psychological[idx]
            assert row[1] == mom.strategic[idx]
            expected = 1.0 if match_300.points[idx].server == 1 else -1.0
            assert row[2] == expected
        np.testing.assert_array_equal(targs, np.asarray(series.dbwp))

    def test_unknown_variant(self, match_300):
        mom = momentum_series(match_300, MomentumConfig())
        series = dbwp_scores(match_300, DbwpParams())
        with pytest.raises(ValueError):
            assemble_match_features(match_300, series, mom, "everything")

    def test_variant_registry(self):
        assert NEURAL_VARIANTS == ("full", "no_momentum", "no_server")


@pytest.fixture(scope="module")
def bundle(match_300):
    mom = momentum_series(match_300, MomentumConfig())
    series = dbwp_scores(match_300, DbwpParams())
    return match_300, series, mom


class TestTrainDeepLstm:
    def test_report_shape_and_determinism(self, bundle):
        cfg = tiny_config(input_dim=3, hidden_dense=6, hidden_lstm=3, seq_len=6, epochs=8)
        a = train_deep_lstm([bundle], cfg, variant="full")
        b = train_deep_lstm([bundle], cfg, variant="full")
        assert a.variant == "full"
        assert len(a.epoch_losses) == 8
        assert a.test_mse >= 0.0
        assert a.per_repeat_mse == (a.test_mse,)
        assert a.epoch_losses == b.epoch_losses
        assert a.test_mse == b.test_mse
        assert a.config.input_dim == 3

    def test_bare_triple_accepted(self, bundle):
        cfg = tiny_config(input_dim=3, hidden_dense=6, hidden_lstm=3, seq_len=6, epochs=3)
        a = train_deep_lstm(bundle, cfg, variant="full")
        b = train_deep_lstm([bundle], cfg, variant="full")
        assert a.test_mse == b.test_mse

    def test_input_dim_follows_variant(self, bundle):
        cfg = tiny_config(input_dim=3, hidden_dense=6, hidden_lstm=3, seq_len=6, epochs=3)
        r = train_deep_lstm([bundle], cfg, variant="no_momentum")
        assert r.config.input_dim == 1

    def test_repeats_average(self, bundle):
        cfg = tiny_config(input_dim=3, hidden_dense=6, hidden_lstm=3, seq_len=6, epochs=4)
        r = train_deep_lstm([bundle], cfg, variant="full", repeats=3)
        assert len(r.per_repeat_mse) == 3
        assert r.test_mse == pytest.approx(float(np.mean(r.per_repeat_mse)), rel=1e-12)
        assert len(set(r.per_repeat_mse)) > 1  # different seeds, different runs

    def test_constructed_momentum_dependence(self, bundle):
        # Targets built as a (noisy) linear function of psychological momentum:
        # the full variant must beat the variant that drops momentum columns.
        timeline, real, mom = bundle
        rng = np.random.default_rng(7)
        psych = np.array([mom.psychological[i] for i in real.indices])
        fake_vals = 0.05 * psych + 0.002 * rng.normal(0, 1, psych.size)
        fake = DbwpSeries(indices=real.indices, elapsed_s=real.elapsed_s,
                          win_rate=real.win_rate,
                          dbwp=tuple(float(v) for v in fake_vals),
                          params=real.params)
        cfg = NetConfig(input_dim=3, hidden_dense=8, hidden_lstm=4, seq_len=6,
                        dropout_rate=0.0, adam_lr=0.01, epochs=150, seed=0)
        full = train_deep_lstm([(timeline, fake, mom)], cfg, variant="full")
        no_mom = train_deep_lstm([(timeline, fake, mom)], cfg, variant="no_momentum")
        assert full.test_mse < no_mom.test_mse

    def test_too_few_sequences(self, bundle):
        # Six rows with seq_len 6 give a single sequence, so the 80/20
        # chronological split has an empty training side.
        timeline, series, mom = bundle
        short = DbwpSeries(indices=series.indices[:6], elapsed_s=series.elapsed_s[:6],
                           win_rate=series.win_rate[:6], dbwp=series.dbwp[:6],
                           params=series.params)
        cfg = tiny_config(input_dim=3, seq_len=6, epochs=2)
        with pytest.raises(ValueError):
            train_deep_lstm([(timeline, short, mom)], cfg, variant="full")

    def test_bad_repeats(self, bundle):
        cfg = tiny_config(input_dim=3, seq_len=6, epochs=2)
        with pytest.raises(ValueError):
            train_deep_lstm([bundle], cfg, variant="full", repeats=0)

    def test_report_serialization(self, bundle):
        import json

        cfg = tiny_config(input_dim=3, hidden_dense=6, hidden_lstm=3, seq_len=6, epochs=3)
        report = train_deep_lstm([bundle], cfg, variant="full")
        doc = json.loads(train_report_to_json(report))
        assert doc["format_version"] == 1
        assert doc["variant"] == "full"
        assert doc["test_mse"] == report.test_mse
        assert train_report_to_json(report) == train_report_to_json(report)

        buf = io.StringIO()
        write_loss_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + len(report.epoch_losses)
        assert lines[1].startswith("1,")
