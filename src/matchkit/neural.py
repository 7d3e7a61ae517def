"""From-scratch two-branch regressor: dense path + LSTM path, summed.

The dense branch reads the last time step of the input sequence through
affine -> SELU -> (inverted) dropout -> affine.  The recurrent branch runs a
single standard LSTM cell over the whole sequence and maps the final hidden
state through an affine readout.  The scalar prediction is the sum of the two
branch outputs.  Training is full-batch Adam on Huber loss (optionally mixed
with a small MSE term); gradients come from handwritten backprop through
time and are verifiable against central finite differences.

The LSTM gates are fused as in cuDNN (Appleyard, Kocisky & Blunsom 2016):
`lstm_w (d, 4h)`, `lstm_u (h, 4h)` and `lstm_b (4h,)` with gate columns
i, f, o, c.  The recurrence runs feature-major, as cuDNN does, on one
augmented GEMM per step: the call stacks `M = [lstm_w; lstm_u; lstm_b]'`
`(4h, d + h + 1)` once and keeps the rows `[x_t; h_t; 1]` of every step in
one `(T + 1, d + h + 1, B)` array, with x copied in and the ones row set
once; each step writes its h straight into the next step's rows.  A step's
pre-activation is `M @ [x_t; h_t; 1]` into its `(4h, B)` gate block, so each
gate block is a contiguous row block; it halves rows i, f, o and takes one
tanh over the whole block, then adds 1 and halves rows i, f, o again: the
sigmoid is 0.5*(1 + tanh(x/2)), branch-free and overflow-free.  Backprop
through time reuses one pre-activation gradient buffer and one scratch
buffer across steps and accumulates the gradient of `[W; U; b]` in one
GEMM a step, split into the three parameter gradients at the end.  Every
elementwise formula keeps the operand order of the per-gate equations, so
only the matmul summation order (the bias and its gradient included)
differs from a batch-major `(B, 4h)` recurrence (kept as the test oracle):
losses and gradients move at rounding level, which moves `train-lstm` and
`maml` outputs at that level.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._checks import check_finite, check_int, require_finite, require_int
from .dbwp import DbwpSeries
from .ingest import MatchTimeline
from .momentum import MomentumSeries

__all__ = [
    "SELU_ALPHA",
    "SELU_LAMBDA",
    "ADAM_EPS",
    "NetConfig",
    "ParallelNet",
    "TrainReport",
    "NEURAL_VARIANTS",
    "VARIANT_COLUMNS",
    "param_specs",
    "param_count",
    "init_net",
    "huber_loss",
    "forward",
    "forward_batch",
    "backward",
    "adam_step",
    "init_adam_state",
    "train_net",
    "build_sequences",
    "assemble_match_features",
    "train_deep_lstm",
    "train_report_to_json",
    "write_loss_csv",
]

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805
ADAM_EPS = 1e-8

# Feature columns of each variant; the drop variants mirror the two-column ablation.
VARIANT_COLUMNS = {
    "full": ("psychological", "strategic", "server_signed"),
    "no_momentum": ("server_signed",),
    "no_server": ("psychological", "strategic"),
}
NEURAL_VARIANTS = tuple(VARIANT_COLUMNS)


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden_dense: int = 32
    hidden_lstm: int = 16
    dropout_rate: float = 0.2
    huber_delta: float = 1.0
    adam_lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epochs: int = 100
    seq_len: int = 16
    seed: int = 0
    l2_mix: bool = False  # adds 0.05 * MSE to the Huber objective

    def check(self) -> None:
        require_finite(self, "dropout_rate", "huber_delta", "adam_lr", "adam_beta1", "adam_beta2")
        require_int(self, "input_dim", "hidden_dense", "hidden_lstm", "epochs", "seq_len", "seed")
        for name in ("input_dim", "hidden_dense", "hidden_lstm", "epochs", "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.huber_delta <= 0:
            raise ValueError(f"huber_delta must be positive, got {self.huber_delta}")
        if self.adam_lr <= 0:
            raise ValueError(f"adam_lr must be positive, got {self.adam_lr}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {getattr(self, name)}")


def param_specs(config: NetConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Ordered (name, shape) pairs for every trainable array."""
    d, hd, hl = config.input_dim, config.hidden_dense, config.hidden_lstm
    return (
        ("dense_w1", (d, hd)), ("dense_b1", (hd,)),
        ("dense_w2", (hd, 1)), ("dense_b2", (1,)),
        ("lstm_w", (d, 4 * hl)), ("lstm_u", (hl, 4 * hl)), ("lstm_b", (4 * hl,)),
        ("rw", (hl, 1)), ("rb", (1,)),
    )


def param_count(config: NetConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in param_specs(config))


@dataclass(eq=False)
class ParallelNet:
    params: dict[str, np.ndarray]
    config: NetConfig

    def copy(self) -> "ParallelNet":
        return ParallelNet({k: v.copy() for k, v in self.params.items()}, self.config)


def init_net(config: NetConfig) -> ParallelNet:
    config.check()
    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_specs(config):
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            # Fused LSTM matrices are drawn one gate block at a time (i, f, o,
            # c), so a seed gives the weights of separate per-gate arrays.
            rows, cols = shape
            blocks = 4 if name.startswith("lstm_") else 1
            params[name] = np.hstack([rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols // blocks))
                                      for _ in range(blocks)])
    return ParallelNet(params, config)


def huber_loss(residual: float, delta: float) -> float:
    """0.5*r^2 inside |r| <= delta, delta*|r| - 0.5*delta^2 outside."""
    check_finite("delta", delta)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    r = abs(residual)
    if r <= delta:
        return 0.5 * r * r
    return delta * r - 0.5 * delta * delta


def _selu(x: np.ndarray) -> np.ndarray:
    # exp only sees the non-positive side, so it cannot overflow
    neg = np.exp(np.minimum(x, 0.0)) - 1.0
    return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * neg)


def _selu_grad(x: np.ndarray) -> np.ndarray:
    return SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(np.minimum(x, 0.0)))


def _check_batch(net: ParallelNet, x: np.ndarray) -> np.ndarray:
    cfg = net.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.seq_len or x.shape[2] != cfg.input_dim:
        raise ValueError(
            f"batch shape {x.shape} does not match (any, seq_len={cfg.seq_len}, "
            f"input_dim={cfg.input_dim})"
        )
    return x


def _forward_cached(net: ParallelNet, x: np.ndarray, train_mode: bool, seed: int):
    """Batch forward pass keeping every intermediate needed for backprop.

    Each step reads its `[x_t; h_t; 1]` rows from the per-call
    `(T + 1, d + h + 1, B)` array `z` and writes h_{t+1} into the next step's
    rows, its gates into a `(T, 4h, B)` array and its cell and tanh(c) into
    `(T + 1, h, B)` and `(T, h, B)` arrays, which backward reads in reverse.
    """
    p = net.params
    cfg = net.config
    B, T, _ = x.shape

    last = x[:, -1, :]
    a1 = last @ p["dense_w1"] + p["dense_b1"]
    z1 = _selu(a1)
    if train_mode and cfg.dropout_rate > 0.0:
        rng = np.random.default_rng(seed)
        keep = rng.random(z1.shape) >= cfg.dropout_rate
        drop_scale = keep / (1.0 - cfg.dropout_rate)
    else:
        drop_scale = np.ones_like(z1)
    d1 = z1 * drop_scale
    dense_out = d1 @ p["dense_w2"] + p["dense_b2"]  # (B, 1)

    d, H = cfg.input_dim, cfg.hidden_lstm
    # M = [W; U; b]' against rows [x_t; h_t; 1]: a step's pre-activation is one GEMM.
    m = np.vstack((p["lstm_w"], p["lstm_u"], p["lstm_b"])).T  # (4h, d + h + 1)
    z = np.empty((T + 1, d + H + 1, B))
    z[:T, :d] = x.transpose(1, 2, 0)
    z[T, :d] = 0.0  # no input after the last step; only h_T is read there
    z[0, d:d + H] = 0.0
    z[:, d + H] = 1.0
    gates = np.empty((T, 4 * H, B))  # rows i, f, o hold sigmoids, rows c tanh
    cs = np.empty((T + 1, H, B))
    tanh_cs = np.empty((T, H, B))
    ig = np.empty((H, B))
    cs[0] = 0.0
    for t in range(T):
        a = np.matmul(m, z[t], out=gates[t])
        # sigmoid(x) = 0.5 * (1 + tanh(x / 2)) on rows i, f, o; tanh on rows c
        sig = a[:3 * H]
        sig *= 0.5
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        gi, gf, go, gc = a[:H], a[H:2 * H], a[2 * H:3 * H], a[3 * H:]
        c_new = np.multiply(gf, cs[t], out=cs[t + 1])
        c_new += np.multiply(gi, gc, out=ig)
        np.tanh(c_new, out=tanh_cs[t])
        np.multiply(go, tanh_cs[t], out=z[t + 1, d:d + H])
    recurrent_out = p["rw"].T @ z[T, d:d + H] + p["rb"][:, None]  # (1, B)

    pred = dense_out[:, 0] + recurrent_out[0]
    cache = {"last": last, "a1": a1, "d1": d1, "drop": drop_scale,
             "z": z, "gates": gates, "cs": cs, "tanh_cs": tanh_cs}
    return pred, cache


def forward_batch(net: ParallelNet, x, train_mode: bool = False, seed: int = 0) -> np.ndarray:
    x = _check_batch(net, x)
    pred, _ = _forward_cached(net, x, train_mode, seed)
    return pred


def forward(net: ParallelNet, sequence, train_mode: bool = False, seed: int = 0) -> float:
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2:
        raise ValueError(f"sequence must be 2-D, got shape {sequence.shape}")
    return float(forward_batch(net, sequence[None, :, :], train_mode, seed)[0])


def _loss_terms(pred: np.ndarray, y: np.ndarray, cfg: NetConfig, loss_kind: str):
    """Mean loss and dLoss/dpred for 'huber' (optionally +0.05*MSE) or 'mse'."""
    r = pred - y
    B = r.shape[0]
    if loss_kind == "mse":
        return float(np.mean(r * r)), 2.0 * r / B
    if loss_kind != "huber":
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    delta = cfg.huber_delta
    small = np.abs(r) <= delta
    losses = np.where(small, 0.5 * r * r, delta * np.abs(r) - 0.5 * delta * delta)
    dpred = np.where(small, r, delta * np.sign(r)) / B
    loss = float(np.mean(losses))
    if cfg.l2_mix:
        loss += 0.05 * float(np.mean(r * r))
        dpred = dpred + 0.05 * 2.0 * r / B
    return loss, dpred


def backward(net: ParallelNet, x, y, *, loss_kind: str = "huber",
             train_mode: bool = False, seed: int = 0) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss over the batch and its gradient for every parameter.

    The dropout mask (train_mode only) is drawn once from `seed`, so the
    returned gradients correspond exactly to the sampled subnetwork.
    """
    x = _check_batch(net, x)
    if x.shape[0] == 0:
        raise ValueError("batch is empty")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError(f"targets shape {y.shape} does not match batch {x.shape[0]}")
    p = net.params
    cfg = net.config
    pred, cache = _forward_cached(net, x, train_mode, seed)
    loss, dpred = _loss_terms(pred, y, cfg, loss_kind)
    dout = dpred[:, None]  # (B, 1), gradient on both branch outputs

    grads = {name: np.zeros(shape) for name, shape in param_specs(cfg)}

    # Dense branch.
    grads["dense_w2"] = cache["d1"].T @ dout
    grads["dense_b2"] = dout.sum(axis=0)
    # One expression, so its temporaries are freed before the BPTT buffers exist.
    da1 = dout @ p["dense_w2"].T * cache["drop"] * _selu_grad(cache["a1"])
    grads["dense_w1"] = cache["last"].T @ da1
    grads["dense_b1"] = da1.sum(axis=0)

    # Recurrent branch, backprop through time, feature-major like the forward.
    z, cs, tanh_cs, gates = (cache[k] for k in ("z", "cs", "tanh_cs", "gates"))
    d, H = cfg.input_dim, cfg.hidden_lstm
    T, _, B = gates.shape
    grads["rw"] = z[T, d:d + H] @ dout
    grads["rb"] = dout.sum(axis=0)
    dh = p["rw"] @ dpred[None, :]  # (h, B)
    dc = np.zeros_like(dh)
    u = p["lstm_u"]
    gm = np.zeros((d + H + 1, 4 * H))  # gradient of [W; U; b], split at the end
    # One pre-activation gradient (rows i, f, o, c) and one scratch block,
    # reused by every step; each product keeps the operand order of the
    # per-gate formulas, so only the matmul summation order can move.
    da = np.empty((4 * H, B))
    dsig, da_i, da_f, da_o, da_c = da[:3 * H], da[:H], da[H:2 * H], da[2 * H:3 * H], da[3 * H:]
    scratch3 = np.empty((3 * H, B))
    scratch = scratch3[:H]
    for t in range(T - 1, -1, -1):
        g = gates[t]
        sig = g[:3 * H]
        gi, gf, go, gc = g[:H], g[H:2 * H], g[2 * H:3 * H], g[3 * H:]
        tanh_c = tanh_cs[t]
        # dc + dh * go * (1 - tanh_c * tanh_c)
        np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=scratch), out=scratch)
        np.multiply(dh, go, out=da_i)
        da_i *= scratch
        dc += da_i
        # (dc * gc, dc * c_prev, dh * tanh_c) * sig * (1 - sig)
        np.multiply(dc, gc, out=da_i)
        np.multiply(dc, cs[t], out=da_f)
        np.multiply(dh, tanh_c, out=da_o)
        dsig *= sig
        dsig *= np.subtract(1.0, sig, out=scratch3)
        # dc * gi * (1 - gc * gc)
        np.multiply(dc, gi, out=da_c)
        da_c *= np.subtract(1.0, np.multiply(gc, gc, out=scratch), out=scratch)
        gm += z[t] @ da.T
        np.matmul(u, da, out=dh)
        dc *= gf
    grads["lstm_w"] = gm[:d].copy()
    grads["lstm_u"] = gm[d:d + H].copy()
    grads["lstm_b"] = gm[d + H].copy()
    return loss, grads


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam_state(config: NetConfig) -> AdamState:
    return AdamState(
        m={name: np.zeros(shape) for name, shape in param_specs(config)},
        v={name: np.zeros(shape) for name, shape in param_specs(config)},
    )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, t: int, config: NetConfig,
              lr: float | None = None) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns fresh params and state.

    `lr` overrides `config.adam_lr`; 0 is allowed and leaves params unchanged.
    """
    check_int("step index", t, minimum=1)
    lr = config.adam_lr if lr is None else lr
    check_finite("lr", lr, minimum=0.0)
    b1, b2 = config.adam_beta1, config.adam_beta2
    new_params, new_m, new_v = {}, {}, {}
    for name in params:
        g = grads[name]
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(m=new_m, v=new_v)


def train_net(net: ParallelNet, x, y, *, epochs: int | None = None,
              loss_kind: str = "huber", lr: float | None = None,
              train_dropout: bool = True, seed: int | None = None) -> tuple[ParallelNet, tuple[float, ...]]:
    """Full-batch Adam training; returns the trained net and per-epoch losses."""
    cfg = net.config
    epochs = cfg.epochs if epochs is None else epochs
    check_int("epochs", epochs, minimum=0)
    if lr is not None:
        check_finite("lr", lr, minimum=0.0)
    seed = cfg.seed if seed is None else seed
    params = dict(net.params)
    state = init_adam_state(cfg)
    losses = []
    current = ParallelNet(params, cfg)
    for t in range(1, epochs + 1):
        loss, grads = backward(current, x, y, loss_kind=loss_kind,
                               train_mode=train_dropout, seed=seed + t)
        params, state = adam_step(current.params, grads, state, t, cfg, lr=lr)
        current = ParallelNet(params, cfg)
        losses.append(loss)
    return current, tuple(losses)


def build_sequences(features: np.ndarray, targets: np.ndarray, seq_len: int):
    """Sliding windows of seq_len rows; each window predicts its last target."""
    check_int("seq_len", seq_len, minimum=1)
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = features.shape[0]
    if targets.shape != (n,):
        raise ValueError("features and targets disagree on row count")
    if n < seq_len:
        raise ValueError(f"{n} rows cannot form a sequence of length {seq_len}")
    x = np.stack([features[k - seq_len + 1:k + 1] for k in range(seq_len - 1, n)])
    y = targets[seq_len - 1:]
    return x, y


def assemble_match_features(timeline: MatchTimeline, dbwp: DbwpSeries,
                            momentum: MomentumSeries, variant: str = "full"):
    """Per-point feature rows at the fluctuation-score indices, plus targets.

    The columns are `VARIANT_COLUMNS[variant]`: `full` has psychological,
    strategic and server_signed; `no_momentum` keeps only the server column
    and `no_server` only the two momentum columns.
    """
    if variant not in NEURAL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {NEURAL_VARIANTS}")
    if len(momentum) != len(timeline):
        raise ValueError("momentum series is not aligned with the timeline")
    n = len(timeline)
    if any(i < 0 or i >= n for i in dbwp.indices):
        raise ValueError("fluctuation series indices fall outside the timeline")
    idx = dbwp.indices
    columns = {
        "psychological": [momentum.psychological[i] for i in idx],
        "strategic": [momentum.strategic[i] for i in idx],
        "server_signed": np.where(timeline.server[list(idx)] == 1, 1.0, -1.0),
    }
    features = np.column_stack([columns[name] for name in VARIANT_COLUMNS[variant]])
    targets = np.asarray(dbwp.dbwp, dtype=np.float64)
    return features, targets


@dataclass(frozen=True)
class TrainReport:
    variant: str
    epoch_losses: tuple[float, ...]
    test_mse: float
    per_repeat_mse: tuple[float, ...]
    config: NetConfig
    seed: int

    def __post_init__(self):
        if any(not np.isfinite(v) or v < 0 for v in self.epoch_losses):
            raise ValueError("epoch losses must be finite and non-negative")
        if not np.isfinite(self.test_mse) or self.test_mse < 0:
            raise ValueError("test MSE must be finite and non-negative")


def _standardize(train: np.ndarray, both: np.ndarray):
    mu = float(train.mean())
    sigma = float(train.std())
    if sigma < 1e-12:
        sigma = 1.0  # constant targets: leave the scale alone
    return (both - mu) / sigma


def train_deep_lstm(matches, config: NetConfig, variant: str = "full",
                    repeats: int = 1) -> TrainReport:
    """Train the two-branch regressor on fluctuation targets.

    `matches` is a sequence of (MatchTimeline, DbwpSeries, MomentumSeries)
    triples (a single triple may be passed bare).  Sequences never cross
    match boundaries; targets are standardized per match with statistics from
    that match's chronological 80% training split; the remaining 20% of
    sequences form the test set.  `config.input_dim` is overridden by the
    variant's column count.  `repeats` > 1 averages the test MSE over seeds
    config.seed .. config.seed+repeats-1.
    """
    config.check()
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if isinstance(matches, tuple) and len(matches) == 3 and isinstance(matches[0], MatchTimeline):
        matches = [matches]
    xs_train, ys_train, xs_test, ys_test = [], [], [], []
    for timeline, dbwp, momentum in matches:
        features, targets = assemble_match_features(timeline, dbwp, momentum, variant)
        x, y = build_sequences(features, targets, config.seq_len)
        n_train = (4 * x.shape[0]) // 5
        if n_train < 1 or x.shape[0] - n_train < 1:
            raise ValueError(
                f"match {timeline.match_id!r} yields only {x.shape[0]} sequences; "
                "cannot split chronologically"
            )
        y_std = _standardize(y[:n_train], y)
        xs_train.append(x[:n_train])
        ys_train.append(y_std[:n_train])
        xs_test.append(x[n_train:])
        ys_test.append(y_std[n_train:])
    x_train = np.concatenate(xs_train)
    y_train = np.concatenate(ys_train)
    x_test = np.concatenate(xs_test)
    y_test = np.concatenate(ys_test)
    # The variant dictates the feature width, so input_dim is set from it.
    base_cfg = replace(config, input_dim=x_train.shape[2])

    first_losses: tuple[float, ...] = ()
    mses = []
    for j in range(repeats):
        run_cfg = replace(base_cfg, seed=config.seed + j)
        net = init_net(run_cfg)
        net, losses = train_net(net, x_train, y_train)
        if j == 0:
            first_losses = losses
        pred = forward_batch(net, x_test, train_mode=False)
        mses.append(float(np.mean((pred - y_test) ** 2)))
    return TrainReport(
        variant=variant,
        epoch_losses=first_losses,
        test_mse=float(np.mean(mses)),
        per_repeat_mse=tuple(mses),
        config=base_cfg,
        seed=config.seed,
    )


def train_report_to_json(report: TrainReport) -> str:
    doc = asdict(report)
    doc["format_version"] = 1
    return json.dumps(doc, sort_keys=True)


def write_loss_csv(report: TrainReport, dest) -> None:
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_loss_csv(report, fh)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["epoch", "loss"])
    for k, loss in enumerate(report.epoch_losses, start=1):
        writer.writerow([k, repr(loss)])
