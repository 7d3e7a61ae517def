"""From-scratch two-branch regressor: dense path + LSTM path, summed.

The dense branch reads the last time step of the input sequence through
affine -> SELU -> (inverted) dropout -> affine.  The recurrent branch runs a
single standard LSTM cell over the whole sequence and maps the final hidden
state through an affine readout.  The scalar prediction is the sum of the two
branch outputs.  Training is full-batch Adam on Huber loss; gradients come
from handwritten backprop through time and are verifiable against central
finite differences.

Training runs data-parallel: `train_net` splits each epoch's batch into
contiguous row shards, whose boundaries depend only on the batch size (two
near-equal halves from B = 128 on, one shard below), and runs them on the
main process and a forked helper of `_fork`, the way synchronous
data-parallel SGD sums per-shard gradients (Goyal et al., arXiv:1706.02677).
`backward(rows=...)` computes one shard's share of the full-batch result:
its rows' losses and dLoss/dpred divided by the full batch size, under its
rows of the full batch's dropout mask, so every sequence keeps the
subnetwork it samples unsharded.  The main process adds the shares in shard
order and takes one Adam step, so outputs are byte-identical for any helper
count.  Against one pass over the whole batch only the summation order of
the loss and the gradients moves: a batch of 128 rows or more moves
`train-lstm` outputs at rounding level (about 1e-15 relative at most), and
a smaller batch, one shard, gives the same bytes.  With no helper the two
shards run one after another, each paying a pass's fixed per-step cost,
so in-process training is slower than one unsharded pass (11-16 % at
B = 220-300 on one core): outputs must not depend on the core count.

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

`backward` takes its working arrays (the dense branch's `(B, hidden_dense)`
arrays, z, the gates, the cells and tanh(c), and the BPTT buffers) from a
workspace, the persistent RNN workspace of the same paper: one flat float64
buffer per thread, carved into views.  Only `backward` uses it.  The
buffer holds the largest `backward` working set the thread has seen, so
later calls find these arrays in memory already mapped instead of
page-faulting fresh memory in.  The cache a call builds there is dead after
the thread's next `backward` call; returned losses, predictions and
gradients never alias the workspace.  `forward_batch` allocates per call, so
a one-off large prediction batch is not held for the thread's life, and it
keeps only the running state, since inference reads only the last h: one
step's gates and tanh(c) and two steps' z rows and cells, which the steps
take turns in.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _fork
from ._checks import check_config, check_finite, check_int, field_ranges, integer, real
from .dbwp import DbwpSeries
from .ingest import MatchTimeline, _text_dest
from .momentum import MomentumSeries

__all__ = [
    "SELU_ALPHA",
    "SELU_LAMBDA",
    "ADAM_BETA1",
    "ADAM_BETA2",
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
# Adam's moment decay rates and epsilon, at the defaults of Kingma & Ba (ICLR 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
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
    input_dim: int = integer(ge=1)
    hidden_dense: int = integer(32, ge=1)
    hidden_lstm: int = integer(16, ge=1)
    dropout_rate: float = real(0.2, ge=0, lt=1)
    huber_delta: float = real(1.0, gt=0)
    adam_lr: float = real(1e-3, gt=0)
    epochs: int = integer(100, ge=1)
    seq_len: int = integer(16, ge=1)
    seed: int = integer(0, ge=0)  # numpy's default_rng refuses a negative seed

    check = check_config


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
    """0.5*r^2 inside |r| <= delta, delta*|r| - 0.5*delta^2 outside; `delta`
    has the range that NetConfig declares for huber_delta."""
    dict(field_ranges(NetConfig))["huber_delta"].check("delta", delta)
    r = abs(residual)
    if r <= delta:
        return 0.5 * r * r
    return delta * r - 0.5 * delta * delta


def _selu(x: np.ndarray, out=None) -> np.ndarray:
    """SELU of `x`, into `out` when given."""
    # exp only sees the non-positive side, so it cannot overflow
    out = np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    out -= 1.0
    out *= SELU_ALPHA
    np.copyto(out, x, where=x > 0)
    out *= SELU_LAMBDA
    return out


def _selu_grad(x: np.ndarray, out=None) -> np.ndarray:
    """SELU's slope at `x`, into `out` when given."""
    out = np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    out *= SELU_ALPHA
    np.copyto(out, 1.0, where=x > 0)
    out *= SELU_LAMBDA
    return out


def _check_batch(net: ParallelNet, x: np.ndarray) -> np.ndarray:
    cfg = net.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.seq_len or x.shape[2] != cfg.input_dim:
        raise ValueError(
            f"batch shape {x.shape} does not match (any, seq_len={cfg.seq_len}, "
            f"input_dim={cfg.input_dim})"
        )
    return x


# Per-thread flat float64 buffer behind every backward call's working arrays.
_workspace = threading.local()


def _workspace_alloc(size: int):
    """Allocator carving the first `size` float64s of this thread's workspace.

    The workspace is replaced by one of `size`, or of twice its size if that
    is larger, when `size` does not fit.  It starts on a 64-byte (cache-line)
    boundary: one float64 past it, a backward call took 7-17 % longer
    (B = 48-400, 2-core VM, 1 BLAS thread).  Each `alloc(shape)` returns the
    next uninitialised stretch reshaped to `shape`; asking for more than
    `size` in all fails in `reshape`.
    """
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        n = max(size, 0 if buf is None else 2 * buf.size)
        raw = np.empty(n + 7)
        start = -raw.__array_interface__["data"][0] % 64 // 8
        buf = _workspace.buf = raw[start:start + n]
    region = buf[:size]
    used = 0

    def alloc(shape):
        nonlocal used
        n = math.prod(shape)
        view = region[used:used + n].reshape(shape)
        used += n
        return view

    return alloc


def _forward_cached(net: ParallelNet, x: np.ndarray, train_mode: bool, seed: int,
                    alloc=np.empty, *, keep: bool = True, first_row: int = 0):
    """Batch forward pass; with `keep`, it keeps every intermediate needed
    for backprop.

    Each step reads its `[x_t; h_t; 1]` rows from the `(T + 1, d + h + 1, B)`
    array `z` and writes h_{t+1} into the next step's rows (of step T only
    h_T is read, so its input rows stay unset), its gates into a
    `(T, 4h, B)` array and its cell and tanh(c) into `(T + 1, h, B)` and
    `(T, h, B)` arrays, which backward reads in reverse.  Without `keep`,
    as for inference, which reads only the last h, these arrays hold one
    step (two for z and the cells, which a step reads and writes) and the
    steps take turns in them.  `alloc(shape)` supplies these and the dense
    branch's `(B, hidden_dense)` arrays uninitialised: fresh ones by
    default, workspace views when backward calls.  `x` is rows
    `first_row ..` of a larger batch, whose dropout mask is drawn from
    `seed`: each row gets that batch's mask row.
    """
    p = net.params
    cfg = net.config
    B, T, _ = x.shape

    last = x[:, -1, :]
    a1, d1, drop_scale = alloc((3, B, cfg.hidden_dense))
    np.matmul(last, p["dense_w1"], out=a1)
    a1 += p["dense_b1"]
    _selu(a1, d1)
    if train_mode and cfg.dropout_rate > 0.0:
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(first_row * cfg.hidden_dense)  # one draw a double
        rng.random(out=drop_scale)
        np.divide(drop_scale >= cfg.dropout_rate, 1.0 - cfg.dropout_rate, out=drop_scale)
    else:
        drop_scale.fill(1.0)
    d1 *= drop_scale
    dense_out = d1 @ p["dense_w2"] + p["dense_b2"]  # (B, 1)

    d, H = cfg.input_dim, cfg.hidden_lstm
    # M = [W; U; b]' against rows [x_t; h_t; 1]: a step's pre-activation is one GEMM.
    m = np.vstack((p["lstm_w"], p["lstm_u"], p["lstm_b"])).T  # (4h, d + h + 1)
    kept = T if keep else 1  # steps whose gates and tanh(c) stay
    x_steps = x.transpose(1, 2, 0)  # (T, d, B)
    z = alloc((kept + 1, d + H + 1, B))
    if keep:
        z[:T, :d] = x_steps
    z[0, d:d + H] = 0.0
    z[:, d + H] = 1.0
    gates = alloc((kept, 4 * H, B))  # rows i, f, o hold sigmoids, rows c tanh
    cs = alloc((kept + 1, H, B))
    tanh_cs = alloc((kept, H, B))
    ig = alloc((H, B))
    cs[0] = 0.0
    for t in range(T):
        s, now, nxt = t % kept, t % (kept + 1), (t + 1) % (kept + 1)
        if not keep:
            z[now, :d] = x_steps[t]
        a = np.matmul(m, z[now], out=gates[s])
        # sigmoid(x) = 0.5 * (1 + tanh(x / 2)) on rows i, f, o; tanh on rows c
        sig = a[:3 * H]
        sig *= 0.5
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        gi, gf, go, gc = a[:H], a[H:2 * H], a[2 * H:3 * H], a[3 * H:]
        c_new = np.multiply(gf, cs[now], out=cs[nxt])
        c_new += np.multiply(gi, gc, out=ig)
        np.tanh(c_new, out=tanh_cs[s])
        np.multiply(go, tanh_cs[s], out=z[nxt, d:d + H])
    recurrent_out = p["rw"].T @ z[T % (kept + 1), d:d + H] + p["rb"][:, None]  # (1, B)

    pred = dense_out[:, 0] + recurrent_out[0]
    cache = {"last": last, "a1": a1, "d1": d1, "drop": drop_scale,
             "z": z, "gates": gates, "cs": cs, "tanh_cs": tanh_cs}
    return pred, cache


def forward_batch(net: ParallelNet, x, train_mode: bool = False, seed: int = 0) -> np.ndarray:
    x = _check_batch(net, x)
    pred, _ = _forward_cached(net, x, train_mode, seed, keep=False)
    return pred


def forward(net: ParallelNet, sequence, train_mode: bool = False, seed: int = 0) -> float:
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2:
        raise ValueError(f"sequence must be 2-D, got shape {sequence.shape}")
    return float(forward_batch(net, sequence[None, :, :], train_mode, seed)[0])


def _loss_terms(pred: np.ndarray, y: np.ndarray, cfg: NetConfig, loss_kind: str,
                batch: int | None = None):
    """Loss summed over these rows and dLoss/dpred for 'huber' or 'mse', both
    divided by `batch` (by default the row count, giving the mean loss)."""
    r = pred - y
    B = r.shape[0] if batch is None else batch
    if loss_kind == "mse":
        return float(np.sum(r * r)) / B, 2.0 * r / B
    if loss_kind != "huber":
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    delta = cfg.huber_delta
    small = np.abs(r) <= delta
    losses = np.where(small, 0.5 * r * r, delta * np.abs(r) - 0.5 * delta * delta)
    dpred = np.where(small, r, delta * np.sign(r)) / B
    return float(np.sum(losses)) / B, dpred


def backward(net: ParallelNet, x, y, *, loss_kind: str = "huber", train_mode: bool = False,
             seed: int = 0, rows: slice | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss over the batch and its gradient for every parameter.

    The dropout mask (train_mode only) is drawn once from `seed`, so the
    returned gradients correspond exactly to the sampled subnetwork.

    `rows`, a contiguous slice of the batch, asks for that shard's share
    of the result instead: its rows' summed loss and the gradient of that
    sum, both divided by the whole batch size, under the whole batch's
    dropout mask.  Summed over shards that cover the batch, the shares
    give the whole batch's result, up to summation order.
    """
    x = _check_batch(net, x)
    if x.shape[0] == 0:
        raise ValueError("batch is empty")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError(f"targets shape {y.shape} does not match batch {x.shape[0]}")
    batch = x.shape[0]
    rows = slice(None) if rows is None else rows
    shard = range(batch)[rows] if isinstance(rows, slice) else range(0)
    if shard.step != 1 or not shard:
        raise ValueError(f"rows {rows!r} are not a non-empty contiguous slice of {batch} rows")
    x, y = x[shard.start:shard.stop], y[shard.start:shard.stop]
    p = net.params
    cfg = net.config
    B, T, d = x.shape
    H = cfg.hidden_lstm
    # The forward pass's a1, d1, drop, z, gates, cs, tanh_cs and ig, then
    # da1, the SELU slope, da and scratch3.
    alloc = _workspace_alloc(B * (5 * cfg.hidden_dense + (T + 1) * (d + 2 * H + 1)
                                  + 5 * T * H + 8 * H))
    pred, cache = _forward_cached(net, x, train_mode, seed, alloc, first_row=shard.start)
    loss, dpred = _loss_terms(pred, y, cfg, loss_kind, batch)
    dout = dpred[:, None]  # (B, 1), gradient on both branch outputs

    grads = {}

    # Dense branch.
    grads["dense_w2"] = cache["d1"].T @ dout
    grads["dense_b2"] = dout.sum(axis=0)
    # (dout @ w2') * drop * selu'(a1), in that operand order
    da1, slope = alloc((2, B, cfg.hidden_dense))
    np.matmul(dout, p["dense_w2"].T, out=da1)
    da1 *= cache["drop"]
    da1 *= _selu_grad(cache["a1"], slope)
    grads["dense_w1"] = cache["last"].T @ da1
    grads["dense_b1"] = da1.sum(axis=0)

    # Recurrent branch, backprop through time, feature-major like the forward.
    z, cs, tanh_cs, gates = (cache[k] for k in ("z", "cs", "tanh_cs", "gates"))
    grads["rw"] = z[T, d:d + H] @ dout
    grads["rb"] = dout.sum(axis=0)
    dh = p["rw"] @ dpred[None, :]  # (h, B)
    dc = np.zeros_like(dh)
    u = p["lstm_u"]
    gm = np.zeros((d + H + 1, 4 * H))  # gradient of [W; U; b], split at the end
    # One pre-activation gradient (rows i, f, o, c) and one scratch block,
    # reused by every step; each product keeps the operand order of the
    # per-gate formulas, so only the matmul summation order can move.
    da = alloc((4 * H, B))
    dsig, da_i, da_f, da_o, da_c = da[:3 * H], da[:H], da[H:2 * H], da[2 * H:3 * H], da[3 * H:]
    scratch3 = alloc((3 * H, B))
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


def _unflatten(flat: np.ndarray, config: NetConfig) -> dict[str, np.ndarray]:
    """Views of a flat vector as the named parameter arrays, in `param_specs` order."""
    arrays, start = {}, 0
    for name, shape in param_specs(config):
        size = math.prod(shape)
        arrays[name] = flat[start:start + size].reshape(shape)
        start += size
    return arrays


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, t: int, config: NetConfig,
              lr: float | None = None) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns fresh params and state.

    `lr` overrides `config.adam_lr`; 0 is allowed and leaves params unchanged.
    """
    check_int("step index", t, minimum=1)
    lr = config.adam_lr if lr is None else lr
    check_finite("lr", lr, minimum=0.0)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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


# A training batch splits into two shards from twice this many rows on.
_SHARD_ROWS = 64


def _shards(batch: int) -> list[slice]:
    """Contiguous row shards of a `batch`-row training batch: two near-equal
    halves from 2 * `_SHARD_ROWS` rows on, the whole batch below.  The
    boundaries depend on nothing but `batch`."""
    if batch < 2 * _SHARD_ROWS:
        return [slice(0, batch)]
    return [slice(0, batch // 2), slice(batch // 2, batch)]


def train_net(net: ParallelNet, x, y, *, epochs: int | None = None,
              loss_kind: str = "huber",
              lr: float | None = None) -> tuple[ParallelNet, tuple[float, ...]]:
    """Full-batch Adam training with dropout; returns the trained net and
    per-epoch losses.  Epoch t draws its dropout mask from config.seed + t.

    Each epoch's batch splits into the row shards of `_shards`, which
    `backward` runs one at a time on the main process and the forked
    helpers of `_fork`; the helpers inherit x and y, and a request sends
    only the parameters and the epoch's seed.  The shard losses and
    gradients are added in shard order, so the result does not depend on
    the helper count.  A diverging run raises ValueError at its first
    non-finite loss.
    """
    cfg = net.config
    epochs = cfg.epochs if epochs is None else epochs
    check_int("epochs", epochs, minimum=0)
    if lr is not None:
        check_finite("lr", lr, minimum=0.0)
    x = _check_batch(net, x)
    y = np.asarray(y, dtype=np.float64)
    shards = _shards(x.shape[0])
    names = [name for name, _ in param_specs(cfg)]

    def flatten(arrays):
        return np.concatenate([arrays[name].ravel() for name in names])

    def work(flat, seed, share):
        # Overflow on the way to a non-finite loss is expected, not warned
        # about, in a helper as in the main process.
        shard_net = ParallelNet(_unflatten(flat, cfg), cfg)
        with np.errstate(all="ignore"):
            results = [backward(shard_net, x, y, loss_kind=loss_kind, train_mode=True,
                                seed=seed, rows=rows) for rows in share]
        return [(loss, flatten(grads)) for loss, grads in results]

    # Adam updates each element on its own, so one update of the flat vector
    # equals adam_step over the named arrays.
    flat = flatten(net.params)
    state = AdamState(m={"flat": np.zeros_like(flat)}, v={"flat": np.zeros_like(flat)})
    losses = []
    with _fork.helpers(work, len(shards), "training") as run, np.errstate(all="ignore"):
        for t in range(1, epochs + 1):
            (loss, grad), *rest = run((flat, cfg.seed + t), shards)
            for shard_loss, shard_grad in rest:
                loss += shard_loss
                grad += shard_grad
            if not math.isfinite(loss):
                raise ValueError("epoch losses must be finite and non-negative")
            new, state = adam_step({"flat": flat}, {"flat": grad}, state, t, cfg, lr=lr)
            flat = new["flat"]
            losses.append(loss)
    return ParallelNet(_unflatten(flat, cfg), cfg), tuple(losses)


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
    triples.  Sequences never cross
    match boundaries; targets are standardized per match with statistics from
    that match's chronological 80% training split; the remaining 20% of
    sequences form the test set.  `config.input_dim` is overridden by the
    variant's column count.  `repeats` > 1 averages the test MSE over seeds
    config.seed .. config.seed+repeats-1.
    """
    config.check()
    check_int("repeats", repeats, minimum=1)
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
        with np.errstate(all="ignore"):  # TrainReport refuses a non-finite test MSE
            pred = forward_batch(net, x_test, train_mode=False)
            mses.append(float(np.mean((pred - y_test) ** 2)))
    return TrainReport(
        variant=variant,
        epoch_losses=first_losses,
        test_mse=float(np.mean(mses)),
        per_repeat_mse=tuple(mses),
        config=base_cfg,
    )


def train_report_to_json(report: TrainReport) -> str:
    doc = asdict(report)
    doc["format_version"] = 3
    return json.dumps(doc, sort_keys=True)


def write_loss_csv(report: TrainReport, dest) -> None:
    with _text_dest(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "loss"])
        for k, loss in enumerate(report.epoch_losses, start=1):
            writer.writerow([k, repr(loss)])
