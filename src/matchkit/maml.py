"""First-order meta-learning over per-match sequence tasks.

A task is one match's sliding-window sequences with standardized fluctuation
targets.  Meta-training repeatedly samples a batch of support tasks, adapts a
shared initialization to each with a few full-batch gradient-descent steps
under MSE, measures Huber loss of the adapted parameters on each task's
validation split, and applies the mean of those gradients (the first-order
approximation) to the initialization with Adam.  Held-out query tasks are
then fine-tuned from the meta-initialization and scored by MSE, side by side
with a same-budget fine-tune from the raw random initialization.  The exact
meta-gradient exists only as a finite-difference oracle in the tests.

Meta-training runs an iteration's tasks on the machine's cores, through
the forked helpers of `_fork`: the drawn tasks are dealt round-robin in draw
order, each helper gets only the current parameters and its share of the
drawn task indices, and the main process adds the returned losses and
gradients in draw order, as one process would, so every output is
byte-identical for any helper count.

A saved meta-state is format 4: the parameters use the fused LSTM gate
layout of `neural` (`lstm_w`, `lstm_u`, `lstm_b`), the net config has no
Adam betas or `l2_mix`, and `net.seed`, which draws both the initialization
and the tasks, is the one seed.  Format 1 held twelve per-gate arrays,
format 2 those three net config fields and format 3 a `seed` of its own
for the tasks; all three are rejected.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _fork
from ._checks import check_finite, check_int, dataclass_from_doc, field_ranges, finite_real
from .configs import MamlConfig, NetConfig
from .dbwp import DbwpSeries
from .ingest import MatchTimeline, _text_dest
from .momentum import MomentumSeries
from .neural import (
    ParallelNet,
    _standardize,
    adam_step,
    assemble_match_features,
    backward,
    build_sequences,
    forward_batch,
    init_adam_state,
    init_net,
    param_specs,
)

__all__ = [
    "SUPPORT_MATCH_NUMBERS",
    "QUERY_MATCH_NUMBERS",
    "MamlConfig",
    "MetaState",
    "Task",
    "QueryEval",
    "split_support_query",
    "make_task",
    "split_task",
    "gd_steps",
    "inner_adapt",
    "meta_train",
    "fine_tune_and_eval",
    "evaluate_queries",
    "meta_state_to_json",
    "meta_state_from_json",
    "write_meta_eval_csv",
]

# Default grouping of tournament match numbers into support and query pools.
SUPPORT_MATCH_NUMBERS = frozenset(
    list(range(1301, 1317)) + list(range(1401, 1409)) + list(range(1501, 1505))
)
QUERY_MATCH_NUMBERS = frozenset({1601, 1602, 1701})


@dataclass(eq=False)
class Task:
    match_id: str
    x: np.ndarray  # (n_sequences, seq_len, input_dim)
    y: np.ndarray  # (n_sequences,)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 3:
            raise ValueError(f"task sequences must be 3-D, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("task targets are not aligned with its sequences")


@dataclass(eq=False)
class MetaState:
    params: dict[str, np.ndarray]
    loss_history: tuple[float, ...]
    config: MamlConfig

    def __post_init__(self):
        for name, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"meta parameter {name!r} is not finite")


@dataclass(frozen=True)
class QueryEval:
    match_id: str
    maml_mse: float
    scratch_mse: float


def _match_number(match_id) -> int | None:
    """Trailing digit run of the id, e.g. '2023-wimbledon-1301' -> 1301."""
    s = str(match_id)
    digits = ""
    for ch in reversed(s):
        if ch.isdigit():
            digits = ch + digits
        elif digits:
            break
    return int(digits) if digits else None


def split_support_query(match_ids, support=None, query=None):
    """Partition match ids into a support pool and a query pool.

    With no explicit partition, ids whose trailing number falls in
    QUERY_MATCH_NUMBERS go to the query pool and everything else (including
    ids outside both known pools) goes to support.  An explicit partition is
    returned as given once it is checked to be disjoint and to cover the ids.
    """
    ids = list(match_ids)
    if not ids:
        raise ValueError("match id list is empty")
    if len(set(ids)) != len(ids):
        raise ValueError("match ids contain duplicates")
    if (support is None) != (query is None):
        raise ValueError("supply both support and query, or neither")
    if support is not None:
        support = list(support)
        query = list(query)
        overlap = set(support) & set(query)
        if overlap:
            raise ValueError(f"support and query overlap: {sorted(overlap)!r}")
        leftover = set(ids) - set(support) - set(query)
        if leftover:
            raise ValueError(f"ids assigned to neither pool: {sorted(leftover)!r}")
        unknown = (set(support) | set(query)) - set(ids)
        if unknown:
            raise ValueError(f"partition names unknown ids: {sorted(unknown)!r}")
        return tuple(support), tuple(query)
    support_out, query_out = [], []
    for mid in ids:
        number = _match_number(mid)
        if number is not None and number in QUERY_MATCH_NUMBERS:
            query_out.append(mid)
        else:
            support_out.append(mid)
    return tuple(support_out), tuple(query_out)


def make_task(timeline: MatchTimeline, dbwp: DbwpSeries, momentum: MomentumSeries,
              config: MamlConfig, variant: str = "full") -> Task:
    """Build one match's task: sliding sequences plus standardized targets.

    Standardization statistics come from the chronological train_fraction of
    the targets, matching the supervised training protocol.
    """
    config.check()
    features, targets = assemble_match_features(timeline, dbwp, momentum, variant)
    if features.shape[1] != config.net.input_dim:
        raise ValueError(
            f"variant {variant!r} yields {features.shape[1]} features but "
            f"net.input_dim is {config.net.input_dim}"
        )
    x, y = build_sequences(features, targets, config.net.seq_len)
    n_train = int(config.train_fraction * x.shape[0])
    if n_train < 1 or x.shape[0] - n_train < 1:
        raise ValueError(
            f"match {timeline.match_id!r} yields only {x.shape[0]} sequences; "
            "cannot split for adaptation"
        )
    return Task(match_id=timeline.match_id, x=x, y=_standardize(y[:n_train], y))


def split_task(task: Task, train_fraction: float):
    """Chronological (train, validation) views of a task's sequences;
    `train_fraction` has the range that MamlConfig declares."""
    dict(field_ranges(MamlConfig))["train_fraction"].check("train_fraction", train_fraction)
    m = task.x.shape[0]
    n_train = int(train_fraction * m)
    if n_train < 1 or m - n_train < 1:
        raise ValueError(
            f"task {task.match_id!r} has {m} sequences; cannot split with "
            f"fraction {train_fraction}"
        )
    return (task.x[:n_train], task.y[:n_train]), (task.x[n_train:], task.y[n_train:])


def gd_steps(params: dict[str, np.ndarray], grad_fn, lr: float, steps: int) -> dict[str, np.ndarray]:
    """Plain full-batch gradient descent; returns fresh parameter dicts."""
    check_finite("lr", lr, minimum=0.0)
    check_int("steps", steps, minimum=0)
    current = {k: v.copy() for k, v in params.items()}
    for _ in range(steps):
        grads = grad_fn(current)
        current = {k: current[k] - lr * grads[k] for k in current}
    return current


def _mse_gd(start: dict[str, np.ndarray], x, y, config: MamlConfig,
            steps: int) -> dict[str, np.ndarray]:
    """`steps` full-batch GD steps of MSE on (x, y) at inner_lr."""

    def grad_fn(params):
        net = ParallelNet(params, config.net)
        _, grads = backward(net, x, y, loss_kind="mse", train_mode=False)
        return grads

    return gd_steps(start, grad_fn, config.inner_lr, steps)


def inner_adapt(init: dict[str, np.ndarray], task: Task, config: MamlConfig) -> dict[str, np.ndarray]:
    """Adapt an initialization to one task: inner_epochs GD steps of MSE on
    the task's training split.  The initialization is never mutated."""
    config.check()
    (x_train, y_train), _ = split_task(task, config.train_fraction)
    return _mse_gd(init, x_train, y_train, config, config.inner_epochs)


def _task_gradient(params: dict[str, np.ndarray], task: Task,
                   config: MamlConfig) -> tuple[float, dict[str, np.ndarray]]:
    """Huber loss and gradient, on the task's validation split, of `params`
    adapted to the task by `inner_adapt`.

    Overflow on the way to a non-finite loss is expected, not warned about;
    a non-finite loss is a ValueError naming the task.
    """
    with np.errstate(all="ignore"):
        adapted = inner_adapt(params, task, config)
        _, (x_val, y_val) = split_task(task, config.train_fraction)
        loss, grads = backward(ParallelNet(adapted, config.net), x_val, y_val,
                               loss_kind="huber", train_mode=False)
    if not math.isfinite(loss):
        raise ValueError(f"meta-training diverged: task {task.match_id!r} "
                         "has a non-finite loss")
    return loss, grads


def _run_tasks(params, tasks, indices, config) -> list:
    """`_task_gradient` of each indexed task, or the exception it raised."""
    results = []
    for i in indices:
        try:
            results.append(_task_gradient(params, tasks[i], config))
        except Exception as exc:  # the caller raises the earliest drawn task's error
            results.append(exc)
    return results


def meta_train(tasks, config: MamlConfig) -> MetaState:
    """Meta-train a shared initialization over the support tasks.

    Per iteration: draw tasks_per_batch tasks without replacement (seeded
    by config.net.seed, as the initialization is), adapt the
    current initialization to each, take the Huber gradient of each adapted
    net on its task's validation split, and apply the mean gradient to the
    initialization with Adam at meta_lr (first-order approximation).  The
    tasks run on forked helper processes beside the main process, as the
    module docstring describes; the result does not depend on how many.
    """
    config.check()
    tasks = list(tasks)
    if len(tasks) < config.tasks_per_batch:
        raise ValueError(
            f"{len(tasks)} support tasks cannot fill a batch of "
            f"{config.tasks_per_batch}"
        )
    rng = np.random.default_rng(config.net.seed)
    params = init_net(config.net).params
    state = init_adam_state(config.net)
    history = []

    def work(params, indices):
        return _run_tasks(params, tasks, indices, config)

    # Overflow on the way to non-finite parameters is expected, not warned
    # about: MetaState refuses them.
    with _fork.helpers(work, config.tasks_per_batch, "meta-training") as run, \
            np.errstate(all="ignore"):
        for t in range(1, config.meta_iterations + 1):
            chosen = [int(i) for i in rng.choice(len(tasks), size=config.tasks_per_batch,
                                                 replace=False)]
            batch_loss = 0.0
            mean_grads = {k: np.zeros_like(v) for k, v in params.items()}
            for loss, grads in run((params,), chosen):
                batch_loss += loss
                for k in mean_grads:
                    mean_grads[k] += grads[k]
            scale = 1.0 / config.tasks_per_batch
            batch_loss *= scale
            for k in mean_grads:
                mean_grads[k] *= scale
            params, state = adam_step(params, mean_grads, state, t, config.net,
                                      lr=config.meta_lr)
            history.append(batch_loss)
    return MetaState(params=params, loss_history=tuple(history), config=config)


def _fine_tune_mse(start_params: dict[str, np.ndarray], task: Task,
                   config: MamlConfig) -> float:
    (x_train, y_train), (x_val, y_val) = split_task(task, config.train_fraction)
    with np.errstate(all="ignore"):
        tuned = _mse_gd(start_params, x_train, y_train, config, config.fine_tune_epochs)
        residual = forward_batch(ParallelNet(tuned, config.net), x_val) - y_val
        mse = float(np.mean(residual * residual))
    if not math.isfinite(mse):
        raise ValueError(f"fine-tuning diverged: task {task.match_id!r} has a non-finite MSE")
    return mse


def fine_tune_and_eval(meta: MetaState, task: Task, config: MamlConfig) -> float:
    """Fine-tune the meta-initialization on the query's chronological training
    split for fine_tune_epochs, then return MSE on the held-out tail.

    Test-time adaptation reuses the inner-loop operator — full-batch gradient
    descent at inner_lr under MSE — so the meta-initialization is evaluated
    under the same dynamics it was trained for; the split and the reported
    metric line up with the supervised trainer for side-by-side tables.
    """
    config.check()
    return _fine_tune_mse(meta.params, task, config)


def evaluate_queries(meta: MetaState, tasks, config: MamlConfig) -> tuple[QueryEval, ...]:
    """Side-by-side query table: fine-tune from the meta-initialization vs.
    an identical-budget fine-tune from the raw seeded initialization."""
    config.check()
    scratch = init_net(config.net).params
    rows = []
    for task in tasks:
        rows.append(QueryEval(
            match_id=task.match_id,
            maml_mse=_fine_tune_mse(meta.params, task, config),
            scratch_mse=_fine_tune_mse(scratch, task, config),
        ))
    return tuple(rows)


def meta_state_to_json(meta: MetaState) -> str:
    doc = {
        "format_version": 4,
        "params": {k: v.tolist() for k, v in meta.params.items()},
        "loss_history": list(meta.loss_history),
        "config": asdict(meta.config),
    }
    return json.dumps(doc, sort_keys=True)


def meta_state_from_json(text: str) -> MetaState:
    """Load a format 4 meta-state, checking every field.

    The config must hold exactly the fields of `MamlConfig` (and `net` those
    of `NetConfig`) and pass `check()`; `params` must hold exactly the names
    and shapes of `param_specs(config.net)` with finite values; and
    `loss_history` only finite reals.  Anything else is a ValueError naming
    the field.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("meta state document must be a JSON object")
    version = doc.get("format_version")
    if version != 4:
        raise ValueError(f"unsupported meta state format version: {version!r}")
    missing = [k for k in ("config", "loss_history", "params") if k not in doc]
    if missing:
        raise ValueError(f"meta state document missing fields: {', '.join(missing)}")
    config = dataclass_from_doc(MamlConfig, doc["config"], "config")
    config = replace(config, net=dataclass_from_doc(NetConfig, config.net, "config.net"))
    config.check()

    raw = doc["params"]
    if not isinstance(raw, dict):
        raise ValueError("params must be a JSON object")
    specs = dict(param_specs(config.net))
    unknown = sorted(set(raw) - set(specs))
    if unknown:
        raise ValueError(f"params has unknown arrays: {', '.join(unknown)}")
    params = {}
    for name, shape in specs.items():
        if name not in raw:
            raise ValueError(f"params is missing array {name!r}")
        try:
            value = np.asarray(raw[name])
            ok = value.dtype.kind in "iuf" and value.shape == shape
        except ValueError:  # ragged nesting
            ok = False
        if not ok:
            raise ValueError(f"params[{name!r}] must be a number array of shape {shape}")
        params[name] = value.astype(np.float64)

    history = doc["loss_history"]
    if not isinstance(history, list) or not all(finite_real(v) for v in history):
        raise ValueError("loss_history must be a list of finite numbers")
    return MetaState(params=params, loss_history=tuple(history), config=config)


def write_meta_eval_csv(rows, dest) -> None:
    with _text_dest(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["match_id", "maml_mse", "scratch_mse"])
        for row in rows:
            writer.writerow([row.match_id, repr(row.maml_mse), repr(row.scratch_mse)])
