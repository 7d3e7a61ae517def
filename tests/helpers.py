"""Test-side construction helpers and independent numeric oracles."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from matchkit.dbwp import DbwpParams, DbwpSeries
from matchkit.gbtree import (
    GbtConfig,
    GridSearchResult,
    leaf_weight,
    model_to_json,
    train_gbt,
)
from matchkit.ingest import (
    _META_COLUMNS,
    DEFAULT_SCHEMA,
    MatchTimeline,
    PointRecord,
    SchemaError,
    TimeFormatError,
    ValidationError,
    format_elapsed,
    parse_elapsed_time,
)
from matchkit.neural import (
    _check_batch,
    _loss_terms,
    _selu,
    _selu_grad,
    backward,
    forward_batch,
    param_specs,
)
from matchkit.winjud import BestTime


def make_timeline(victors, servers=None, elapsed=None, set_no=None, game_no=None,
                  p1_sets=None, p2_sets=None, p1_games=None, p2_games=None,
                  aces1=None, aces2=None, dfs1=None, dfs2=None, ues1=None, ues2=None,
                  match_id="t1"):
    """Build a valid MatchTimeline from parallel per-point sequences.

    Any omitted sequence gets a neutral default: server 1, 30s spacing,
    single set/game, zeroed counters and event flags.
    """
    n = len(victors)

    def seq(value, default):
        if value is None:
            return [default] * n
        assert len(value) == n
        return list(value)

    servers = seq(servers, 1)
    elapsed = elapsed if elapsed is not None else [30 * (k + 1) for k in range(n)]
    set_no = seq(set_no, 1)
    game_no = seq(game_no, 1)
    p1_sets = seq(p1_sets, 0)
    p2_sets = seq(p2_sets, 0)
    p1_games = seq(p1_games, 0)
    p2_games = seq(p2_games, 0)
    flags = {name: seq(values, False) for name, values in
             (("p1_ace", aces1), ("p2_ace", aces2), ("p1_double_fault", dfs1),
              ("p2_double_fault", dfs2), ("p1_unf_err", ues1), ("p2_unf_err", ues2))}

    points = tuple(
        PointRecord(
            match_id=match_id, set_no=set_no[k], game_no=game_no[k], point_no=k + 1,
            elapsed_s=elapsed[k], server=servers[k], point_victor=victors[k],
            p1_sets=p1_sets[k], p2_sets=p2_sets[k],
            p1_games=p1_games[k], p2_games=p2_games[k],
            p1_ace=flags["p1_ace"][k], p2_ace=flags["p2_ace"][k],
            p1_double_fault=flags["p1_double_fault"][k],
            p2_double_fault=flags["p2_double_fault"][k],
            p1_unf_err=flags["p1_unf_err"][k], p2_unf_err=flags["p2_unf_err"][k],
            p1_distance_run=5.0, p2_distance_run=5.0, rally_count=2, speed_mph=100.0,
        )
        for k in range(n)
    )
    timeline = MatchTimeline(match_id=match_id, points=points)
    timeline.check()
    return timeline


def make_separable(n=500, flip=0.1, seed=42):
    """1-D threshold dataset with a fraction of labels flipped."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    y = (x[:, 0] > 0).astype(np.float64)
    y = np.where(rng.random(n) < flip, 1.0 - y, y)
    return x, y


def leaf_objective(w, G, H, lam, rho):
    """G*w + 1/2*(H + lam*(1-rho))*w^2 + lam*rho*|w|, vectorized in w."""
    return G * w + 0.5 * (H + lam * (1.0 - rho)) * w * w + lam * rho * np.abs(w)


def oracle_leaf_argmin(G, H, lam, rho, coarse_step=1e-4, max_points=200_001):
    """Dense 1-D grid minimization of the leaf objective, then refinement.

    Phase 1 scans a symmetric grid (step coarse_step, widened only when the
    bracket would need more than max_points nodes) of the raw objective.
    Phase 2 re-centers on the incumbent and scans the exact increment
    f(w0+d) - f(w0), whose absolute-value part is expanded by sign case so
    no big-magnitude cancellation occurs; three rounds shrink the spacing
    to ~1e-10.  Independent of the closed-form implementation under test.
    """
    d = H + lam * (1.0 - rho)
    a = lam * rho
    radius = abs(G) / d + 1.0
    n = int(2.0 * radius / coarse_step) + 1
    n = min(n, max_points)
    if n % 2 == 0:
        n += 1  # odd count puts w = 0 exactly on the grid
    ws = np.linspace(-radius, radius, n)
    w0 = float(ws[np.argmin(leaf_objective(ws, G, H, lam, rho))])
    spacing = 2.0 * radius / (n - 1)

    for _ in range(4):
        deltas = np.linspace(-spacing, spacing, 2001)
        w_new = w0 + deltas
        # |w0+delta| - |w0| without cancellation: case-split on signs.
        if w0 >= 0:
            abs_diff = np.where(w_new >= 0, deltas, -deltas - 2.0 * w0)
        else:
            abs_diff = np.where(w_new < 0, -deltas, deltas + 2.0 * w0)
        inc = (G + d * w0) * deltas + 0.5 * d * deltas * deltas + a * abs_diff
        # candidate w = 0 exactly, if inside the bracket
        zero_delta = -w0
        if abs(zero_delta) <= spacing:
            inc_zero = (G + d * w0) * zero_delta + 0.5 * d * zero_delta * zero_delta + a * (0.0 - abs(w0))
            if inc_zero < inc.min():
                w0 = 0.0
                spacing = spacing / 1000.0
                continue
        w0 = float(w_new[np.argmin(inc)])
        spacing = spacing / 1000.0
    return w0


def _scalar_leaf_score(G, H, lam, rho):
    s = math.copysign(max(abs(G) - lam * rho, 0.0), G)
    return s * s / (H + lam * (1.0 - rho))


def _scalar_grow(x, g, h, rows, depth, cfg, names):
    """The split scan train_gbt replaced: a stable argsort of the node's own
    rows for every feature, then one scalar gain per candidate threshold.
    Returns the tree as the model JSON nests it."""
    G = float(np.sum(g[rows]))
    H = float(np.sum(h[rows]))
    if depth >= cfg.max_depth or rows.size < 2:
        return {"weight": leaf_weight(G, H, cfg.lam, cfg.rho)}

    parent_score = _scalar_leaf_score(G, H, cfg.lam, cfg.rho)
    best = None  # (gain, name, threshold, feature)
    for f in range(x.shape[1]):
        col = x[rows, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cg = np.cumsum(g[rows][order])
        ch = np.cumsum(h[rows][order])
        for k in np.nonzero(sv[:-1] != sv[1:])[0]:
            H_L = float(ch[k])
            H_R = H - H_L
            if H_L < cfg.min_child_weight or H_R < cfg.min_child_weight:
                continue
            G_L = float(cg[k])
            gain = 0.5 * (_scalar_leaf_score(G_L, H_L, cfg.lam, cfg.rho)
                          + _scalar_leaf_score(G - G_L, H_R, cfg.lam, cfg.rho)
                          - parent_score)
            threshold = (float(sv[k]) + float(sv[k + 1])) / 2.0
            candidate = (gain, names[f], threshold, f)
            if gain > cfg.min_gain and (
                best is None
                or gain > best[0]
                or (gain == best[0] and (candidate[1], candidate[2]) < (best[1], best[2]))
            ):
                best = candidate

    if best is None:
        return {"weight": leaf_weight(G, H, cfg.lam, cfg.rho)}
    _, _, threshold, feature = best
    mask = x[rows, feature] < threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _scalar_grow(x, g, h, rows[mask], depth + 1, cfg, names),
        "right": _scalar_grow(x, g, h, rows[~mask], depth + 1, cfg, names),
    }


def _scalar_apply(node, x, rows, out):
    if "weight" in node:
        out[rows] = node["weight"]
        return
    mask = x[rows, node["feature"]] < node["threshold"]
    _scalar_apply(node["left"], x, rows[mask], out)
    _scalar_apply(node["right"], x, rows[~mask], out)


def _add_trees(pred, trees, learning_rate, x):
    """pred + learning_rate * each tree's leaf values, added tree by tree."""
    rows = np.arange(x.shape[0])
    for tree in trees:
        out = np.empty(x.shape[0])
        _scalar_apply(tree, x, rows, out)
        pred = pred + learning_rate * out
    return pred


def oracle_train_gbt(x, y, config: GbtConfig, feature_names=None) -> str:
    """Reference boosting loop over the scalar split scan, as model JSON
    text, for `==` against model_to_json of train_gbt."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    names = tuple(feature_names or (f"f{i}" for i in range(x.shape[1])))
    base = float(y.mean())
    pred = np.full(x.shape[0], base)
    h = np.ones(x.shape[0])
    rows = np.arange(x.shape[0])
    trees = []
    for _ in range(config.n_trees):
        trees.append(_scalar_grow(x, pred - y, h, rows, 0, config, names))
        pred = _add_trees(pred, trees[-1:], config.learning_rate, x)
    return json.dumps({"format_version": 1, "base_score": base, "config": asdict(config),
                       "feature_names": list(names), "trees": trees}, sort_keys=True)


def oracle_raw_predict(text: str, x) -> np.ndarray:
    """raw_predict of a model JSON document, walking its nested trees."""
    doc = json.loads(text)
    x = np.asarray(x, dtype=np.float64)
    return _add_trees(np.full(x.shape[0], doc["base_score"]), doc["trees"],
                      doc["config"]["learning_rate"], x)


def oracle_grid_search(x, y, lambda_grid, rho_grid, config: GbtConfig) -> GridSearchResult:
    """The per-cell grid search grid_search replaced: one train_gbt per
    (lam, rho) cell in sorted order, scored by walking its JSON trees, then
    the refit."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    n_train = (n * 4) // 5
    n_inner = (n_train * 4) // 5
    x_tr, y_tr = x[:n_train], y[:n_train]
    x_in, y_in = x_tr[:n_inner], y_tr[:n_inner]
    x_val, y_val = x_tr[n_inner:], y_tr[n_inner:]

    best = None  # (accuracy, lam, rho); sorted iteration makes ties pick small lam/rho
    for lam in sorted(set(float(v) for v in lambda_grid)):
        for rho in sorted(set(float(v) for v in rho_grid)):
            model = train_gbt(x_in, y_in, replace(config, lam=lam, rho=rho))
            p = np.clip(oracle_raw_predict(model_to_json(model), x_val), 0.0, 1.0)
            acc = float(np.mean((p >= 0.5) == (y_val == 1.0)))
            if best is None or acc > best[0]:
                best = (acc, lam, rho)

    acc, lam, rho = best
    model = train_gbt(x_tr, y_tr, replace(config, lam=lam, rho=rho))
    return GridSearchResult(best_lambda=lam, best_rho=rho, val_accuracy=acc,
                            model=model, n_train=n_train)


def oracle_grid_derivative(times_s, values, step_s):
    """Node-by-node walk of the uniform grid: count nodes one at a time,
    interpolate every node with a forward segment pointer, then difference.
    Same formulas and operation order as `grid_time_derivative`."""
    tau = [t - times_s[0] for t in times_s]
    span = float(tau[-1])
    n_nodes = 2
    while (n_nodes - 1) * step_s < span:
        n_nodes += 1
    grid = [k * step_s for k in range(n_nodes)]
    interp, seg = [], 0
    for g in grid:
        if g >= tau[-1]:
            interp.append(values[-1])
            continue
        while tau[seg + 1] <= g:
            seg += 1
        slope = (values[seg + 1] - values[seg]) / (tau[seg + 1] - tau[seg])
        interp.append(values[seg] + (g - tau[seg]) * slope)
    deriv = [(interp[k + 1] - interp[k - 1]) / (2 * step_s) for k in range(1, n_nodes - 1)]
    first = (interp[1] - interp[0]) / step_s
    end = (interp[-1] - interp[-2]) / step_s
    return grid, [first] + deriv + [end]


def full_grid_dbwp(timeline, params: DbwpParams) -> DbwpSeries:
    """dbwp series read off the whole grid of `oracle_grid_derivative`, with
    every window re-counted point by point."""
    w, step, pts = params.w_v, params.grid_step_s, timeline.points
    indices = list(range(w, len(pts) - w + 1))
    elapsed = [pts[i].elapsed_s for i in indices]
    wins = [sum(1 for p in pts[i - w:i + w] if p.point_victor == params.player)
            for i in indices]
    centered = [(c - w) / (2 * w) for c in wins]
    groups: dict[int, list[float]] = {}
    for t, v in zip(elapsed, centered):
        groups.setdefault(t, []).append(v)
    knot_t = list(groups)
    knot_v = []
    for vals in groups.values():
        total = 0.0
        for v in vals:
            total += v
        knot_v.append(total / len(vals))
    grid, deriv = oracle_grid_derivative(knot_t, knot_v, step)
    last = len(grid) - 1
    dbwp = [deriv[min(max(round((t - knot_t[0]) / step), 0), last)] for t in elapsed]
    return DbwpSeries(indices=tuple(indices), elapsed_s=tuple(elapsed),
                      win_rate=tuple(c / (2 * w) for c in wins), dbwp=tuple(dbwp),
                      params=params)


def oracle_best_performance_times(series, timeline) -> tuple[BestTime, ...]:
    """Per set and player, the first point of the peak score, found by one
    scan in point order that keeps the best score seen so far."""
    if not series.indices:
        raise ValueError("series is empty")
    best: dict[tuple[int, int], tuple[float, int]] = {}
    set_nos = timeline.set_no.tolist()
    for i, elapsed, p1, p2 in zip(series.indices, series.elapsed_s, series.score_p1, series.score_p2):
        set_no = set_nos[i]
        for player, score in ((1, p1), (2, p2)):
            key = (set_no, player)
            if key not in best or score > best[key][0]:
                best[key] = (score, elapsed)
    return tuple(
        BestTime(set_no=s, player=p, elapsed_s=best[(s, p)][1],
                 elapsed_clock=format_elapsed(best[(s, p)][1]), score=best[(s, p)][0])
        for s, p in sorted(best)
    )


# Reference CSV loader: load_match_csv in its cell-by-cell form, with a values
# dict and a keyword-built record per row, and every record checked twice.
# load_match_csv must give == timelines on every file, and the same exception
# type, message and row on every bad one.

_INT_FIELDS = ("set_no", "game_no", "point_no", "server", "point_victor",
               "p1_sets", "p2_sets", "p1_games", "p2_games", "rally_count")
_BOOL_FIELDS = ("p1_ace", "p2_ace", "p1_double_fault", "p2_double_fault",
                "p1_unf_err", "p2_unf_err")
_FLOAT_FIELDS = ("p1_distance_run", "p2_distance_run")


def _parse_int(value: str, name: str, row: int) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise ValidationError(f"column {name!r} is not an integer: {value!r}", row) from None


def _parse_bool(value: str, name: str, row: int) -> bool:
    v = value.strip()
    if v == "0":
        return False
    if v == "1":
        return True
    raise ValidationError(f"column {name!r} must be 0 or 1, got {value!r}", row)


def _parse_float(value: str, name: str, row: int) -> float:
    try:
        number = float(value.strip())
    except ValueError:
        raise ValidationError(f"column {name!r} is not a number: {value!r}", row) from None
    if not math.isfinite(number):
        raise ValidationError(f"column {name!r} must be finite, got {value!r}", row)
    return number


def oracle_load_match_csv(source, schema: dict[str, str] | None = None) -> list[MatchTimeline]:
    """Load a point-by-point CSV into one MatchTimeline per match_id.

    ``source`` is a binary or text stream (or a path string) of UTF-8,
    comma-delimited, RFC-4180 CSV with a header row.  ``schema`` maps
    canonical field names to file column names; unmapped fields fall back
    to DEFAULT_SCHEMA.  Extra columns are ignored.  Timelines come back
    sorted by match_id, points ordered by (set_no, game_no, point_no).
    """
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = sorted(set(schema) - set(DEFAULT_SCHEMA))
        if unknown:
            raise SchemaError(f"schema maps unknown canonical fields: {', '.join(unknown)}")
        colmap.update(schema)

    if isinstance(source, str):
        with open(source, "rb") as fh:
            return oracle_load_match_csv(fh, schema)
    if isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: no header row") from None
    position = {name: i for i, name in enumerate(header)}
    missing = sorted(colmap[f] for f in DEFAULT_SCHEMA if colmap[f] not in position)
    if missing:
        raise SchemaError(f"missing required columns: {', '.join(missing)}")
    idx = {f: position[colmap[f]] for f in DEFAULT_SCHEMA}
    meta_idx = {c: position[c] for c in _META_COLUMNS if c in position}

    rows: list[tuple[PointRecord, dict[str, str], int]] = []
    for lineno, raw in enumerate(reader, start=2):
        if not raw:
            continue
        if len(raw) < len(header):
            raise ValidationError(f"expected {len(header)} fields, got {len(raw)}", lineno)

        def cell(f: str) -> str:
            return raw[idx[f]]

        values: dict[str, object] = {"match_id": cell("match_id")}
        values["elapsed_s"] = _parse_clock_cell(cell("elapsed_time"), lineno)
        for f in _INT_FIELDS:
            values[f] = _parse_int(cell(f), colmap[f], lineno)
        for f in _BOOL_FIELDS:
            values[f] = _parse_bool(cell(f), colmap[f], lineno)
        for f in _FLOAT_FIELDS:
            values[f] = _parse_float(cell(f), colmap[f], lineno)
        speed_raw = cell("speed_mph").strip()
        values["speed_mph"] = None if speed_raw == "" else _parse_float(speed_raw, colmap["speed_mph"], lineno)

        record = PointRecord(**values)
        record.check(lineno)
        rows.append((record, {c: raw[i] for c, i in meta_idx.items()}, lineno))

    if not rows:
        raise SchemaError("empty file: header but no data rows")

    rows.sort(key=lambda r: (r[0].match_id, r[0].set_no, r[0].game_no, r[0].point_no))
    timelines: list[MatchTimeline] = []
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i][0].match_id != rows[start][0].match_id:
            chunk = rows[start:i]
            _check_chunk_order(chunk)
            timeline = MatchTimeline(
                match_id=chunk[0][0].match_id,
                points=tuple(r[0] for r in chunk),
                meta={k: v for k, v in chunk[0][1].items() if v},
            )
            timeline.check()
            timelines.append(timeline)
            start = i
    return timelines


def _parse_clock_cell(value: str, row: int) -> int:
    try:
        return parse_elapsed_time(value)
    except TimeFormatError as exc:
        raise ValidationError(str(exc), row) from None


def _check_chunk_order(chunk: list[tuple[PointRecord, dict[str, str], int]]) -> None:
    # Duplicate (set, game, point) keys survive the sort; report the file row.
    for (a, _, _), (b, _, row_b) in zip(chunk, chunk[1:]):
        if (a.set_no, a.game_no, a.point_no) == (b.set_no, b.game_no, b.point_no):
            raise ValidationError(
                f"duplicate point key (set {b.set_no}, game {b.game_no}, point {b.point_no}) "
                f"in match {b.match_id!r}",
                row_b,
            )


# Batch-major LSTM reference: the forward/BPTT pair `neural` ran before its
# recurrence went feature-major, kept verbatim.  Loss, predictions and
# gradients of the feature-major code must agree with it to rounding level
# (only the matmul summation order differs).


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def oracle_forward_cached(net: ParallelNet, x: np.ndarray, train_mode: bool, seed: int):
    """Batch forward pass keeping every intermediate needed for backprop."""
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

    H = cfg.hidden_lstm
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(T):
        xt = x[:, t, :]
        a = xt @ p["lstm_w"] + h @ p["lstm_u"] + p["lstm_b"]
        sig = _sigmoid(a[:, :3 * H])
        gi, gf, go = sig[:, :H], sig[:, H:2 * H], sig[:, 2 * H:]
        gc = np.tanh(a[:, 3 * H:])
        c_new = gf * c + gi * gc
        tanh_c = np.tanh(c_new)
        steps.append((xt, h, c, sig, gc, tanh_c))
        h, c = go * tanh_c, c_new
    recurrent_out = h @ p["rw"] + p["rb"]  # (B, 1)

    pred = (dense_out + recurrent_out)[:, 0]
    cache = {"last": last, "a1": a1, "d1": d1, "drop": drop_scale,
             "steps": steps, "h_final": h}
    return pred, cache


def oracle_backward(net: ParallelNet, x, y, *, loss_kind: str = "huber",
             train_mode: bool = False, seed: int = 0) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss over the batch and its gradient for every parameter.

    The dropout mask (train_mode only) is drawn once from `seed`, so the
    returned gradients correspond exactly to the sampled subnetwork.
    """
    x = _check_batch(net, x)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError(f"targets shape {y.shape} does not match batch {x.shape[0]}")
    p = net.params
    cfg = net.config
    pred, cache = oracle_forward_cached(net, x, train_mode, seed)
    loss, dpred = _loss_terms(pred, y, cfg, loss_kind)
    dout = dpred[:, None]  # (B, 1), gradient on both branch outputs

    grads = {name: np.zeros(shape) for name, shape in param_specs(cfg)}

    # Dense branch.
    grads["dense_w2"] = cache["d1"].T @ dout
    grads["dense_b2"] = dout.sum(axis=0)
    dd1 = dout @ p["dense_w2"].T
    dz1 = dd1 * cache["drop"]
    da1 = dz1 * _selu_grad(cache["a1"])
    grads["dense_w1"] = cache["last"].T @ da1
    grads["dense_b1"] = da1.sum(axis=0)

    # Recurrent branch, backprop through time.
    grads["rw"] = cache["h_final"].T @ dout
    grads["rb"] = dout.sum(axis=0)
    dh = dout @ p["rw"].T
    dc = np.zeros_like(dh)
    H = cfg.hidden_lstm
    for xt, h_prev, c_prev, sig, gc, tanh_c in reversed(cache["steps"]):
        gi, gf, go = sig[:, :H], sig[:, H:2 * H], sig[:, 2 * H:]
        dc = dc + dh * go * (1.0 - tanh_c * tanh_c)
        # Pre-activation gradient of all four gates, columns i, f, o, c.
        dsig = np.concatenate([dc * gc, dc * c_prev, dh * tanh_c], axis=1) * sig * (1.0 - sig)
        da = np.concatenate([dsig, dc * gi * (1.0 - gc * gc)], axis=1)
        grads["lstm_w"] += xt.T @ da
        grads["lstm_u"] += h_prev.T @ da
        grads["lstm_b"] += da.sum(axis=0)
        dh = da @ p["lstm_u"].T
        dc = dc * gf
    return loss, grads


def assert_matches_batch_major(net, x, y, *, loss_kind="huber", train_mode=False, seed=0):
    """`backward` and `forward_batch` against the batch-major oracle: the loss
    within rel 1e-12, and each gradient and the predictions within 1e-12 times
    the largest magnitude of the oracle's array."""
    loss, grads = backward(net, x, y, loss_kind=loss_kind, train_mode=train_mode, seed=seed)
    ref_loss, ref_grads = oracle_backward(net, x, y, loss_kind=loss_kind,
                                          train_mode=train_mode, seed=seed)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape, name
        assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name
    pred = forward_batch(net, x, train_mode=train_mode, seed=seed)
    ref_pred, _ = oracle_forward_cached(net, _check_batch(net, x), train_mode, seed)
    assert pred.shape == ref_pred.shape
    assert np.max(np.abs(pred - ref_pred)) <= 1e-12 * np.max(np.abs(ref_pred))


def fault_probe(body):
    """Minor page faults `body` reports, run in a fresh interpreter without run_cli."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(body)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [int(v) for v in done.stdout.split()]
