"""Gradient-boosted regression trees with elastic-net leaf regularization.

Squared loss on {0,1} labels (g = prediction - label, h = 1), exact greedy
split enumeration over sorted unique feature values, and leaf weights from
the closed-form elastic-net minimizer

    w* = -soft(G, lam*rho) / (H + lam*(1 - rho))

of G*w + 1/2*(H + lam*(1-rho))*w^2 + lam*rho*|w|.  There is no per-leaf
count penalty; pruning is controlled by min_gain and min_child_weight.
Split-gain ties break on the smaller feature name, then the smaller
threshold, which makes fitted trees independent of feature column order.

The split search follows XGBoost's pre-sorted column blocks and depth-wise
growth (Chen & Guestrin, KDD 2016).  Each fit sorts every feature column
once with a stable argsort, and a node's per-feature row order is that
order filtered to the node's rows: ties stay in ascending row order, as a
stable sort of the node's own rows leaves them.  Trees grow one depth at a
time, and the cuts of all nodes of a depth are scored together, in blocks
of nodes of similar size.  A fit allocates its working set once: the
level's element index in two buffers that alternate by depth, and the
block buffers, per-cut node values included, so a split search allocates
no level- or block-sized array that the allocator would map or trim each
time.  The grower reads a (lam, rho) cell only through its penalties
l1 = lam*rho and l2 = lam*(1 - rho), so grid_search fits each distinct
(l1, l2) pair once (at lam = 0 every rho is one pair).  The pairs are dealt
round-robin to the main process and the forked helpers of `_fork`, and fit
in one batch per process (a few for large inputs), since they share the
rows and the presort: tree t of every pair grows together, and each new
tree's leaf values go straight into the pairs' validation scores.  The
winner's refit runs in the main process.  train_gbt is the same grower with
one pair.  A tree is flat node arrays in XGBoost's layout from the grower
on: GbtModel keeps them as they are grown, one walker (_apply_trees) scores
them for grid_search and predict, and the model JSON nests them.

Fitted models are byte-identical to a scan that re-sorts every node and
scores one threshold at a time (the oracle in tests/helpers.py), and a
grid search equals one train_gbt per cell.  The rules that keep it so:

- a node's G is np.sum over its rows in ascending row order;
- G_L is a sequential cumsum along each (node, feature) segment, whose
  padding lanes come only after the segment's end;
- every gain and leaf weight takes the scalar formulas' operations in the
  same order;
- ties on gain break on the feature name's rank (equal names share one),
  then the threshold, then the feature index.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np

from . import _fork
from ._checks import dataclass_from_doc, finite_real
from .configs import DEFAULT_LAMBDA_GRID, DEFAULT_RHO_GRID, GbtConfig
from .ingest import MatchTimeline, _text_dest
from .momentum import MomentumConfig, build_feature_matrix, momentum_series

__all__ = [
    "GbtConfig",
    "GbtModel",
    "GridSearchResult",
    "AblationRow",
    "AblationReport",
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_RHO_GRID",
    "ABLATION_VARIANTS",
    "soft_threshold",
    "grad_hess",
    "leaf_weight",
    "split_gain",
    "train_gbt",
    "predict",
    "raw_predict",
    "accuracy_score",
    "grid_search",
    "run_ablation",
    "model_to_json",
    "model_from_json",
    "write_ablation_csv",
]

# Report order for the four-way momentum ablation.
ABLATION_VARIANTS = ("none", "strat_only", "psych_only", "both")


# What a node array's values must be, and the dtype kinds that can hold them.
_NODE_ARRAYS = {"feature": ("feature must be a non-negative integer", "iu"),
                "threshold": ("threshold must be finite", "iuf"),
                "left": ("left must be a node index", "iu"),
                "right": ("right must be a node index", "iu"),
                "weight": ("leaf weight must be finite", "iuf")}


@dataclass(frozen=True, eq=False)
class GbtModel:
    """base_score plus learning_rate times the sum of the trees' leaf values.

    A tree is XGBoost's flat node arrays (feature, threshold, left, right,
    weight), root first; a row goes left if row[feature] < threshold.  A
    leaf has children -1, feature -1 and threshold 0.0, a split weight 0.0
    and children after it, and every node but the root has one parent.
    `==` compares the arrays, node order included; train_gbt and
    model_from_json both give the grower's order.
    """

    base_score: float
    trees: tuple[tuple[np.ndarray, ...], ...]
    config: GbtConfig
    feature_names: tuple[str, ...]

    def __post_init__(self):
        n_features = len(self.feature_names)
        object.__setattr__(self, "trees", _flat_trees(self.trees, n_features))

    def __eq__(self, other):
        if not isinstance(other, GbtModel):
            return NotImplemented
        return ((self.base_score, self.config, self.feature_names, len(self.trees))
                == (other.base_score, other.config, other.feature_names, len(other.trees))
                and all(map(np.array_equal, chain(*self.trees), chain(*other.trees))))


def _check_node(feature, threshold, left, right, weight, n_features: int) -> None:
    """Raise ValueError unless a node, None marking an absent field, is a
    leaf (a finite weight alone) or a split (the other four fields)."""
    if weight is not None:
        if not finite_real(weight):
            raise ValueError(f"leaf weight must be finite, got {weight!r}")
        carried = [name for name, value in zip(_NODE_ARRAYS, (feature, threshold, left, right))
                   if value is not None]
        if carried:
            raise ValueError(f"leaf carries split fields: {', '.join(carried)}")
    elif feature is None or threshold is None or left is None or right is None:
        raise ValueError("internal node missing split fields")
    elif isinstance(feature, bool) or not isinstance(feature, numbers.Integral) or feature < 0:
        raise ValueError(f"feature must be a non-negative integer, got {feature!r}")
    elif feature >= n_features:
        raise ValueError(f"feature {feature} is out of range for {n_features} features")
    elif not finite_real(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")


def _flat_trees(trees, n_features: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Checked read-only int64/float64 copies of each tree's five node arrays.

    The trees are checked together, on their concatenated node arrays, and
    an error names the first fault of the first bad tree."""
    checked = []
    for tree in trees:
        try:
            checked.append(_tree_arrays(tree))
        except ValueError:
            _check_trees(checked, n_features)  # an earlier tree's fault comes first
            raise
    return _check_trees(checked, n_features)


def _tree_arrays(tree) -> list[np.ndarray]:
    """A tree's five node arrays, checked for shape and dtype."""
    if len(tree) != 5:
        raise ValueError(f"a tree must be 5 node arrays, got {len(tree)}")
    arrays = [np.asarray(a) for a in tree]
    n = arrays[0].size
    if {a.shape for a in arrays} != {(n,)} or not n:
        raise ValueError("a tree's node arrays must be 1-D, non-empty and of one length, got "
                         "shapes " + ", ".join(str(a.shape) for a in arrays))
    for a, (fault, kinds) in zip(arrays, _NODE_ARRAYS.values()):
        if a.dtype.kind not in kinds:
            raise ValueError(f"{fault}, got a {a.dtype} array")
    return arrays


def _check_trees(trees, n_features: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Trees of _tree_arrays as read-only slices of their concatenated node
    arrays, once every node is checked."""
    if not trees:
        return ()
    arrays = [np.concatenate(field, dtype=np.float64 if "f" in kinds else np.int64,
                             casting="unsafe")
              for field, (_, kinds) in zip(zip(*trees), _NODE_ARRAYS.values())]
    feature, threshold, left, right, weight = arrays
    sizes = np.array([tree[0].size for tree in trees])
    ends = sizes.cumsum()
    first = (ends - sizes).repeat(sizes)  # each node's tree's root
    n = sizes.repeat(sizes)
    node = np.arange(ends[-1]) - first  # each node's index in its tree
    leaf = (left == -1) & (right == -1)
    bad_node = np.where(leaf, (feature != -1) | (threshold != 0.0) | ~np.isfinite(weight),
                        (feature < 0) | (feature >= n_features) | (left == -1) | (right == -1)
                        | ~np.isfinite(threshold) | (weight != 0.0))
    # A split's children come after it in its tree; only those are counted as parents.
    bad_left = ~leaf & ((left <= node) | (left >= n))
    bad_right = ~leaf & ((right <= node) | (right >= n))
    children = np.concatenate(((first + left)[~leaf & ~bad_left],
                               (first + right)[~leaf & ~bad_right]))
    n_parents = np.bincount(children, minlength=node.size)
    bad_parents = (node > 0) & (n_parents != 1)
    bad = bad_node | bad_left | bad_right | bad_parents
    if bad.any():  # the first bad tree's first fault, in the order above
        i = bad.argmax()
        tree = slice(first[i], first[i] + n[i])
        if bad_node[tree].any():
            i = tree.start + bad_node[tree].argmax()
            f, t, lc, rc, w = (a[i].item() for a in arrays)
            if lc == rc == -1:
                _check_node(None if f == -1 else f, t if t else None, None, None, w, n_features)
            lc, rc = (None if c == -1 else c for c in (lc, rc))
            _check_node(f, t, lc, rc, w if w else None, n_features)
        for bad_child, child in ((bad_left, left), (bad_right, right)):
            if bad_child[tree].any():
                i = tree.start + bad_child[tree].argmax()
                raise ValueError(f"node {node[i]} has child {child[i]}, not after it among "
                                 f"{n[i]} nodes")
        i = tree.start + bad_parents[tree].argmax()
        raise ValueError(f"node {node[i]} has {n_parents[i]} parents; every node but the root "
                         "has one")
    for a in arrays:
        a.flags.writeable = False
    return tuple(tuple(a[end - size:end] for a in arrays)
                 for size, end in zip(sizes.tolist(), ends.tolist()))


def soft_threshold(x: float, t: float) -> float:
    """sign(x) * max(|x| - t, 0)."""
    return math.copysign(max(abs(x) - t, 0.0), x)


def grad_hess(prediction: float, label: float) -> tuple[float, float]:
    """Gradient and hessian of 1/2*(label - prediction)^2 in the prediction."""
    if label not in (0.0, 1.0, 0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return prediction - label, 1.0


def _leaf_denominator(H: float, lam: float, rho: float) -> float:
    denom = H + lam * (1.0 - rho)
    if denom <= 0:
        raise ValueError(f"degenerate leaf: H + lam*(1-rho) = {denom} is not positive")
    return denom


def leaf_weight(G: float, H: float, lam: float, rho: float) -> float:
    return -soft_threshold(G, lam * rho) / _leaf_denominator(H, lam, rho)


def _leaf_score(G: float, H: float, lam: float, rho: float) -> float:
    s = soft_threshold(G, lam * rho)
    return s * s / _leaf_denominator(H, lam, rho)


def split_gain(G_L: float, H_L: float, G_R: float, H_R: float, lam: float, rho: float) -> float:
    return 0.5 * (_leaf_score(G_L, H_L, lam, rho) + _leaf_score(G_R, H_R, lam, rho)
                  - _leaf_score(G_L + G_R, H_L + H_R, lam, rho))


# grid_search fits at most this many (cell, feature, row) elements in one
# batch, so a large input costs about what one cell's fit costs, not one per cell.
_BATCH_ELEMENTS = 2**20
# The split search's padded blocks hold at most this many elements (more
# only when one node is wider), so their buffers stay small whatever the
# number of cells.  Of 8192 to 262144, 16384 was the fastest on a 21-pair
# grid search over 300 points; re-measure before changing it.
_BLOCK_ELEMENTS = 16384
# Element (cell*n + row) and value-rank indices are int32 below this, else int64.
_INT32_INDICES = 2**31


def _penalties(lam, rho) -> tuple[float, float]:
    """The elastic-net penalties (l1, l2) = (lam*rho, lam*(1 - rho)) in float64."""
    lam, rho = float(lam), float(rho)
    return lam * rho, lam * (1.0 - rho)


class _Batch:
    """What a batch of cells shares for a whole fit: the presort, the cells'
    (l1, l2) penalties and the working set, allocated once: the level
    index buffers and the split search's block buffers."""

    def __init__(self, x: np.ndarray, penalties, config: GbtConfig, names: tuple[str, ...]):
        n, n_features = x.shape
        n_cells = len(penalties)
        self.cfg = config
        self.l1, self.l2 = np.array(penalties, dtype=np.float64).T
        rank = {name: i for i, name in enumerate(sorted(set(names)))}
        self.name_rank = np.array([rank[name] for name in names], dtype=np.intp)
        self.x_t = np.ascontiguousarray(x.T)
        # Sorted once per fit: row order of each feature, ties by row index.
        order = np.argsort(x, axis=0, kind="stable").T
        sorted_x = np.take_along_axis(self.x_t, order, axis=1)
        # Dense value ranks, numbered across features: ranks[f*n + row] is the
        # rank of x[row, f], and values[rank] the value.
        starts = np.ones((n_features, n), dtype=bool)
        np.not_equal(sorted_x[:, 1:], sorted_x[:, :-1], out=starts[:, 1:])
        self.values = sorted_x[starts]
        index = np.int32 if max(n_cells, n_features) * n < _INT32_INDICES else np.int64
        ranks = np.empty((n_features, n), dtype=index)
        np.put_along_axis(ranks, order, starts.cumsum(dtype=index).reshape(n_features, n) - 1,
                          axis=1)
        self.ranks = ranks.ravel()
        # The root level: elements (cell*n + row) run node (one per cell), then
        # feature, then sorted order; rows (cell*n + row) ascend in each node.
        cells = np.arange(n_cells)
        self.root = ((cells[:, None, None] * n + order).astype(index).ravel(),
                     np.arange(n_cells * n, dtype=index), np.full(n_cells, n), cells)
        self.side = np.empty(n_cells * n, dtype=np.int8)
        # A level's elements, filtered from the level above's into the other buffer.
        self.levels = (np.empty(n_cells * n_features * n, dtype=index),
                       np.empty(n_cells * n_features * n, dtype=index))
        self.element_side = np.empty(n_cells * n_features * n, dtype=np.int8)
        self.block_size = max(_BLOCK_ELEMENTS, n_features * n)
        self.lanes = np.arange(n)
        self.h_left = np.arange(1.0, n)  # H_L of the cut after lane k is k + 1
        self.shifts = np.arange(n_features)
        self.pos = np.empty(self.block_size, dtype=np.intp)
        self.rows = np.empty(self.block_size, dtype=index)
        self.rank = np.empty(self.block_size, dtype=index)
        self.g_left = np.empty(self.block_size)
        self.cut = np.empty(self.block_size, dtype=bool)
        self.node_lanes = np.empty(5 * self.block_size)  # per_node repeated over each cut


def _boost(x, y, penalties, config: GbtConfig, names: tuple[str, ...]):
    """Boost one model per cell, cell c with penalties[c] = (l1, l2), on the
    same rows, together.

    The cells share x, y, names and every setting but lam and rho, which
    the grower reads only through the penalties.  Round t grows tree t of
    every cell and yields the round's trees as flat node arrays (feature,
    threshold, left, right, weight) over all cells, laid out as GbtModel's
    trees are: node c is cell c's root.
    """
    batch = _Batch(x, penalties, config, names)
    pred = np.full((len(penalties), x.shape[0]), float(y.mean()))
    for _ in range(config.n_trees):
        leaf_out = np.empty(pred.size)
        yield _grow_round(batch, (pred - y).ravel(), leaf_out)
        pred = pred + config.learning_rate * leaf_out.reshape(pred.shape)


def _grow_round(batch: _Batch, g: np.ndarray, leaf_out: np.ndarray):
    """Grow one tree per cell, one depth at a time, and write leaf values into leaf_out."""
    cfg, (n_features, n) = batch.cfg, batch.x_t.shape
    idx, rows, m, node_cell = batch.root
    add = np.add.reduce
    parts = []
    base = 0
    for depth in range(cfg.max_depth + 1):
        n_nodes = m.size
        # G by np.sum over the node's rows in ascending order, as the scalar scan takes it.
        g_rows = g[rows]
        ends = [0] + m.cumsum().tolist()
        G = np.array([add(g_rows[a:b]) for a, b in zip(ends[:-1], ends[1:])])
        node_l1, node_l2 = batch.l1[node_cell], batch.l2[node_cell]
        feature = np.full(n_nodes, -1)
        threshold = np.zeros(n_nodes)
        if depth < cfg.max_depth and batch.name_rank.size:
            open_nodes = (m >= 2).nonzero()[0]
            if open_nodes.size:
                _best_splits(batch, g, idx, G, m, node_cell, node_l1, node_l2, open_nodes,
                             feature, threshold)
        split = feature >= 0
        denom = m + node_l2
        if not (denom > 0).all():
            raise ValueError(f"degenerate leaf: H + lam*(1-rho) = {denom.min()} is not positive")
        weight = np.maximum(np.abs(G) - node_l1, 0.0)
        np.copysign(weight, G, out=weight)
        weight = -weight / denom
        n_split = int(split.sum())
        left = np.full(n_nodes, -1)
        left[split] = np.arange(base + n_nodes, base + n_nodes + n_split)
        right = np.where(split, left + n_split, -1)
        parts.append((feature, threshold, left, right, np.where(split, 0.0, weight)))
        nid = np.arange(n_nodes).repeat(m)
        if n_split == 0:
            leaf_out[rows] = weight[nid]
            break
        # Each row goes left (0) or right (1), or stays in a leaf (2).
        row_side = np.where(split[nid],
                            batch.x_t[feature[nid], rows - node_cell[nid] * n] >= threshold[nid],
                            2).astype(np.int8)
        in_leaf = row_side == 2
        leaf_out[rows[in_leaf]] = weight[nid[in_leaf]]
        to_left, to_right = row_side == 0, row_side == 1
        m_left = np.bincount(nid[to_left], minlength=n_nodes)[split]
        if depth + 1 < cfg.max_depth:  # children at max_depth are leaves and never search
            batch.side[rows] = row_side
            element_side = batch.side.take(idx, out=batch.element_side[:idx.size], mode="clip")
            # Filtering keeps each feature's sorted order, so children never re-sort.
            n_left = n_features * int(m_left.sum())
            n_right = n_features * int(m[split].sum()) - n_left
            level = batch.levels[depth % 2]
            np.compress(element_side == 0, idx, out=level[:n_left])
            np.compress(element_side == 1, idx, out=level[n_left:n_left + n_right])
            idx = level[:n_left + n_right]
        m = np.concatenate((m_left, m[split] - m_left))
        rows = np.concatenate((rows[to_left], rows[to_right]))
        node_cell = np.concatenate((node_cell[split], node_cell[split]))
        base += n_nodes
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _best_splits(batch: _Batch, g, idx, G, m, node_cell, l1, l2, nodes, feature, threshold):
    """Write the best split of each of `nodes` into feature/threshold.

    A level's elements idx (cell*n + row) run node, then feature, then
    rank: node j's segment for feature f holds its m[j] rows in that
    feature's sorted order.  G, m, node_cell, l1 and l2 are per node of the
    level; `nodes` are the ones with at least two rows.  They go in blocks
    of similar size, largest first.  A block lays its segments out as rows,
    position k holding the segment's k-th element, and repeats each
    segment's last element past its end.  Lane k is the cut after the k-th
    value, and a sequential cumsum along a row gives its G_L.  Gains are
    taken only at valid cuts (the values differ, both children are heavy
    enough), each with the scalar formulas' operations in the same order,
    so it is the gain split_gain gives, bit for bit.  A node without a
    valid cut above min_gain keeps feature -1.
    """
    cfg, name_rank = batch.cfg, batch.name_rank
    n_features, n = name_rank.size, batch.lanes.size
    seg_start = (m * n_features).cumsum() - m * n_features
    nodes = nodes[(-m[nodes]).argsort(kind="stable")]
    G, m, l1, l2 = G[nodes], m[nodes], l1[nodes], l2[nodes]
    parent = np.maximum(np.abs(G) - l1, 0.0)
    parent *= parent
    parent /= m + l2
    per_node = np.array((G, l1, l2, m, parent))
    # Per segment of `nodes`, in that order: its first and last element, and
    # what turns an element's idx into its index in batch.ranks.
    first_el = (seg_start[nodes, None] + batch.shifts * m[:, None]).ravel()
    last_el = first_el + (m - 1).repeat(n_features)
    to_rank = (batch.shifts * n - node_cell[nodes, None] * n).ravel()
    start = 0
    while start < nodes.size:
        width = int(m[start])
        n_lanes = width - 1  # the last value is never a cut
        block = slice(start, start + max(1, batch.block_size // (n_features * width)))
        sel = nodes[block]
        segs = slice(start * n_features, (start + sel.size) * n_features)
        start += sel.size
        n_seg = sel.size * n_features
        pos = batch.pos[:n_seg * width].reshape(n_seg, width)
        np.add(first_el[segs, None], batch.lanes[:width], out=pos)
        np.minimum(pos, last_el[segs, None], out=pos)
        rows = idx.take(pos, out=batch.rows[:pos.size].reshape(pos.shape), mode="clip")
        g_left = g.take(rows[:, :-1], mode="clip",
                        out=batch.g_left[:n_seg * n_lanes].reshape(n_seg, n_lanes))
        g_left.cumsum(axis=1, out=g_left)
        np.add(rows, to_rank[segs, None], out=pos)
        rank = batch.ranks.take(pos, out=batch.rank[:pos.size].reshape(pos.shape), mode="clip")
        # Positions past a segment's end repeat its last value, so they hold no cut.
        cut = np.not_equal(rank[:, :-1], rank[:, 1:],
                           out=batch.cut[:n_seg * n_lanes].reshape(n_seg, n_lanes))
        h_left = batch.h_left[:n_lanes]
        if cfg.min_child_weight > 1.0:
            cut &= h_left >= cfg.min_child_weight
            cut &= (last_el - first_el)[segs, None] + 1 - h_left >= cfg.min_child_weight
        lane = cut.ravel().nonzero()[0]
        if lane.size == 0:
            continue
        # Lanes ascend, so each segment's and each node's cuts form one run.
        seg_runs = cut.sum(axis=1)
        node_runs = seg_runs.reshape(sel.size, n_features).sum(axis=1)
        G_N, l1_N, l2_N, m_N, parent_N = per_node.take(
            np.arange(block.start, block.start + sel.size).repeat(node_runs), axis=1, mode="clip",
            out=batch.node_lanes[:5 * lane.size].reshape(5, lane.size))
        H_L = np.subtract(lane, np.arange(-1, n_seg * n_lanes - 1, n_lanes).repeat(seg_runs),
                          dtype=np.float64)
        G_L = g_left.ravel()[lane]
        # s*s drops soft()'s sign, so |G| - l1 clipped at 0 squares the same.
        right = G_N - G_L
        np.abs(right, out=right)
        right -= l1_N
        np.maximum(right, 0.0, out=right)
        right *= right
        m_N -= H_L  # H_R
        m_N += l2_N
        right /= m_N
        gain = np.abs(G_L, out=G_L)
        gain -= l1_N
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        H_L += l2_N
        gain /= H_L
        gain += right
        gain -= parent_N
        gain *= 0.5
        # fmax skips NaN, which gain > min_gain also rejects.
        node_runs = node_runs[node_runs > 0]
        best = np.fmax.reduceat(gain, node_runs.cumsum() - node_runs)
        best[~(best > cfg.min_gain)] = np.nan
        hit = (gain == best.repeat(node_runs)).nonzero()[0]
        if hit.size == 0:
            continue
        seg = seg_runs.cumsum().searchsorted(hit, side="right")
        node, f = np.divmod(seg, n_features)
        at = lane[hit] + seg  # the cut's left value in `rank`
        thr = (batch.values[rank.ravel()[at]] + batch.values[rank.ravel()[at + 1]]) / 2.0
        # Ties on gain break on the smaller feature name (equal names rank
        # equal), then the smaller threshold, then the smaller feature.
        pick = np.lexsort((f, thr, name_rank[f], node))
        node, f, thr = node[pick], f[pick], thr[pick]
        first = np.ones(node.size, dtype=bool)
        np.not_equal(node[1:], node[:-1], out=first[1:])
        feature[sel[node[first]]] = f[first]
        threshold[sel[node[first]]] = thr[first]


def _apply_trees(tree, x_t: np.ndarray, n_cells: int) -> np.ndarray:
    """Leaf value of each row of x_t's columns in each cell's tree, shape (cells, rows)."""
    feature, threshold, left, right, weight = tree
    node = np.repeat(np.arange(n_cells)[:, None], x_t.shape[1], axis=1)
    rows = np.arange(x_t.shape[1])
    while True:
        f = feature[node]
        inner = f >= 0
        if not inner.any():
            return weight[node]
        goes_left = x_t[f, rows] < threshold[node]
        node = np.where(inner, np.where(goes_left, left[node], right[node]), node)


def _validate_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    y = _check_labels(y, x.shape[0])
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 rows, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x, y


def _check_labels(y, n_rows: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n_rows,):
        raise ValueError(f"labels shape {y.shape} does not match {n_rows} rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return y


def train_gbt(x, y, config: GbtConfig | None = None,
              feature_names=None) -> GbtModel:
    config = config or GbtConfig()
    config.check()
    x, y = _validate_xy(x, y)
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(x.shape[1]))
    else:
        feature_names = tuple(feature_names)
        if len(feature_names) != x.shape[1]:
            raise ValueError("feature_names length does not match feature count")

    trees = tuple(_boost(x, y, [_penalties(config.lam, config.rho)], config, feature_names))
    return GbtModel(base_score=float(y.mean()), trees=trees, config=config,
                    feature_names=feature_names)


def _check_width(model: GbtModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(model.feature_names):
        raise ValueError(
            f"row width {rows.shape[1] if rows.ndim == 2 else 'n/a'} does not match "
            f"the {len(model.feature_names)} training features"
        )
    return rows


def raw_predict(model: GbtModel, rows) -> np.ndarray:
    """Unclipped additive score: base + learning_rate * sum of tree outputs."""
    rows = _check_width(model, rows)
    x_t = np.ascontiguousarray(rows.T)
    out = np.full(rows.shape[0], model.base_score)
    for tree in model.trees:
        out = out + model.config.learning_rate * _apply_trees(tree, x_t, 1)[0]
    return out


def predict(model: GbtModel, rows) -> np.ndarray:
    """Win probability for player 1, clipped to [0, 1]."""
    return np.clip(raw_predict(model, rows), 0.0, 1.0)


def accuracy_score(model: GbtModel, x, y) -> float:
    """Fraction of rows whose prediction thresholded at 0.5 matches the label."""
    p = predict(model, x)
    if p.size == 0:
        raise ValueError("need at least 1 row to score")
    return float(np.mean((p >= 0.5) == (_check_labels(y, p.shape[0]) == 1.0)))


@dataclass(frozen=True)
class GridSearchResult:
    best_lambda: float
    best_rho: float
    val_accuracy: float
    model: GbtModel  # refit on the full training split with the winner
    n_train: int  # rows in the training split (the first 80%)


# grid_search's chronological splits keep the first 4/5 of rows for training.
_TRAIN_NUMERATOR, _TRAIN_DENOMINATOR = 4, 5


def _chronological_split(n: int) -> int:
    return (n * _TRAIN_NUMERATOR) // _TRAIN_DENOMINATOR


def grid_search(x, y, lambda_grid=DEFAULT_LAMBDA_GRID, rho_grid=DEFAULT_RHO_GRID,
                config: GbtConfig | None = None) -> GridSearchResult:
    """Chronological grid search for (lam, rho).

    The first 80% of rows form the training split and the last 20% are left
    untouched for test evaluation by the caller.  Within the training split,
    the first 80% fit every distinct (lam*rho, lam*(1 - rho)) penalty pair of
    the grid, batched and spread over the machine's cores, and the last 20%
    score them; a cell takes its pair's accuracy.  The best validation
    accuracy wins; ties break toward smaller lam, then smaller rho.  The
    winner is refit on the whole training split.
    """
    config = config or GbtConfig()
    config.check()
    x, y = _validate_xy(x, y)
    if len(lambda_grid) == 0 or len(rho_grid) == 0:
        raise ValueError("lambda_grid and rho_grid must be non-empty")
    for name, grid in (("lambda_grid", lambda_grid), ("rho_grid", rho_grid)):
        for value in grid:
            if not finite_real(value):
                raise ValueError(f"{name} values must be finite, got {value}")

    n = x.shape[0]
    n_train = _chronological_split(n)
    n_inner = _chronological_split(n_train)
    if n - n_train < 1 or n_train - n_inner < 1 or n_inner < 2:
        raise ValueError(
            f"degenerate chronological split: {n} rows give train={n_train}, "
            f"inner-train={n_inner}"
        )
    x_tr, y_tr = x[:n_train], y[:n_train]
    x_in, y_in = x_tr[:n_inner], y_tr[:n_inner]
    x_val, y_val = x_tr[n_inner:], y_tr[n_inner:]

    cells = [(lam, rho) for lam in sorted(set(float(v) for v in lambda_grid))
             for rho in sorted(set(float(v) for v in rho_grid))]
    for lam, rho in cells:
        replace(config, lam=lam, rho=rho).check()
    # Cells with equal penalties fit equal models: fit each pair once.
    pair_of = {}
    cell_pair = [pair_of.setdefault(_penalties(lam, rho), len(pair_of)) for lam, rho in cells]
    pairs = list(pair_of)
    names = tuple(f"f{i}" for i in range(x.shape[1]))
    x_val_t = np.ascontiguousarray(x_val.T)
    step = max(1, _BATCH_ELEMENTS // max(1, x_in.size))

    def fit(share):
        """The validation scores of each pair of `share`, fitted in batches."""
        scores = np.full((len(share), x_val.shape[0]), float(y_in.mean()))
        for start in range(0, len(share), step):
            batch_pairs = share[start:start + step]
            batch_scores = scores[start:start + step]
            for trees in _boost(x_in, y_in, batch_pairs, config, names):
                batch_scores += config.learning_rate * _apply_trees(trees, x_val_t,
                                                                    len(batch_pairs))
        return list(scores)

    with _fork.helpers(fit, len(pairs), "grid-search") as run:
        scores = np.array(run((), pairs))
    correct = (np.clip(scores, 0.0, 1.0) >= 0.5) == (y_val == 1.0)
    pair_acc = correct.mean(axis=1).tolist()
    best = None  # (accuracy, lam, rho); sorted cells make ties pick small lam/rho
    for (lam, rho), acc in zip(cells, (pair_acc[p] for p in cell_pair)):
        if best is None or acc > best[0]:
            best = (acc, lam, rho)

    acc, lam, rho = best
    model = train_gbt(x_tr, y_tr, replace(config, lam=lam, rho=rho))
    return GridSearchResult(best_lambda=lam, best_rho=rho, val_accuracy=acc,
                            model=model, n_train=n_train)


@dataclass(frozen=True)
class AblationRow:
    variant: str
    test_accuracy: float
    chosen_lambda: float
    chosen_rho: float


@dataclass(frozen=True)
class AblationReport:
    match_id: str
    rows: tuple[AblationRow, ...]

    def __post_init__(self):
        if tuple(r.variant for r in self.rows) != ABLATION_VARIANTS:
            raise ValueError(f"ablation report must cover exactly {ABLATION_VARIANTS}")

    def accuracy(self, variant: str) -> float:
        for r in self.rows:
            if r.variant == variant:
                return r.test_accuracy
        raise KeyError(variant)


def run_ablation(timeline: MatchTimeline, momentum_config: MomentumConfig | None = None,
                 gbt_config: GbtConfig | None = None,
                 lambda_grid=DEFAULT_LAMBDA_GRID, rho_grid=DEFAULT_RHO_GRID) -> AblationReport:
    """Grid search + held-out accuracy for each momentum feature variant."""
    momentum_config = momentum_config or MomentumConfig()
    series = momentum_series(timeline, momentum_config)
    rows = []
    for variant in ABLATION_VARIANTS:
        fm = build_feature_matrix(timeline, series, variant)
        result = grid_search(fm.x, fm.y, lambda_grid, rho_grid, gbt_config)
        x_test, y_test = fm.x[result.n_train:], fm.y[result.n_train:]
        rows.append(AblationRow(
            variant=variant,
            test_accuracy=accuracy_score(result.model, x_test, y_test),
            chosen_lambda=result.best_lambda,
            chosen_rho=result.best_rho,
        ))
    return AblationReport(match_id=timeline.match_id, rows=tuple(rows))


def _tree_to_obj(tree) -> dict:
    """The nested document of a flat tree, built from the last node back to the root."""
    feature, threshold, left, right, weight = (a.tolist() for a in tree)
    objs = [None] * len(feature)
    for i in reversed(range(len(feature))):
        objs[i] = {"weight": weight[i]} if feature[i] < 0 else {
            "feature": feature[i], "threshold": threshold[i],
            "left": objs[left[i]], "right": objs[right[i]]}
    return objs[0]


def _tree_from_obj(root, n_features: int) -> tuple[tuple, ...]:
    """A nested tree document's node arrays in the grower's order: level by
    level, each level's left children before its right children."""
    nodes, level = [], [root]
    while level:
        splits = []
        for obj in level:
            if not isinstance(obj, dict):
                raise ValueError(f"tree node must be an object, got {obj!r}")
            node = [obj.get(name) for name in _NODE_ARRAYS]
            _check_node(*node, n_features)
            if node[4] is not None:
                node = [-1, 0.0, -1, -1, node[4]]
            else:  # children by rank among the level's splits until the level ends
                node[2:] = len(splits), len(splits), 0.0
                splits.append(obj)
            nodes.append(node)
        for node in nodes[len(nodes) - len(level):]:
            if node[0] >= 0:
                node[2] += len(nodes)
                node[3] += len(nodes) + len(splits)
        level = [obj["left"] for obj in splits] + [obj["right"] for obj in splits]
    return tuple(zip(*nodes))


def model_to_json(model: GbtModel) -> str:
    doc = {
        "format_version": 1,
        "base_score": model.base_score,
        "config": asdict(model.config),
        "feature_names": list(model.feature_names),
        "trees": [_tree_to_obj(t) for t in model.trees],
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> GbtModel:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    missing = [k for k in ("base_score", "config", "feature_names", "trees") if k not in doc]
    if missing:
        raise ValueError(f"model document missing fields: {', '.join(missing)}")
    if not finite_real(doc["base_score"]):
        raise ValueError(f"base_score must be finite, got {doc['base_score']!r}")
    config = dataclass_from_doc(GbtConfig, doc["config"], "config")
    config.check()
    names = doc["feature_names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"feature_names must be a list of strings, got {names!r}")
    if not isinstance(doc["trees"], list):
        raise ValueError(f"trees must be a list, got {doc['trees']!r}")
    return GbtModel(
        base_score=doc["base_score"],
        trees=tuple(_tree_from_obj(t, len(names)) for t in doc["trees"]),
        config=config,
        feature_names=tuple(names),
    )


def write_ablation_csv(report: AblationReport, dest) -> None:
    rows = [["match_id", "variant", "test_accuracy", "lambda", "rho"]]
    rows += [[report.match_id, r.variant, repr(r.test_accuracy), repr(r.chosen_lambda),
              repr(r.chosen_rho)] for r in report.rows]
    with _text_dest(dest) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
