"""Gradient-boosted regression trees with elastic-net leaf regularization.

Squared loss on {0,1} labels (g = prediction - label, h = 1), exact greedy
split enumeration over sorted unique feature values, and leaf weights from
the closed-form elastic-net minimizer

    w* = -soft(G, lam*rho) / (H + lam*(1 - rho))

of G*w + 1/2*(H + lam*(1-rho))*w^2 + lam*rho*|w|.  There is no per-leaf
count penalty; pruning is controlled by min_gain and min_child_weight.
Split-gain ties break on the smaller feature name, then the smaller
threshold, which makes fitted trees independent of feature column order.

The split search follows XGBoost's pre-sorted column blocks (Chen &
Guestrin, KDD 2016).  Each fit sorts every feature column once with a
stable argsort, and a node's per-feature row order is that order filtered
to the node's rows: ties stay in ascending row order, as a stable sort of
the node's own rows leaves them.  Cumulative gradient sums along those
orders score every (feature, threshold) cell of a node in one pass.  An
accumulate adds in sequence and each cell's gain takes the scalar
formula's operations in the same order, so the fitted model is
byte-identical to a scan that re-sorts every node and scores one threshold
at a time (the oracle in tests/helpers.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._checks import require_finite, require_int
from .ingest import MatchTimeline
from .momentum import MomentumConfig, build_feature_matrix, momentum_series

__all__ = [
    "GbtConfig",
    "TreeNode",
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

DEFAULT_LAMBDA_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)
DEFAULT_RHO_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# Report order for the four-way momentum ablation.
ABLATION_VARIANTS = ("none", "strat_only", "psych_only", "both")


@dataclass(frozen=True)
class GbtConfig:
    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 4
    min_child_weight: float = 1.0
    lam: float = 1.0
    rho: float = 0.5
    min_gain: float = 0.0
    seed: int = 0

    def check(self) -> None:
        require_finite(self, "learning_rate", "min_child_weight", "lam", "rho", "min_gain")
        require_int(self, "n_trees", "max_depth")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_child_weight < 0:
            raise ValueError(f"min_child_weight must be >= 0, got {self.min_child_weight}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.min_gain < 0:
            raise ValueError(f"min_gain must be >= 0, got {self.min_gain}")


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature/threshold/left/right) or leaf (weight)."""

    feature: int | None = None
    threshold: float | None = None
    left: TreeNode | None = None
    right: TreeNode | None = None
    weight: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.weight is not None

    def __post_init__(self):
        if self.is_leaf:
            if not math.isfinite(self.weight):
                raise ValueError(f"leaf weight must be finite, got {self.weight}")
            if self.feature is not None or self.left is not None or self.right is not None:
                raise ValueError("leaf carries split fields")
        else:
            if self.feature is None or self.threshold is None or self.left is None or self.right is None:
                raise ValueError("internal node missing split fields")


@dataclass(frozen=True)
class GbtModel:
    base_score: float
    trees: tuple[TreeNode, ...]
    config: GbtConfig
    feature_names: tuple[str, ...]


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


def _best_split(x_t: np.ndarray, g: np.ndarray, order: np.ndarray, G: float,
                cfg: GbtConfig, names: tuple[str, ...]) -> tuple[int, float] | None:
    """(feature, threshold) of the best split of one node, or None.

    order[f] holds the node's rows sorted by feature f, so cell (f, k) of
    the cumulative gradient sums is the left child of a cut after the k-th
    value.  With h = 1 the left hessian sum is the row count k + 1.  Each
    cell gets the scalar formulas' operations in the same order, so its gain
    is the one split_gain gives, bit for bit.
    """
    n_features, m = order.shape
    sv = x_t[np.arange(n_features)[:, None], order]
    G_L = g[order].cumsum(axis=1)[:, :-1]
    G_R = G - G_L
    H_L = np.arange(1.0, m)
    H_R = m - H_L
    l1 = cfg.lam * cfg.rho
    l2 = cfg.lam * (1.0 - cfg.rho)
    s_L = np.copysign(np.maximum(np.abs(G_L) - l1, 0.0), G_L)
    s_R = np.copysign(np.maximum(np.abs(G_R) - l1, 0.0), G_R)
    gain = 0.5 * (s_L * s_L / (H_L + l2) + s_R * s_R / (H_R + l2)
                  - _leaf_score(G, float(m), cfg.lam, cfg.rho))
    ok = ((sv[:, :-1] != sv[:, 1:]) & (gain > cfg.min_gain)
          & ((H_L >= cfg.min_child_weight) & (H_R >= cfg.min_child_weight)))
    if not ok.any():
        return None
    # Ties on gain break on the smaller feature name, then the smaller threshold.
    fs, ks = np.nonzero(ok & (gain == gain[ok].max()))
    thresholds = (sv[fs, ks] + sv[fs, ks + 1]) / 2.0
    _, threshold, feature = min((names[f], float(t), int(f)) for f, t in zip(fs, thresholds))
    return feature, threshold


def _grow(x_t: np.ndarray, g: np.ndarray, rows: np.ndarray, order: np.ndarray,
          depth: int, cfg: GbtConfig, names: tuple[str, ...], out: np.ndarray) -> TreeNode:
    """Grow the subtree over `rows` (ascending) and write its leaf weights into out[rows]."""
    G = float(g[rows].sum())
    split = None
    if depth < cfg.max_depth and rows.size >= 2:
        split = _best_split(x_t, g, order, G, cfg, names)
    if split is None:
        weight = leaf_weight(G, float(rows.size), cfg.lam, cfg.rho)
        out[rows] = weight
        return TreeNode(weight=weight)
    feature, threshold = split
    goes_left = x_t[feature] < threshold
    left = goes_left[rows]
    # Filtering keeps each feature's sorted order, so children never re-sort.
    order_left = goes_left[order]
    n_features = order.shape[0]
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow(x_t, g, rows[left], order[order_left].reshape(n_features, -1),
                   depth + 1, cfg, names, out),
        right=_grow(x_t, g, rows[~left], order[~order_left].reshape(n_features, -1),
                    depth + 1, cfg, names, out),
    )


def _apply_tree(node: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])
    idx = np.arange(x.shape[0])

    def fill(nd: TreeNode, rows: np.ndarray) -> None:
        if nd.is_leaf:
            out[rows] = nd.weight
            return
        mask = x[rows, nd.feature] < nd.threshold
        fill(nd.left, rows[mask])
        fill(nd.right, rows[~mask])

    fill(node, idx)
    return out


def _validate_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 rows, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return x, y


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

    base = float(y.mean())
    pred = np.full(x.shape[0], base)
    rows = np.arange(x.shape[0])
    x_t = np.ascontiguousarray(x.T)
    # Sorted once per fit: row order of each feature, ties by row index.
    order = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T)
    trees = []
    for _ in range(config.n_trees):
        g = pred - y
        leaf_out = np.empty(x.shape[0])
        trees.append(_grow(x_t, g, rows, order, 0, config, feature_names, leaf_out))
        pred = pred + config.learning_rate * leaf_out
    return GbtModel(base_score=base, trees=tuple(trees), config=config,
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
    out = np.full(rows.shape[0], model.base_score)
    for tree in model.trees:
        out = out + model.config.learning_rate * _apply_tree(tree, rows)
    return out


def predict(model: GbtModel, rows) -> np.ndarray:
    """Win probability for player 1, clipped to [0, 1]."""
    return np.clip(raw_predict(model, rows), 0.0, 1.0)


def accuracy_score(model: GbtModel, x, y) -> float:
    """Fraction of rows whose prediction thresholded at 0.5 matches the label."""
    p = predict(model, x)
    return float(np.mean((p >= 0.5) == (np.asarray(y) == 1.0)))


@dataclass(frozen=True)
class GridSearchResult:
    best_lambda: float
    best_rho: float
    val_accuracy: float
    model: GbtModel  # refit on the full training split with the winner
    n_train: int  # rows in the training split (the first 80%)


def _chronological_split(n: int, fraction_numerator: int = 4, fraction_denominator: int = 5) -> int:
    return (n * fraction_numerator) // fraction_denominator


def grid_search(x, y, lambda_grid=DEFAULT_LAMBDA_GRID, rho_grid=DEFAULT_RHO_GRID,
                config: GbtConfig | None = None) -> GridSearchResult:
    """Chronological grid search for (lam, rho).

    The first 80% of rows form the training split and the last 20% are left
    untouched for test evaluation by the caller.  Within the training split,
    the first 80% fit each grid cell and the last 20% score it.  The best
    validation accuracy wins; ties break toward smaller lam, then smaller
    rho.  The winner is refit on the whole training split.
    """
    config = config or GbtConfig()
    config.check()
    x, y = _validate_xy(x, y)
    if len(lambda_grid) == 0 or len(rho_grid) == 0:
        raise ValueError("lambda_grid and rho_grid must be non-empty")
    for name, grid in (("lambda_grid", lambda_grid), ("rho_grid", rho_grid)):
        for value in grid:
            if not math.isfinite(float(value)):
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

    best = None  # (accuracy, lam, rho); sorted iteration makes ties pick small lam/rho
    for lam in sorted(set(float(v) for v in lambda_grid)):
        for rho in sorted(set(float(v) for v in rho_grid)):
            model = train_gbt(x_in, y_in, replace(config, lam=lam, rho=rho))
            acc = accuracy_score(model, x_val, y_val)
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


def _node_to_obj(node: TreeNode):
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _node_from_obj(obj) -> TreeNode:
    if "weight" in obj:
        return TreeNode(weight=obj["weight"])
    return TreeNode(
        feature=obj["feature"],
        threshold=obj["threshold"],
        left=_node_from_obj(obj["left"]),
        right=_node_from_obj(obj["right"]),
    )


def model_to_json(model: GbtModel) -> str:
    doc = {
        "format_version": 1,
        "base_score": model.base_score,
        "config": asdict(model.config),
        "feature_names": list(model.feature_names),
        "trees": [_node_to_obj(t) for t in model.trees],
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> GbtModel:
    doc = json.loads(text)
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    config = GbtConfig(**doc["config"])
    config.check()
    return GbtModel(
        base_score=doc["base_score"],
        trees=tuple(_node_from_obj(t) for t in doc["trees"]),
        config=config,
        feature_names=tuple(doc["feature_names"]),
    )


def write_ablation_csv(report: AblationReport, dest) -> None:
    import csv

    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_ablation_csv(report, fh)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["match_id", "variant", "test_accuracy", "lambda", "rho"])
    for r in report.rows:
        writer.writerow([report.match_id, r.variant, repr(r.test_accuracy),
                         repr(r.chosen_lambda), repr(r.chosen_rho)])
