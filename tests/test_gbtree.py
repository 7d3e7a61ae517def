from __future__ import annotations

import errno
import io
import json
import multiprocessing
import os

import numpy as np
import pytest

from helpers import (
    fault_probe,
    leaf_objective,
    make_separable,
    oracle_grid_search,
    oracle_leaf_argmin,
    oracle_raw_predict,
    oracle_train_gbt,
)
from matchkit import _fork, gbtree
from matchkit.gbtree import (
    ABLATION_VARIANTS,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_RHO_GRID,
    AblationReport,
    AblationRow,
    GbtConfig,
    GbtModel,
    accuracy_score,
    grad_hess,
    grid_search,
    leaf_weight,
    model_from_json,
    model_to_json,
    predict,
    raw_predict,
    run_ablation,
    soft_threshold,
    split_gain,
    train_gbt,
    write_ablation_csv,
)
from matchkit.momentum import MomentumConfig, build_feature_matrix, momentum_series


class TestGradHess:
    def test_half_residual(self):
        assert grad_hess(0.5, 1) == (-0.5, 1.0)

    def test_zero_residual(self):
        assert grad_hess(1.0, 1) == (0.0, 1.0)

    def test_full_residual(self):
        assert grad_hess(0.0, 1) == (-1.0, 1.0)

    def test_label_domain(self):
        with pytest.raises(ValueError, match="label"):
            grad_hess(0.5, 0.3)


class TestLeafWeight:
    def test_elastic_net_example(self):
        assert leaf_weight(2.0, 4.0, 1.0, 0.5) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_l1_dead_zone(self):
        assert leaf_weight(0.3, 4.0, 1.0, 0.5) == 0.0

    def test_unregularized(self):
        assert leaf_weight(-1.0, 1.0, 0.0, 0.7) == 1.0

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate"):
            leaf_weight(1.0, 0.0, 0.0, 0.5)

    def test_soft_threshold(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_matches_grid_minimization_sample(self):
        # Dense-grid oracle on a small randomized sample (the acceptance
        # suite runs the full 1000-draw version).
        rng = np.random.default_rng(11)
        for _ in range(60):
            G = float(rng.uniform(-10, 10))
            H = float(10.0 * (1.0 - rng.random()))
            lam = float(rng.uniform(0, 10))
            rho = float(rng.random())
            expected = oracle_leaf_argmin(G, H, lam, rho)
            assert leaf_weight(G, H, lam, rho) == pytest.approx(expected, abs=1e-6)


class TestSplitGain:
    def test_symmetric_children(self):
        assert split_gain(-2.0, 2.0, 2.0, 2.0, 0.0, 0.0) == 2.0

    def test_zero_gradient_children(self):
        assert split_gain(0.0, 3.0, 0.0, 5.0, 0.0, 0.0) == 0.0

    def test_equals_objective_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            G_L, G_R = rng.uniform(-5, 5, 2)
            H_L, H_R = rng.uniform(0.5, 5, 2)
            lam = float(rng.uniform(0, 3))
            rho = float(rng.random())

            def opt_objective(G, H):
                w = leaf_weight(G, H, lam, rho)
                return float(leaf_objective(np.array(w), G, H, lam, rho))

            expected = (opt_objective(G_L + G_R, H_L + H_R)
                        - opt_objective(G_L, H_L) - opt_objective(G_R, H_R))
            assert split_gain(G_L, H_L, G_R, H_R, lam, rho) == pytest.approx(expected, abs=1e-12)


class TestTrainGbt:
    def test_constant_labels_give_zero_trees(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.ones(10)
        model = train_gbt(x, y, GbtConfig(n_trees=3, lam=1.0, rho=0.5))
        assert model.base_score == 1.0
        for feature, threshold, left, right, weight in model.trees:
            assert feature.tolist() == [-1] and weight.tolist() == [0.0]

    def test_clean_separable_reaches_perfect_training_accuracy(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 1))
        y = (x[:, 0] > 0).astype(float)
        model = train_gbt(x, y, GbtConfig(n_trees=5))
        assert accuracy_score(model, x, y) == 1.0

    def test_noisy_separable_heldout(self):
        x, y = make_separable(500, flip=0.1, seed=42)
        result = grid_search(x, y, config=GbtConfig(n_trees=30))
        acc = accuracy_score(result.model, x[result.n_train:], y[result.n_train:])
        assert acc >= 0.85

    def test_monotone_training_mse(self):
        x, y = make_separable(300, flip=0.2, seed=1)
        cfg = GbtConfig(n_trees=25, min_gain=0.0)
        model = train_gbt(x, y, cfg)
        losses = []
        for k in range(len(model.trees) + 1):
            partial = GbtModel(model.base_score, model.trees[:k], cfg, model.feature_names)
            r = raw_predict(partial, x)
            losses.append(float(np.mean((r - y) ** 2)))
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_pure_l2_leaf_weights(self):
        # rho=0 makes every leaf exactly -G/(H+lam).
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 2))
        y = (rng.random(100) < 0.5).astype(float)
        lam = 2.5
        model = train_gbt(x, y, GbtConfig(n_trees=1, max_depth=2, lam=lam, rho=0.0))
        feature, threshold, left, right, weight = model.trees[0]
        rows_at = {0: np.arange(100)}
        for i in range(feature.size):  # children come after their parent
            rows = rows_at.pop(i)
            if feature[i] < 0:
                G = float(np.sum(model.base_score - y[rows]))
                H = float(len(rows))
                assert weight[i] == -G / (H + lam)
                continue
            vals = x[rows, feature[i]]
            rows_at[left[i]] = rows[vals < threshold[i]]
            rows_at[right[i]] = rows[vals >= threshold[i]]
        assert rows_at == {}

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(150, 4))
        y = (x[:, 1] + 0.3 * rng.normal(size=150) > 0).astype(float)
        names = ("alpha", "beta", "gamma", "delta")
        perm = [2, 0, 3, 1]
        cfg = GbtConfig(n_trees=10, max_depth=3)
        model_a = train_gbt(x, y, cfg, names)
        model_b = train_gbt(x[:, perm], y, cfg, tuple(names[i] for i in perm))
        pred_a = predict(model_a, x)
        pred_b = predict(model_b, x[:, perm])
        assert pred_a.tolist() == pred_b.tolist()

    def test_row_duplication_exact_single_tree(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(64, 2))
        y = (rng.random(64) < 0.4).astype(float)
        cfg = GbtConfig(n_trees=1, max_depth=3, lam=0.0, rho=0.0)
        model_once = train_gbt(x, y, cfg)
        model_twice = train_gbt(np.repeat(x, 2, axis=0), np.repeat(y, 2), cfg)
        assert model_once == model_twice

    def test_row_duplication_structure_multi_tree(self):
        # Noisy labels keep split gains well separated; degenerate data can
        # produce exact gain ties whose resolution is summation-order
        # sensitive at the ulp level.
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, size=(64, 2))
        y = np.where(rng.random(64) < 0.2, (x[:, 0] <= 0.2), (x[:, 0] > 0.2)).astype(float)
        cfg = GbtConfig(n_trees=5, max_depth=3, lam=0.0, rho=0.0)
        model_once = train_gbt(x, y, cfg)
        model_twice = train_gbt(np.repeat(x, 2, axis=0), np.repeat(y, 2), cfg)
        for a, b in zip(model_once.trees, model_twice.trees):
            for structure_a, structure_b in zip(a[:4], b[:4]):  # feature, threshold, children
                np.testing.assert_array_equal(structure_a, structure_b)
            np.testing.assert_allclose(a[4], b[4], rtol=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="2 rows"):
            train_gbt(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="labels"):
            train_gbt(np.zeros((4, 2)), np.array([0.0, 1.0, 0.5, 0.0]))
        with pytest.raises(ValueError, match="2-D"):
            train_gbt(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="n_trees"):
            GbtConfig(n_trees=0).check()
        with pytest.raises(ValueError, match="learning_rate"):
            GbtConfig(learning_rate=0.0).check()
        with pytest.raises(ValueError, match="rho"):
            GbtConfig(rho=1.5).check()

    @pytest.mark.parametrize("field", ["learning_rate", "min_child_weight", "lam", "rho",
                                       "min_gain"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GbtConfig(**{field: value}).check()

    @pytest.mark.parametrize("field", ["n_trees", "max_depth", "seed"])
    def test_sizes_must_be_integers(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GbtConfig(**{field: 2.5}).check()
        GbtConfig(**{field: np.int64(2)}).check()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_features_rejected(self, value):
        x = np.array([[0.0], [0.0], [value], [value]])
        with pytest.raises(ValueError, match="features must be finite"):
            train_gbt(x, np.array([1.0, 1.0, 0.0, 1.0]), GbtConfig(lam=0.0, rho=0.0))


def _oracle_case(seed, n, n_features, levels=None):
    """Seeded matrix; with `levels`, integer values in [0, levels) give repeats."""
    rng = np.random.default_rng(seed)
    if levels is None:
        x = rng.normal(size=(n, n_features))
    else:
        x = rng.integers(0, levels, size=(n, n_features)).astype(float)
    y = ((x[:, 0] + rng.normal(scale=1.0, size=n)) > np.median(x[:, 0])).astype(float)
    return x, y


class TestSplitSearchMatchesScalarScan:
    """train_gbt equals the per-node, per-threshold scalar scan in tests/helpers.py."""

    @pytest.mark.parametrize("seed,n,n_features,levels,cfg", [
        (0, 90, 3, None, GbtConfig(n_trees=8, max_depth=3)),
        (1, 120, 4, 3, GbtConfig(n_trees=8, max_depth=4)),
        (2, 80, 2, 2, GbtConfig(n_trees=6, max_depth=3, lam=0.3, rho=0.25)),
        (3, 100, 3, 6, GbtConfig(n_trees=8, max_depth=3, min_child_weight=7.5)),
        (4, 100, 3, None, GbtConfig(n_trees=8, max_depth=4, min_gain=0.4)),
        (5, 60, 3, 4, GbtConfig(n_trees=8, max_depth=3, lam=0.0, rho=0.0)),
        (6, 60, 3, 4, GbtConfig(n_trees=8, max_depth=3, lam=0.0, rho=1.0)),
        (7, 70, 2, None, GbtConfig(n_trees=5, max_depth=2, lam=10.0, rho=1.0,
                                   min_child_weight=3.0, min_gain=0.01)),
    ])
    def test_equal_models(self, seed, n, n_features, levels, cfg):
        x, y = _oracle_case(seed, n, n_features, levels)
        assert model_to_json(train_gbt(x, y, cfg)) == oracle_train_gbt(x, y, cfg)

    def test_repeated_column_value_blocks(self):
        # Long runs of one value and a constant column: cuts exist only
        # between distinct neighbours.
        x, y = _oracle_case(8, 100, 2, levels=3)
        x = np.column_stack([x, np.repeat([0.0, 1.0], 50), np.full(100, 2.0)])
        cfg = GbtConfig(n_trees=6, max_depth=3, min_child_weight=2.0)
        assert model_to_json(train_gbt(x, y, cfg)) == oracle_train_gbt(x, y, cfg)

    @pytest.mark.parametrize("seed", [3, 24])
    def test_tied_values_keep_row_order(self, seed):
        # A cut's cumulative sum adds tied rows in row order, as a stable
        # sort of the node's rows does.  On these seeds the order of numpy's
        # default (unstable) argsort moves a gain by an ulp and the model.
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, size=(120, 3)).astype(float)
        y = (rng.random(120) < 0.5).astype(float)
        cfg = GbtConfig(n_trees=6, max_depth=3, lam=0.0, rho=0.0)
        assert model_to_json(train_gbt(x, y, cfg)) == oracle_train_gbt(x, y, cfg)

    def test_identical_columns_break_ties_on_name(self):
        x, y = _oracle_case(9, 80, 2, levels=5)
        x = np.column_stack([x, x[:, 0]])  # column 2 duplicates column 0
        names = ("zeta", "mid", "alpha")
        cfg = GbtConfig(n_trees=5, max_depth=3)
        model = train_gbt(x, y, cfg, names)
        assert model_to_json(model) == oracle_train_gbt(x, y, cfg, names)
        assert model.trees[0][0][0] == 2  # the root's feature: "alpha" wins the exact gain tie
        swapped = train_gbt(x, y, cfg, ("alpha", "mid", "zeta"))
        assert swapped.trees[0][0][0] == 0

    def test_no_features_gives_leaf_trees(self):
        x, y = np.zeros((10, 0)), np.tile([0.0, 1.0, 1.0], 4)[:10]
        cfg = GbtConfig(n_trees=3)
        assert model_to_json(train_gbt(x, y, cfg)) == oracle_train_gbt(x, y, cfg)
        assert (grid_search(x, y, [0.0, 1.0], [0.5], cfg)
                == oracle_grid_search(x, y, [0.0, 1.0], [0.5], cfg))

    @pytest.mark.parametrize("block,min_child_weight", [
        pytest.param(1, 1.0, id="1"),
        pytest.param(200, 1.0, id="200"),
        pytest.param(16384, 1.0, id="16384"),
        pytest.param(200, 2.0, id="200-min_child_weight"),
    ])
    def test_any_block_size(self, monkeypatch, block, min_child_weight):
        # Blocks smaller than one node, smaller than a level or holding a
        # whole grid's level give the same models.
        monkeypatch.setattr(gbtree, "_BLOCK_ELEMENTS", block)
        x, y = _oracle_case(11, 90, 3, levels=5)
        cfg = GbtConfig(n_trees=4, max_depth=4, min_child_weight=min_child_weight)
        assert model_to_json(train_gbt(x, y, cfg)) == oracle_train_gbt(x, y, cfg)
        assert (grid_search(x, y, [0.0, 0.5], [0.0, 1.0], cfg)
                == oracle_grid_search(x, y, [0.0, 0.5], [0.0, 1.0], cfg))

    def test_threshold_rounding_to_the_lower_value(self):
        # (1 + (1 + 2**-52)) / 2 rounds to 1.0, so the left child is empty.
        x = np.array([[1.0], [np.nextafter(1.0, 2.0)], [3.0]])
        y = np.array([0.0, 1.0, 1.0])
        cfg = GbtConfig(n_trees=2, max_depth=3, lam=1.0, rho=0.5)
        assert model_to_json(train_gbt(x, y, cfg)) == oracle_train_gbt(x, y, cfg)
        for f in (train_gbt, oracle_train_gbt):  # an empty leaf without l2 is degenerate
            with pytest.raises(ValueError, match="degenerate leaf"):
                f(x, y, GbtConfig(n_trees=2, max_depth=3, lam=0.0, rho=0.0))

    @pytest.mark.parametrize("lam,rho", [(0.3, 0.1), (0.1, 0.0), (0.7, 0.0), (0.03, 0.0)])
    def test_mirrored_cuts_tie_exactly(self, lam, rho):
        # The gradients are exact, so the cut after row 0 and the cut before
        # row 7 tie only if H_R + l2 is (m - H_L) + l2, as split_gain takes it.
        x = np.arange(8.0).reshape(-1, 1)
        y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        cfg = GbtConfig(n_trees=1, max_depth=1, lam=lam, rho=rho)
        model = train_gbt(x, y, cfg)
        assert model_to_json(model) == oracle_train_gbt(x, y, cfg)
        assert model.trees[0][1][0] == 0.5  # the root's threshold: the tie goes to the smaller one

    def test_penalties_round_as_the_leaf_formula(self):
        # 0.7*(1 - 0.3) and 0.7 - 0.7*0.3 differ in the last bit, and so do 2 plus each.
        x = np.arange(4.0).reshape(-1, 1)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        cfg = GbtConfig(n_trees=1, max_depth=1, lam=0.7, rho=0.3)
        model = train_gbt(x, y, cfg)
        assert model_to_json(model) == oracle_train_gbt(x, y, cfg)
        assert model.trees[0][4][1] == leaf_weight(1.0, 2.0, 0.7, 0.3)  # the left leaf

    def test_wide_indices(self, monkeypatch):
        # Fits too large for int32 element indices store them as int64.
        monkeypatch.setattr(gbtree, "_INT32_INDICES", 0)
        x, y = _oracle_case(10, 80, 3, levels=4)
        cfg = GbtConfig(n_trees=4, max_depth=3)
        assert model_to_json(train_gbt(x, y, cfg)) == oracle_train_gbt(x, y, cfg)
        assert (grid_search(x, y, [0.0, 1.0], [0.0, 0.5], cfg)
                == oracle_grid_search(x, y, [0.0, 1.0], [0.0, 0.5], cfg))

    def test_match_feature_matrix(self, match_80):
        fm = build_feature_matrix(match_80, momentum_series(match_80, MomentumConfig()), "both")
        cfg = GbtConfig(n_trees=10, max_depth=4, lam=1.0, rho=0.5)
        assert (model_to_json(train_gbt(fm.x, fm.y, cfg, fm.names))
                == oracle_train_gbt(fm.x, fm.y, cfg, fm.names))


def _leaf(weight):
    """A tree of one leaf."""
    return ([-1], [0.0], [-1], [-1], [weight])


def _stump(feature=0, threshold=(0.5, 0.0, 0.0), left=1, right=2, weights=(0.0, -0.25, 0.25)):
    """A root split on `feature` and its two leaves, as flat node arrays."""
    return ([feature, -1, -1], threshold, [left, -1, -1], [right, -1, -1], weights)


def _model(*trees):
    return GbtModel(0.5, trees, GbtConfig(), ("f0", "f1"))


class TestPredict:
    def test_empty_tree_list_gives_base(self):
        model = GbtModel(0.37, (), GbtConfig(), ("f0",))
        out = predict(model, np.zeros((5, 1)))
        assert out.tolist() == [0.37] * 5

    def test_separable_sign(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 1))
        y = (x[:, 0] > 0).astype(float)
        model = train_gbt(x, y, GbtConfig(n_trees=20))
        assert predict(model, np.array([[5.0]]))[0] > 0.5
        assert predict(model, np.array([[-5.0]]))[0] < 0.5

    def test_clipping(self):
        overshoot = GbtModel(1.0, (_leaf(3.0),), GbtConfig(learning_rate=0.1), ("f0",))
        assert raw_predict(overshoot, np.zeros((1, 1)))[0] == pytest.approx(1.3)
        assert predict(overshoot, np.zeros((1, 1)))[0] == 1.0
        undershoot = GbtModel(0.0, (_leaf(-3.0),), GbtConfig(learning_rate=0.1), ("f0",))
        assert predict(undershoot, np.zeros((1, 1)))[0] == 0.0

    def test_equals_oracle_staged_sums(self, match_80):
        # Bit for bit, on the training rows, on rows that sit on each split's
        # threshold (they go right) and on no rows.
        fm = build_feature_matrix(match_80, momentum_series(match_80, MomentumConfig()), "both")
        model = train_gbt(fm.x, fm.y, GbtConfig(n_trees=20, max_depth=4, lam=0.1, rho=0.25))
        splits = [(f, t) for tree in model.trees
                  for f, t in zip(tree[0].tolist(), tree[1].tolist()) if f >= 0]
        on_thresholds = np.repeat(fm.x[:1], len(splits), axis=0)
        for row, (f, t) in zip(on_thresholds, splits):
            row[f] = t
        text = model_to_json(model)
        for rows in (fm.x, on_thresholds, fm.x[:0]):
            np.testing.assert_array_equal(raw_predict(model, rows), oracle_raw_predict(text, rows))

    def test_width_mismatch(self):
        model = GbtModel(0.5, (), GbtConfig(), ("f0", "f1"))
        with pytest.raises(ValueError, match="width"):
            predict(model, np.zeros((3, 3)))

    def test_tree_node_validation(self):
        with pytest.raises(ValueError, match="leaf weight must be finite, got nan"):
            _model(_leaf(float("nan")))
        with pytest.raises(ValueError, match="internal node missing split fields"):
            _model(_stump(right=-1))
        # A split that carries a weight is a leaf that carries split fields.
        with pytest.raises(ValueError, match="leaf carries split fields: feature, threshold"):
            _model(_stump(weights=[1.0, -0.25, 0.25]))
        with pytest.raises(ValueError, match="leaf carries split fields: threshold$"):
            _model(([-1], [0.5], [-1], [-1], [1.0]))
        with pytest.raises(ValueError, match="leaf carries split fields: feature$"):
            _model(([1], [0.0], [-1], [-1], [1.0]))

    @pytest.mark.parametrize("feature", [-1, True, 0.0, "0"])
    def test_split_feature_must_be_a_non_negative_int(self, feature):
        # The root's feature, in an array of its type.
        _, *fields = _stump()
        features = np.array([feature, -1, -1], dtype=type(feature))
        with pytest.raises(ValueError, match="feature must be a non-negative integer"):
            _model((features, *fields))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), True])
    def test_split_threshold_must_be_finite(self, threshold):
        thresholds = np.array([threshold, 0.0, 0.0], dtype=type(threshold))
        with pytest.raises(ValueError, match="threshold must be finite"):
            _model(_stump(threshold=thresholds))

    def test_split_feature_must_be_inside_the_width(self):
        _model(_stump(feature=1))
        with pytest.raises(ValueError, match="feature 2 is out of range for 2 features"):
            _model(_stump(feature=2))

    @pytest.mark.parametrize("tree,message", [
        (_stump(left=0), "node 0 has child 0, not after it among 3 nodes"),
        (_stump(right=3), "node 0 has child 3, not after it among 3 nodes"),
        # node 2 splits into node 1, which comes before it
        (([0, -1, 1, -1], [0.5, 0, 0.5, 0], [1, -1, 1, -1], [2, -1, 3, -1], [0, 1, 0, 1]),
         "node 2 has child 1, not after it among 4 nodes"),
        # node 3 is an orphan
        (([0, -1, -1, -1], [0.5, 0, 0, 0], [1, -1, -1, -1], [2, -1, -1, -1], [0, 1, 2, 3]),
         "node 3 has 0 parents; every node but the root has one"),
        # node 2 is the child of nodes 0 and 1
        (([0, 1, -1, -1], [0.5, 0.5, 0, 0], [1, 2, -1, -1], [2, 3, -1, -1], [0, 0, 1, 2]),
         "node 2 has 2 parents; every node but the root has one"),
    ])
    def test_tree_shape_checked(self, tree, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _model(tree)

    def test_first_bad_tree_is_named(self):
        # The trees are checked together; the error is the first bad tree's.
        orphan = ([0, -1, -1, -1], [0.5, 0, 0, 0], [1, -1, -1, -1], [2, -1, -1, -1], [0, 1, 2, 3])
        nan_leaf = _leaf(float("nan"))
        for trees, message in [
            ((_stump(), orphan, nan_leaf), "node 3 has 0 parents; every node but the root has one"),
            ((_stump(), nan_leaf, orphan), "leaf weight must be finite, got nan"),
            ((orphan, _stump()[:4]), "node 3 has 0 parents; every node but the root has one"),
            ((_stump(), _stump()[:4], orphan), "a tree must be 5 node arrays, got 4"),
            # a child past its tree's end is not a node of the next tree
            ((_stump(right=3), _stump()), "node 0 has child 3, not after it among 3 nodes"),
            ((_stump(), _stump(left=-2)), "node 0 has child -2, not after it among 3 nodes"),
            # every left child is checked before any right child
            ((([0, 0, -1], [0.5, 0.5, 0], [1, 0, -1], [9, 2, -1], [0, 0, 1]),),
             "node 1 has child 0, not after it among 3 nodes"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                _model(*trees)

    @pytest.mark.parametrize("tree", [
        _stump()[:4] + ([0.0, 1.0],),
        ([], [], [], [], []),
        tuple(np.array(a)[None] for a in _stump()),
    ])
    def test_node_arrays_are_non_empty_1d_of_one_length(self, tree):
        with pytest.raises(ValueError, match="must be 1-D, non-empty and of one length"):
            _model(tree)

    def test_a_tree_is_five_arrays(self):
        with pytest.raises(ValueError, match="a tree must be 5 node arrays, got 4"):
            _model(_stump()[:4])

    def test_trees_are_read_only_copies(self):
        tree = [np.array(a) for a in _stump()]
        model = _model(tree)
        tree[4][1] = 7.0
        assert model.trees[0][4].tolist() == [0.0, -0.25, 0.25]
        assert [a.dtype for a in model.trees[0]] == [np.int64, np.float64, np.int64, np.int64,
                                                    np.float64]
        with pytest.raises(ValueError, match="read-only"):
            model.trees[0][4][1] = 7.0

    def test_equality_compares_the_arrays(self):
        assert _model(_stump()) == _model(tuple(np.array(a) for a in _stump()))
        assert _model(_stump()) != _model(_stump(weights=[0.0, -0.25, 0.5]))
        assert _model(_stump()) != _model(_stump(), _stump())
        assert _model(_stump()) != _model(_stump(threshold=[0.25, 0.0, 0.0]))
        assert _model(_stump()) != "model"

    def test_accuracy_labels_checked(self):
        model = GbtModel(0.75, (), GbtConfig(), ("f0",))
        x = np.zeros((3, 1))
        assert accuracy_score(model, x, [1.0, 1.0, 0.0]) == 2 / 3
        with pytest.raises(ValueError, match="labels shape"):
            accuracy_score(model, x, [1.0])  # would broadcast over the 3 rows
        with pytest.raises(ValueError, match="labels shape"):
            accuracy_score(model, x, np.ones((3, 1)))
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            accuracy_score(model, x, [1.0, 2.0, 0.0])
        with pytest.raises(ValueError, match="at least 1 row"):
            accuracy_score(model, np.zeros((0, 1)), [])


class TestGridSearch:
    def test_single_cell(self):
        x, y = make_separable(100, seed=3)
        result = grid_search(x, y, [0.3], [0.7], GbtConfig(n_trees=5))
        assert (result.best_lambda, result.best_rho) == (0.3, 0.7)

    def test_huge_lambda_loses(self):
        x, y = make_separable(300, flip=0.05, seed=5)
        result = grid_search(x, y, [0.0, 1000.0], [0.5], GbtConfig(n_trees=10))
        assert result.best_lambda == 0.0

    def test_tie_breaks_to_smaller_rho(self):
        x = np.arange(50.0).reshape(-1, 1)
        y = np.ones(50)  # every cell predicts 1.0 -> all tie at accuracy 1
        result = grid_search(x, y, [0.1], [0.8, 0.2], GbtConfig(n_trees=2))
        assert result.best_rho == 0.2
        assert result.val_accuracy == 1.0

    def test_tie_breaks_to_smaller_lambda(self):
        x = np.arange(50.0).reshape(-1, 1)
        y = np.ones(50)
        result = grid_search(x, y, [2.0, 0.5], [0.5], GbtConfig(n_trees=2))
        assert result.best_lambda == 0.5

    def test_split_sizes(self):
        x, y = make_separable(500, seed=0)
        result = grid_search(x, y, [0.0], [0.0], GbtConfig(n_trees=2))
        assert result.n_train == 400

    def test_equals_per_cell_loop(self, match_80):
        fm = build_feature_matrix(match_80, momentum_series(match_80, MomentumConfig()), "both")
        cfg = GbtConfig(n_trees=10, max_depth=4)
        assert (grid_search(fm.x, fm.y, DEFAULT_LAMBDA_GRID, DEFAULT_RHO_GRID, cfg)
                == oracle_grid_search(fm.x, fm.y, DEFAULT_LAMBDA_GRID, DEFAULT_RHO_GRID, cfg))

    def test_validation_row_on_a_threshold_goes_right(self):
        # Inner-train rows 0.0 -> 0 and 2.0 -> 1 split at 1.0; the held-out
        # rows sit on it and, like predict, must take the right branch.
        x = np.r_[np.tile([0.0, 2.0], 8), np.full(9, 1.0)].reshape(-1, 1)
        y = np.r_[np.tile([0.0, 1.0], 8), np.ones(9)]
        cfg = GbtConfig(n_trees=1, max_depth=1, learning_rate=1.0)
        result = grid_search(x, y, [0.0], [0.0], cfg)
        assert result.val_accuracy == 1.0
        assert result == oracle_grid_search(x, y, [0.0], [0.0], cfg)

    def test_cells_split_into_batches(self, monkeypatch):
        # Above the batch bound cells go in smaller batches, with the same result.
        monkeypatch.setattr(gbtree, "_BATCH_ELEMENTS", 200)
        x, y = make_separable(120, flip=0.1, seed=4)
        cfg = GbtConfig(n_trees=6, max_depth=3)
        grids = ([0.0, 0.1, 1.0], [0.0, 0.5, 1.0])
        assert grid_search(x, y, *grids, cfg) == oracle_grid_search(x, y, *grids, cfg)

    @pytest.mark.parametrize("grids,fits", [
        ((DEFAULT_LAMBDA_GRID, DEFAULT_RHO_GRID), 21),
        (((0.0,), (0.0, 0.5, 1.0)), 1),
        (([-0.0, 0.0, 1.0], [0.0, 0.5]), 3),
        (([0.0, -0.0, 1.0], [0.0, 0.5]), 3),
    ])
    def test_each_penalty_pair_fits_once(self, monkeypatch, grids, fits):
        # At lam = 0 every rho gives the penalties (0, 0), so those cells share one fit.
        cells = []
        boost = gbtree._boost

        def counting(x, y, penalties, *args):
            cells.append(len(penalties))
            return boost(x, y, penalties, *args)

        monkeypatch.setattr(gbtree, "_boost", counting)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 0)  # count every fit here
        x, y = make_separable(120, flip=0.1, seed=4)
        cfg = GbtConfig(n_trees=6, max_depth=3)
        result = grid_search(x, y, *grids, cfg)
        assert cells == [fits, 1]  # the grid's one batch, then the refit
        expected = oracle_grid_search(x, y, *grids, cfg)
        assert result == expected
        assert repr(result.best_lambda) == repr(expected.best_lambda)
        assert model_to_json(result.model) == model_to_json(expected.model)

    def test_later_searches_do_not_fault(self):
        # A fit sizes its working set once, so a later search maps almost no
        # fresh memory.  With per-block temporaries, the second or the third
        # search took 1,600-18,000 faults, by the heap's state.  The search
        # runs in-process: a fork's copy-on-write faults land in the parent
        # too, and would hide the grower's own.
        pytest.importorskip("resource")
        faults = fault_probe("""
            import resource
            from matchkit import _fork
            from matchkit.gbtree import grid_search
            _fork._helper_count = lambda jobs: 0
            from matchkit.ingest import SyntheticSpec, generate_synthetic_match
            from matchkit.momentum import MomentumConfig, build_feature_matrix, momentum_series
            tl = generate_synthetic_match(SyntheticSpec(n_points=300, seed=0))
            fm = build_feature_matrix(tl, momentum_series(tl, MomentumConfig()), "both")
            for _ in range(3):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                grid_search(fm.x, fm.y)
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        assert len(faults) == 3
        assert max(faults[1:]) < 1000

    def test_degenerate_split_rejected(self):
        x, y = make_separable(3, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            grid_search(x, y, [0.0], [0.0], GbtConfig(n_trees=2))

    def test_empty_grid_rejected(self):
        x, y = make_separable(100, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            grid_search(x, y, [], [0.5])

    @pytest.mark.parametrize("grids,field", [
        (([0.0, float("inf")], [0.5]), "lambda_grid"),
        (([float("nan")], [0.5]), "lambda_grid"),
        (([1.0], [0.5, float("nan")]), "rho_grid"),
        (([10 ** 400], [0.5]), "lambda_grid"),
        (([1.0], [0.5, -10 ** 400]), "rho_grid"),
    ])
    def test_non_finite_grid_rejected(self, grids, field):
        x, y = make_separable(100, seed=0)
        with pytest.raises(ValueError, match=f"{field} values must be finite"):
            grid_search(x, y, *grids, GbtConfig(n_trees=2))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")

SIGNED_ZERO_GRIDS = [([-0.0, 0.0, 1.0], [0.0, 0.5]), ([0.0, -0.0, 1.0], [0.0, 0.5])]


def assert_same_search(a, b):
    assert a == b
    assert repr((a.best_lambda, a.best_rho)) == repr((b.best_lambda, b.best_rho))
    assert model_to_json(a.model) == model_to_json(b.model)


@needs_fork
class TestForkedGridSearch:
    @pytest.mark.parametrize("grids", [(DEFAULT_LAMBDA_GRID, DEFAULT_RHO_GRID),
                                       *SIGNED_ZERO_GRIDS])
    def test_any_helper_count_gives_the_serial_result(self, monkeypatch, grids):
        x, y = make_separable(120, flip=0.1, seed=4)
        cfg = GbtConfig(n_trees=6, max_depth=3)
        expected = oracle_grid_search(x, y, *grids, cfg)
        for helpers in (0, 1, 2, 3):
            monkeypatch.setattr(_fork, "_helper_count", lambda n, h=helpers: h)
            assert_same_search(grid_search(x, y, *grids, cfg), expected)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("helpers", [1, 2, 3])
    def test_failing_share_in_a_helper_raises_the_serial_error(self, monkeypatch, helpers):
        # The default grid's 14th pair, (1.0*0.5, 1.0*0.5), is dealt to the
        # first helper for any helper count here.
        bad = gbtree._penalties(1.0, 0.5)
        boost = gbtree._boost

        def failing(x, y, penalties, *args):
            if bad in penalties:
                raise ValueError(f"cannot fit pair {bad!r}")
            return boost(x, y, penalties, *args)

        monkeypatch.setattr(gbtree, "_boost", failing)
        x, y = make_separable(120, flip=0.1, seed=4)
        cfg = GbtConfig(n_trees=4, max_depth=3)
        errors = []
        for count in (0, helpers):
            monkeypatch.setattr(_fork, "_helper_count", lambda n, h=count: h)
            with pytest.raises(ValueError, match="cannot fit pair") as info:
                grid_search(x, y, config=cfg)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault", ["pipe", "fork"])
    def test_failed_pipe_or_fork_runs_with_the_helpers_started(self, monkeypatch, fault):
        x, y = make_separable(120, flip=0.1, seed=4)
        cfg = GbtConfig(n_trees=6, max_depth=3)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 0)
        serial = grid_search(x, y, config=cfg)
        context = multiprocessing.get_context("fork")
        pipe, start = context.Pipe, context.Process.start
        pipes, forks = [], []

        def pipe_or_fail(*args):
            if fault == "pipe" and pipes:
                raise OSError(errno.EMFILE, "Too many open files")
            pipes.append(pipe(*args))
            return pipes[-1]

        def start_or_fail(process):
            if fault == "fork" and forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            forks.append(process)
            start(process)

        monkeypatch.setattr(context, "Pipe", pipe_or_fail)
        monkeypatch.setattr(context.Process, "start", start_or_fail)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 3)
        assert_same_search(grid_search(x, y, config=cfg), serial)
        assert len(forks) == 1
        assert all(end.closed for ends in pipes for end in ends)
        assert multiprocessing.active_children() == []


SMALL_GRIDS = dict(lambda_grid=(0.0, 1.0), rho_grid=(0.0, 0.5))


class TestRunAblation:
    def test_four_variants_reported(self, match_300):
        report = run_ablation(match_300, MomentumConfig(),
                              GbtConfig(n_trees=15, max_depth=3), **SMALL_GRIDS)
        assert tuple(r.variant for r in report.rows) == ABLATION_VARIANTS
        assert report.match_id == match_300.match_id
        for r in report.rows:
            assert 0.0 <= r.test_accuracy <= 1.0

    def test_psych_momentum_dominates_when_labels_follow_it(self, match_300):
        # The psychological column's sign tracks the current point's victor,
        # so the variant carrying it must beat the variant without momentum.
        report = run_ablation(match_300, MomentumConfig(),
                              GbtConfig(n_trees=15, max_depth=3), **SMALL_GRIDS)
        assert report.accuracy("psych_only") > report.accuracy("none")

    def test_equals_per_cell_searches(self, match_80):
        cfg = GbtConfig(n_trees=8, max_depth=3)
        report = run_ablation(match_80, MomentumConfig(), cfg)
        series = momentum_series(match_80, MomentumConfig())
        for row in report.rows:
            fm = build_feature_matrix(match_80, series, row.variant)
            expected = oracle_grid_search(fm.x, fm.y, DEFAULT_LAMBDA_GRID, DEFAULT_RHO_GRID, cfg)
            test_accuracy = accuracy_score(expected.model, fm.x[expected.n_train:],
                                           fm.y[expected.n_train:])
            assert row == AblationRow(row.variant, test_accuracy, expected.best_lambda,
                                      expected.best_rho)

    def test_report_invariant(self):
        rows = tuple(AblationRow(v, 0.5, 0.0, 0.0) for v in ABLATION_VARIANTS)
        AblationReport(match_id="m", rows=rows)  # fine
        with pytest.raises(ValueError, match="exactly"):
            AblationReport(match_id="m", rows=rows[:3])

    def test_csv_layout(self, match_300):
        report = run_ablation(match_300, MomentumConfig(),
                              GbtConfig(n_trees=5, max_depth=2), **SMALL_GRIDS)
        buf = io.StringIO()
        write_ablation_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "match_id,variant,test_accuracy,lambda,rho"
        assert len(lines) == 5
        assert lines[1].split(",")[1] == "none"


class TestSerialization:
    def test_round_trip_exact(self):
        x, y = make_separable(200, seed=8)
        model = train_gbt(x, y, GbtConfig(n_trees=7, max_depth=3, lam=0.3, rho=0.25))
        clone = model_from_json(model_to_json(model))
        assert clone == model
        np.testing.assert_array_equal(predict(clone, x), predict(model, x))

    def test_version_guard(self):
        x, y = make_separable(100, seed=8)
        doc = model_to_json(train_gbt(x, y, GbtConfig(n_trees=1)))
        tampered = doc.replace('"format_version": 1', '"format_version": 9')
        with pytest.raises(ValueError, match="version"):
            model_from_json(tampered)

    def test_config_is_checked_on_load(self):
        x, y = make_separable(100, seed=8)
        doc = json.loads(model_to_json(train_gbt(x, y, GbtConfig(n_trees=1))))
        doc["config"]["lam"] = float("nan")
        with pytest.raises(ValueError, match="lam must be finite"):
            model_from_json(json.dumps(doc))
        doc["config"].update(lam=1.0, seed="x")
        with pytest.raises(ValueError, match="seed must be an integer, got 'x'"):
            model_from_json(json.dumps(doc))

    def test_deterministic_document(self):
        x, y = make_separable(150, seed=2)
        a = model_to_json(train_gbt(x, y, GbtConfig(n_trees=3)))
        b = model_to_json(train_gbt(x, y, GbtConfig(n_trees=3)))
        assert a == b

    @pytest.mark.parametrize("path,value,message", [
        (("feature",), -1, "feature must be a non-negative integer"),
        (("feature",), True, "feature must be a non-negative integer"),
        (("feature",), 5, "feature 5 is out of range for 2 features"),
        (("threshold",), float("nan"), "threshold must be finite"),
        (("left", "threshold"), 0.5, "leaf carries split fields: threshold"),
        (("right", "weight"), float("inf"), "leaf weight must be finite"),
        (("right",), [0.25], "tree node must be an object"),
        (("threshold",), None, "internal node missing split fields"),
        # ints past the float range, as JSON can hold them
        pytest.param(("threshold",), 10**400, "threshold must be finite", id="huge-threshold"),
        pytest.param(("right", "weight"), 10**400, "leaf weight must be finite",
                     id="huge-weight"),
    ])
    def test_bad_node_rejected_on_load(self, path, value, message):
        tree = {"feature": 1, "threshold": 0.5, "left": {"weight": -0.25},
                "right": {"weight": 0.25}}
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        doc = json.loads(model_to_json(GbtModel(0.5, (), GbtConfig(), ("f0", "f1"))))
        doc["trees"] = [tree]
        with pytest.raises(ValueError, match=message):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field,value,message", [
        ("base_score", "0.5", "base_score must be finite"),
        ("base_score", float("nan"), "base_score must be finite"),
        ("trees", None, "missing fields: trees"),
        pytest.param("base_score", 10**400, "base_score must be finite", id="huge-base_score"),
    ])
    def test_bad_document_rejected(self, field, value, message):
        doc = json.loads(model_to_json(GbtModel(0.5, (), GbtConfig(), ("f0",))))
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(ValueError, match=message):
            model_from_json(json.dumps(doc))

    def test_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            model_from_json("[]")

    @pytest.mark.parametrize("names", ["ab", [1, 2], 5, ["f0", None], {"f0": 0}])
    def test_feature_names_must_be_a_list_of_strings(self, names):
        doc = json.loads(model_to_json(GbtModel(0.5, (), GbtConfig(), ("f0", "f1"))))
        doc["feature_names"] = names
        with pytest.raises(ValueError, match="feature_names must be a list of strings"):
            model_from_json(json.dumps(doc))

    def test_trees_must_be_a_list(self):
        doc = json.loads(model_to_json(GbtModel(0.5, (), GbtConfig(), ("f0",))))
        doc["trees"] = {"weight": 0.5}
        with pytest.raises(ValueError, match="trees must be a list"):
            model_from_json(json.dumps(doc))

    def test_unknown_config_key_rejected(self):
        doc = json.loads(model_to_json(GbtModel(0.5, (), GbtConfig(), ("f0",))))
        doc["config"]["depth"] = 3
        with pytest.raises(ValueError, match="config has unknown keys: depth"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["seed", "lam", "n_trees"])
    def test_missing_config_key_rejected(self, key):
        doc = json.loads(model_to_json(GbtModel(0.5, (), GbtConfig(), ("f0",))))
        del doc["config"][key]
        with pytest.raises(ValueError, match=f"config is missing keys: {key}"):
            model_from_json(json.dumps(doc))

    def test_config_must_be_an_object(self):
        doc = json.loads(model_to_json(GbtModel(0.5, (), GbtConfig(), ("f0",))))
        doc["config"] = [1.0]
        with pytest.raises(ValueError, match="config must be a JSON object"):
            model_from_json(json.dumps(doc))

    def test_document_bytes_survive_a_round_trip(self):
        x, y = make_separable(120, seed=4)
        text = model_to_json(train_gbt(x, y, GbtConfig(n_trees=4, max_depth=2)))
        assert model_to_json(model_from_json(text)) == text
