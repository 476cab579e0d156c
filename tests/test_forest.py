import json

import numpy as np
import pytest

from leafbridge.dataset import CATEGORICAL, NUMERIC, AttributeSchema, Dataset
from leafbridge.errors import EmptyDatasetError, MissingValueError, SchemaError
from leafbridge.forest import (
    Forest,
    TreeNode,
    collect_leaves,
    forest_from_json,
    forest_to_json,
    predict,
    predict_many,
    train_forest,
)
from conftest import numeric_dataset


def two_class_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    return numeric_dataset(X, y)


def loop_predict(forest, X):
    """Reference predict: one record and one tree at a time, with the
    per-record tie-break loop; also returns how many records tied."""
    n_classes = len(forest.class_names)
    out, n_tied = [], 0
    for record in X:
        votes = np.zeros(n_classes)
        dist_sums = np.zeros(n_classes)
        for node in forest.trees:
            while not node.is_leaf:
                node = node.left if node.goes_left(record[node.attribute]) else node.right
            votes[int(np.argmax(node.class_counts))] += 1
            dist_sums += node.class_counts / node.class_counts.sum()
        tied = np.flatnonzero(votes == votes.max())
        if tied.size == 1:
            out.append(int(tied[0]))
        else:
            n_tied += 1
            out.append(int(tied[int(np.argmax(dist_sums[tied]))]))
    return np.array(out, dtype=np.int64), n_tied


class TestTraining:
    def test_tree_count(self):
        forest = train_forest(two_class_dataset(), n_trees=10, min_leaf_size=5, seed=1)
        assert forest.n_trees == 10

    def test_single_class_single_leaf(self):
        ds = numeric_dataset(np.random.default_rng(0).normal(size=(50, 2)),
                             np.zeros(50, dtype=int), n_classes=1)
        forest = train_forest(ds, n_trees=4, min_leaf_size=5, seed=0)
        assert all(root.is_leaf for root in forest.trees)

    def test_determinism(self):
        a = train_forest(two_class_dataset(), n_trees=5, min_leaf_size=5, seed=42)
        b = train_forest(two_class_dataset(), n_trees=5, min_leaf_size=5, seed=42)
        assert forest_to_json(a) == forest_to_json(b)
        X = np.random.default_rng(1).normal(size=(30, 3))
        np.testing.assert_array_equal(predict_many(a, X), predict_many(b, X))

    def test_different_seed_differs(self):
        a = train_forest(two_class_dataset(), n_trees=5, min_leaf_size=5, seed=0)
        b = train_forest(two_class_dataset(), n_trees=5, min_leaf_size=5, seed=1)
        assert forest_to_json(a) != forest_to_json(b)

    def test_missing_cells_rejected(self):
        ds = numeric_dataset([[1.0], [np.nan]], [0, 1])
        with pytest.raises(MissingValueError):
            train_forest(ds, n_trees=1, min_leaf_size=1, seed=0)

    def test_training_set_consistency_on_pure_data(self):
        ds = numeric_dataset(np.random.default_rng(3).normal(size=(40, 2)),
                             np.zeros(40, dtype=int), n_classes=2)
        forest = train_forest(ds, n_trees=3, min_leaf_size=5, seed=0)
        np.testing.assert_array_equal(predict_many(forest, ds.records), np.zeros(40))

    def test_categorical_splits(self):
        # label is fully determined by the category
        schema = (AttributeSchema("b", CATEGORICAL, ("x", "y", "z")),)
        rng = np.random.default_rng(0)
        cats = rng.integers(0, 3, 120).astype(float)
        labels = (cats > 0).astype(int)
        ds = Dataset(schema, cats[:, None], labels, ("p", "q"))
        forest = train_forest(ds, n_trees=5, min_leaf_size=5, seed=0)
        np.testing.assert_array_equal(predict_many(forest, cats[:, None]), labels)


class TestLeaves:
    def test_single_leaf_trees_yield_tau_refs(self):
        ds = numeric_dataset(np.random.default_rng(0).normal(size=(30, 2)),
                             np.zeros(30, dtype=int), n_classes=1)
        forest = train_forest(ds, n_trees=7, min_leaf_size=5, seed=0)
        assert len(collect_leaves(forest)) == 7

    def test_members_partition_routed_records(self):
        ds = two_class_dataset(150, seed=2)
        forest = train_forest(ds, n_trees=6, min_leaf_size=10, seed=2)
        for t, root in enumerate(forest.trees):
            members = [leaf.members for leaf in collect_leaves(forest) if leaf.tree_index == t]
            flat = [i for m in members for i in m]
            assert len(flat) == len(set(flat))  # disjoint
            rng = np.random.default_rng([2, t])
            in_bag = set(np.unique(rng.integers(0, ds.n, size=ds.n)))
            assert set(flat) == in_bag

    def test_member_count_respects_min_leaf(self):
        ds = two_class_dataset(300, seed=5)
        forest = train_forest(ds, n_trees=8, min_leaf_size=15, seed=5)
        multi = [leaf for leaf in collect_leaves(forest)
                 if not forest.trees[leaf.tree_index].is_leaf]
        assert multi, "expected at least one split tree"
        assert min(len(leaf.members) for leaf in multi) >= 15


def _leaf(counts, leaf_id=0):
    counts = np.asarray(counts, dtype=np.float64)
    return TreeNode(leaf_id=leaf_id, members=np.arange(int(counts.sum())),
                    class_counts=counts)


def _stump_forest(count_rows):
    trees = [_leaf(c) for c in count_rows]
    schema = (AttributeSchema("f0", NUMERIC),)
    return Forest(trees, schema, ("A", "B"), 1, 0)


class TestPredict:
    def test_plurality(self):
        forest = _stump_forest([[3, 1], [3, 1], [1, 3]])  # votes A, A, B
        assert predict(forest, [0.0]) == 0

    def test_distribution_tie_break(self):
        # votes split A/B; summed distributions A: 0.6+0.3=0.9, B: 0.4+0.7=1.1
        forest = _stump_forest([[6, 4], [3, 7]])
        assert predict(forest, [0.0]) == 1

    def test_remaining_tie_lowest_index(self):
        forest = _stump_forest([[1, 0], [0, 1]])  # masses 1.0 vs 1.0
        assert predict(forest, [0.0]) == 0

    def test_single_tree(self):
        forest = _stump_forest([[2, 5]])
        assert predict(forest, [0.0]) == 1

    def test_schema_mismatch(self):
        forest = _stump_forest([[1, 1]])
        with pytest.raises(SchemaError):
            predict(forest, [0.0, 1.0])

    def test_missing_cell_rejected(self):
        forest = _stump_forest([[1, 1]])
        with pytest.raises(MissingValueError):
            predict(forest, [np.nan])

    def test_predict_matches_predict_many(self):
        ds = two_class_dataset(100, seed=7)
        forest = train_forest(ds, n_trees=5, min_leaf_size=10, seed=7)
        X = np.random.default_rng(8).normal(size=(25, 3))
        singles = [predict(forest, row) for row in X]
        np.testing.assert_array_equal(singles, predict_many(forest, X))


    def test_predict_many_matches_loop(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 4))
        y = np.digitize(X[:, 0] + rng.normal(size=400), [-0.5, 0.5])
        forest = train_forest(numeric_dataset(X, y), n_trees=4, min_leaf_size=3, seed=2)
        X_test = rng.normal(size=(2000, 4))
        want, n_tied = loop_predict(forest, X_test)
        got = predict_many(forest, X_test)
        assert n_tied > 100
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


class TestSerialization:
    def test_json_round_trip(self):
        ds = two_class_dataset(120, seed=9)
        forest = train_forest(ds, n_trees=4, min_leaf_size=10, seed=9)
        text = forest_to_json(forest)
        json.loads(text)  # valid JSON
        again = forest_from_json(text)
        X = np.random.default_rng(10).normal(size=(40, 3))
        np.testing.assert_array_equal(predict_many(forest, X), predict_many(again, X))
        assert forest_to_json(again) == text

    def test_empty_dataset_error(self):
        with pytest.raises((EmptyDatasetError, Exception)):
            numeric_dataset(np.empty((0, 2)), np.empty(0, dtype=int), n_classes=1)
