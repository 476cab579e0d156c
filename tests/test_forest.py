import json
import math
import tracemalloc

import numpy as np
import pytest

from leafbridge import forest as forest_module
from leafbridge.dataset import CATEGORICAL, NUMERIC, AttributeSchema, Dataset, one_hot_encode
from leafbridge.errors import EmptyDatasetError, MissingValueError, SchemaError
from leafbridge.forest import (
    Forest,
    TreeNode,
    _best_categorical_split,
    _best_numeric_splits,
    _class_sums,
    _gini,
    _presort,
    collect_leaves,
    forest_from_json,
    forest_to_json,
    predict,
    predict_many,
    train_forest,
)
from conftest import numeric_dataset

_GAIN_EPS = forest_module._GAIN_EPS


# Reference split search: one attribute at a time, each with its own float
# argsort, one-hot cumulative counts and row-wise class sums. The presorted,
# node-batched search in leafbridge.forest must reproduce it bit for bit.

def oracle_numeric_split(values, labels, weights, n_classes, min_leaf):
    """Best midpoint threshold for one attribute, or None.

    Returns (gain, threshold). Candidate thresholds are midpoints between
    consecutive distinct sorted values; each side must keep at least
    min_leaf distinct records.
    """
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = labels[order]
    sw = weights[order]
    m = sv.shape[0]
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), sy] = sw
    left_counts = np.cumsum(onehot, axis=0)
    total = left_counts[-1]
    boundaries = np.flatnonzero(sv[:-1] < sv[1:])
    if boundaries.size == 0:
        return None
    left_n = boundaries + 1
    right_n = m - left_n
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
    boundaries = boundaries[valid]
    if boundaries.size == 0:
        return None
    lc = left_counts[boundaries]
    rc = total[None, :] - lc
    wl = lc.sum(axis=1)
    wr = rc.sum(axis=1)
    w = wl + wr
    gini_l = 1.0 - ((lc / wl[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((rc / wr[:, None]) ** 2).sum(axis=1)
    parent = _gini(total)
    gains = parent - (wl * gini_l + wr * gini_r) / w
    best = int(np.argmax(gains))
    if gains[best] <= _GAIN_EPS:
        return None
    i = boundaries[best]
    return float(gains[best]), float((sv[i] + sv[i + 1]) / 2.0)


def oracle_numeric_splits(X, labels, weights, idx, attrs, n_classes, min_leaf):
    """The per-attribute loop: the first strictly better gain wins."""
    best = None
    for attr in attrs:
        found = oracle_numeric_split(X[idx, attr], labels[idx], weights[idx],
                                     n_classes, min_leaf)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(attr), found[1])
    return best


class OracleBuilder(forest_module._TreeBuilder):
    """The tree builder with the reference split search swapped in."""

    def _best_split(self, idx, labels):
        d = self.X.shape[1]
        sampled = self.rng.choice(d, size=min(self.n_attr_sample, d), replace=False)
        weights = self.class_weights[labels, idx].astype(np.float64)
        best = None
        for attr in sorted(int(a) for a in sampled):
            values = self.X[idx, attr]
            if self.kinds[attr] == 1:
                found = _best_categorical_split(values, labels, weights, self.n_classes,
                                                self.min_leaf, self.n_categories[attr])
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], attr, math.nan, found[1])
            else:
                found = oracle_numeric_split(values, labels, weights, self.n_classes,
                                             self.min_leaf)
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], attr, found[1], -1)
        if best is None:
            return None
        return best[1], best[2], best[3]


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


class TestSplitSearch:
    @pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 9, 12])
    def test_class_sums_match_row_sums(self, n_classes):
        q = np.random.default_rng(n_classes).random((n_classes, 5000)) ** 2
        got = _class_sums(q)
        want = np.ascontiguousarray(q.T).sum(axis=1)
        assert got.tobytes() == want.tobytes()

    def test_sequential_sum_differs_from_numpy_from_eight_classes(self):
        # why _class_sums has two cases: numpy adds 8+ values pairwise
        q = np.random.default_rng(0).random((8, 5000)) ** 2
        sequential = q.sum(axis=0)
        assert not np.array_equal(sequential, np.ascontiguousarray(q.T).sum(axis=1))

    @staticmethod
    def random_data(rng, n, d, n_classes):
        """Columns with continuous values, heavy ties, 0/1 cells, one constant."""
        X = rng.normal(size=(n, d))
        X[:, 1] = np.round(X[:, 1] * 2) / 2
        X[:, 2] = rng.integers(0, 2, n)
        X[:, 3] = 7.25
        X[:, 4] = -X[:, 4] * 0.0  # signed zeros compare equal
        y = rng.integers(0, n_classes, n)
        draws = rng.integers(0, n, n)
        return X, y, draws

    @pytest.mark.parametrize("block", [None, 1, 2000])
    @pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 9, 12])
    def test_matches_oracle_on_random_nodes(self, monkeypatch, n_classes, block):
        # block: None keeps SPLIT_BLOCK_ELEMENTS, 1 scores one attribute per
        # block, 2000 a few attributes per block on the smaller nodes
        if block is not None:
            monkeypatch.setattr(forest_module, "SPLIT_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(100 + n_classes)
        n, d = 400, 8
        X, y, draws = self.random_data(rng, n, d, n_classes)
        order, rank = _presort(X)
        in_bag, counts = np.unique(draws, return_counts=True)
        class_weights = np.zeros((n_classes, n), dtype=np.int32)
        class_weights[y[in_bag], in_bag] = counts
        weights = class_weights.sum(axis=0).astype(np.float64)
        outcomes = {"split": 0, "none": 0}
        for trial in range(60):
            # every third node is pure, every fifth sees only flat columns
            pool = in_bag[y[in_bag] == 0] if trial % 3 == 0 else in_bag
            m = int(rng.integers(2, pool.size + 1))
            idx = np.sort(rng.choice(pool, size=m, replace=False))
            columns = np.array([3, 4]) if trial % 5 == 0 else np.arange(d)
            attrs = np.sort(rng.choice(columns, size=int(rng.integers(1, columns.size + 1)),
                                       replace=False))
            for min_leaf in sorted({1, max(1, m // 2), int(rng.integers(1, m // 2 + 1))}):
                got = _best_numeric_splits(X, order, rank, class_weights, idx, attrs, min_leaf)
                want = oracle_numeric_splits(X, y, weights, idx, attrs, n_classes, min_leaf)
                assert got == want, (trial, min_leaf)
                if got is not None:
                    assert isinstance(got[1], int)
                    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
                outcomes["none" if got is None else "split"] += 1
        assert min(outcomes.values()) > 10

    def test_constant_node_has_no_split(self):
        X = np.full((30, 2), 3.0)
        order, rank = _presort(X)
        class_weights = np.ones((2, 30), dtype=np.int32)
        class_weights[0, ::2] = 0
        class_weights[1, 1::2] = 0
        got = _best_numeric_splits(X, order, rank, class_weights, np.arange(30),
                                   np.array([0, 1]), 1)
        assert got is None

    @staticmethod
    def mixed_dataset(rng, n=300):
        schema = (
            AttributeSchema("a", NUMERIC),
            AttributeSchema("b", CATEGORICAL, ("x", "y", "z", "w")),
            AttributeSchema("c", NUMERIC),
            AttributeSchema("d", CATEGORICAL, ("p", "q")),
            AttributeSchema("e", NUMERIC),
        )
        X = np.column_stack([
            rng.normal(size=n),
            rng.integers(0, 4, n),
            np.round(rng.normal(size=n), 1),
            rng.integers(0, 2, n),
            rng.normal(size=n),
        ])
        y = (X[:, 0] + (X[:, 1] == 2) + 0.5 * X[:, 3] + rng.normal(size=n) > 0.6).astype(int)
        y[rng.random(n) < 0.2] = 2
        return Dataset(schema, X, y, ("p", "q", "r"))

    def datasets(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(500, 6))
        X[:, 5] = np.round(X[:, 5])
        y = np.digitize(X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=500), [-1, 0, 1])
        numeric = numeric_dataset(X, y)
        mixed = self.mixed_dataset(rng)
        categorical = Dataset(
            mixed.schema[1:2] + mixed.schema[3:4], mixed.records[:, [1, 3]],
            mixed.labels, mixed.class_names,
        )
        many_classes = numeric_dataset(rng.normal(size=(600, 5)), rng.integers(0, 9, 600))
        return {"numeric": numeric, "one_hot": one_hot_encode(mixed),
                "categorical": categorical, "mixed": mixed, "nine_classes": many_classes}

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("min_leaf", [1, 5, 40])
    def test_forest_json_matches_oracle_builder(self, monkeypatch, min_leaf, block):
        for name, ds in self.datasets().items():
            with monkeypatch.context() as patch:
                if block is not None:
                    patch.setattr(forest_module, "SPLIT_BLOCK_ELEMENTS", block)
                got = forest_to_json(
                    train_forest(ds, n_trees=4, min_leaf_size=min_leaf, seed=3))
            with monkeypatch.context() as patch:
                patch.setattr(forest_module, "_TreeBuilder", OracleBuilder)
                want = forest_to_json(
                    train_forest(ds, n_trees=4, min_leaf_size=min_leaf, seed=3))
            assert got == want, name

    def test_presort_tables(self):
        X = np.array([[2.0, 0.0], [1.0, -0.0], [2.0, 0.0], [0.5, 1.0]])
        order, rank = _presort(X)
        assert order.dtype == rank.dtype == np.int32
        for j in range(2):
            assert (np.diff(X[order[j], j]) >= 0).all()
            np.testing.assert_array_equal(order[j][rank[j]], np.arange(4))

    def test_tie_order_does_not_matter(self):
        # presort tables with ties by ascending and by descending record id
        rng = np.random.default_rng(8)
        n, d, n_classes = 300, 5, 3
        X, y, draws = self.random_data(rng, n, d, n_classes)
        tables = []
        for sign in (1, -1):
            order = np.array([np.lexsort((sign * np.arange(n), X[:, j])) for j in range(d)],
                             dtype=np.int32)
            rank = np.empty_like(order)
            for j in range(d):
                rank[j, order[j]] = np.arange(n, dtype=np.int32)
            tables.append((order, rank))
        in_bag, counts = np.unique(draws, return_counts=True)
        class_weights = np.zeros((n_classes, n), dtype=np.int32)
        class_weights[y[in_bag], in_bag] = counts
        attrs = np.arange(d)
        for m in (10, 60, in_bag.size):
            idx = np.sort(rng.choice(in_bag, size=m, replace=False))
            for min_leaf in (1, 3):
                a, b = (_best_numeric_splits(X, order, rank, class_weights, idx, attrs,
                                             min_leaf) for order, rank in tables)
                assert a is not None and a == b

    def test_presort_tables_memory(self):
        n, d = 12000, 40
        X = np.random.default_rng(4).normal(size=(n, d))
        tracemalloc.start()
        try:
            _presort(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two int32 tables plus per-column temporaries, not a (d, n)
        # int64 argsort of the whole matrix
        assert peak <= 8 * d * n + 32 * n + 65536

    @pytest.mark.parametrize("n_classes", [2, 12])
    def test_split_search_memory(self, n_classes):
        # a wide node: 20 sampled attributes of 4000 records are 320k
        # (2 classes) or 1.1M (12 classes) cells, scored in blocks
        n, d = 4000, 400
        rng = np.random.default_rng(6)
        X = rng.normal(size=(n, d))
        order, rank = _presort(X)
        class_weights = np.zeros((n_classes, n), dtype=np.int32)
        class_weights[rng.integers(0, n_classes, n), np.arange(n)] = 1
        idx = np.arange(n)
        attrs = np.arange(0, d, 20)
        tracemalloc.start()
        try:
            found = _best_numeric_splits(X, order, rank, class_weights, idx, attrs, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is not None
        # one block of 2^16 cells (or one attribute) at about 32 bytes a
        # cell, not the whole node (about 31 MiB at 12 classes)
        block = max(1 << 16, (n_classes + 2) * n)
        assert peak <= 40 * block + 65536


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
