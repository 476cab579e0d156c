import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafbridge import forest as forest_module
from leafbridge import workers as workers_module
from leafbridge.dataset import CATEGORICAL, NUMERIC, AttributeSchema, Dataset, one_hot_encode
from leafbridge.errors import DataError, EmptyDatasetError, MissingValueError, SchemaError
from leafbridge.forest import (
    Forest,
    LeafTable,
    Tree,
    _best_numeric_splits,
    _class_sums,
    _gini,
    _presort,
    collect_leaves,
    forest_from_dict,
    forest_to_dict,
    predict_many,
    train_forest,
)
from leafbridge.transfer import TransferConfig, TransferModel, run_transfer
from conftest import (
    assert_no_children,
    assert_same_forest,
    drawn_matrix,
    drawn_rng,
    numeric_dataset,
)

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
    lo, hi = float(sv[i]), float(sv[i + 1])
    mid = (lo + hi) / 2.0
    # a midpoint that rounds onto hi or overflows would send every record left
    return float(gains[best]), mid if lo <= mid < hi else lo


def oracle_numeric_splits(X, labels, weights, idx, attrs, n_classes, min_leaf):
    """The per-attribute loop: the first strictly better gain wins."""
    best = None
    for attr in attrs:
        found = oracle_numeric_split(X[idx, attr], labels[idx], weights[idx],
                                     n_classes, min_leaf)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(attr), found[1])
    return best


@st.composite
def split_nodes(draw):
    """A drawn matrix, labels of 1-12 classes (numpy sums 8 or more values
    pairwise), a bootstrap's class weights, a node of distinct in-bag
    records, sampled attributes, a minimum leaf size and a block size."""
    rng = drawn_rng(draw)
    n, d = draw(st.integers(2, 64)), draw(st.integers(1, 5))
    n_classes = draw(st.sampled_from((1, 2, 3, 7, 8, 9, 12)))
    X = drawn_matrix(draw, rng, n, d)
    y = rng.integers(0, n_classes, n)
    in_bag, counts = np.unique(rng.integers(0, n, n), return_counts=True)
    class_weights = np.zeros((n_classes, n), dtype=np.int32)
    class_weights[y[in_bag], in_bag] = counts
    keep = rng.random(in_bag.size) < draw(st.sampled_from((0.3, 0.7, 1.0)))
    idx = in_bag[keep] if keep.any() else in_bag
    attrs = np.array(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))))
    min_leaf = draw(st.integers(1, max(1, idx.size // 2)))
    return X, y, class_weights, idx, attrs, min_leaf, draw(st.integers(1, 1 << 17))


@settings(max_examples=300)
@given(node=split_nodes())
def test_split_search_matches_oracle_on_drawn_nodes(node):
    X, y, class_weights, idx, attrs, min_leaf, block = node
    order, rank = _presort(X)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "SPLIT_BLOCK_ELEMENTS", block)
        got = _best_numeric_splits(X, order, rank, class_weights, idx, attrs, min_leaf)
    want = oracle_numeric_splits(X, y, class_weights.sum(axis=0).astype(np.float64), idx,
                                 attrs, class_weights.shape[0], min_leaf)
    assert got == want
    if got is not None:
        assert type(got[1]) is int
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


@dataclass
class OracleNode:
    """Internal split (attribute, threshold, children) or leaf (id, the
    distinct in-bag records routed to it, their class counts)."""

    attribute: int = -1
    threshold: float = math.nan
    left: "OracleNode | None" = None
    right: "OracleNode | None" = None
    leaf_id: int = -1
    members: np.ndarray | None = None
    class_counts: np.ndarray | None = None


class OracleTreeBuilder:
    """The recursive tree builder, with the reference split search: the flat
    builder in leafbridge.forest must grow the same trees."""

    def __init__(self, X, y, n_classes, min_leaf, class_weights, rng):
        self.X, self.y, self.n_classes, self.min_leaf = X, y, n_classes, min_leaf
        self.class_weights, self.rng = class_weights, rng
        self.n_attr_sample = max(1, math.ceil(math.sqrt(X.shape[1])))
        self.next_leaf_id = 0

    def build(self, idx) -> OracleNode:
        labels = self.y[idx]
        if idx.shape[0] < 2 * self.min_leaf or np.all(labels == labels[0]):
            return self._leaf(idx, labels)
        split = self._best_split(idx, labels)
        if split is None:
            return self._leaf(idx, labels)
        attr, threshold = split
        mask = self.X[idx, attr] <= threshold
        left = self.build(idx[mask])
        right = self.build(idx[~mask])
        return OracleNode(attribute=attr, threshold=threshold, left=left, right=right)

    def _leaf(self, idx, labels) -> OracleNode:
        node = OracleNode(leaf_id=self.next_leaf_id, members=np.array(idx),
                          class_counts=np.bincount(labels, minlength=self.n_classes))
        self.next_leaf_id += 1
        return node

    def _best_split(self, idx, labels):
        d = self.X.shape[1]
        sampled = self.rng.choice(d, size=min(self.n_attr_sample, d), replace=False)
        weights = self.class_weights[labels, idx].astype(np.float64)
        best = None
        for attr in sorted(int(a) for a in sampled):
            found = oracle_numeric_split(self.X[idx, attr], labels, weights, self.n_classes,
                                         self.min_leaf)
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], attr, found[1])
        return None if best is None else best[1:]


def oracle_forest(ds, n_trees, min_leaf, seed):
    """The roots of train_forest's trees, grown by the oracle builder."""
    roots = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        draws = rng.integers(0, ds.n, size=ds.n)
        idx, counts = np.unique(draws, return_counts=True)
        class_weights = np.zeros((len(ds.class_names), ds.n), dtype=np.int32)
        class_weights[ds.labels[idx], idx] = counts
        builder = OracleTreeBuilder(ds.records, ds.labels, len(ds.class_names), min_leaf,
                                    class_weights, rng)
        roots.append(builder.build(idx))
    return roots


def flatten(root):
    """An oracle tree as the arrays of a Tree (pre-order split nodes, leaves
    by id), plus its leaves' members in leaf order."""
    arrays = {name: [] for name in ("feature", "threshold", "left", "right", "counts")}
    members = []

    def visit(node):
        if node.left is None:
            assert node.leaf_id == len(members)
            arrays["counts"].append(node.class_counts)
            members.append(node.members)
            return ~node.leaf_id
        i = len(arrays["feature"])
        arrays["feature"].append(node.attribute)
        arrays["threshold"].append(node.threshold)
        arrays["left"].append(0)
        arrays["right"].append(0)
        arrays["left"][i] = visit(node.left)
        arrays["right"][i] = visit(node.right)
        return i

    visit(root)
    return arrays, members


def assert_matches_oracle(forest, roots):
    """Node for node and member for member, bit for bit."""
    assert forest.n_trees == len(roots)
    table = collect_leaves(forest)
    first, oracle_trees = 0, []
    for tree, root in zip(forest.trees, roots):
        arrays, members = flatten(root)
        for name, want in arrays.items():
            got = getattr(tree, name)
            want = np.array(want, dtype=got.dtype).reshape(got.shape)
            assert got.tobytes() == want.tobytes(), name
            arrays[name] = want
        oracle_trees.append(Tree(**arrays))
        for k, want in enumerate(members, start=first):
            got = table.members[table.offsets[k]:table.offsets[k + 1]]
            np.testing.assert_array_equal(got, want)
        first += tree.n_leaves
    assert len(table) == first
    oracle = Forest(oracle_trees, forest.schema, forest.class_names)
    assert_same_forest(replace(forest, leaves=None), oracle)


def two_class_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    return numeric_dataset(X, y)


def leaf_of(tree, record):
    """The leaf a record reaches, one node at a time."""
    node = 0 if tree.feature.size else -1
    while node >= 0:
        goes_left = record[tree.feature[node]] <= tree.threshold[node]
        node = int(tree.left[node] if goes_left else tree.right[node])
    return ~node


def loop_predict(forest, X):
    """Reference predict: one record and one tree at a time, with the
    per-record tie-break loop; also returns how many records tied."""
    n_classes = len(forest.class_names)
    out, n_tied = [], 0
    for record in X:
        votes = np.zeros(n_classes)
        dist_sums = np.zeros(n_classes)
        for tree in forest.trees:
            counts = tree.counts[leaf_of(tree, record)].astype(np.float64)
            votes[int(np.argmax(counts))] += 1
            dist_sums += counts / counts.sum()
        tied = np.flatnonzero(votes == votes.max())
        if tied.size == 1:
            out.append(int(tied[0]))
        else:
            n_tied += 1
            out.append(int(tied[int(np.argmax(dist_sums[tied]))]))
    return np.array(out, dtype=np.int64), n_tied


def predict(forest, record) -> int:
    """One record's class, as a batch of one through predict_many."""
    return int(predict_many(forest, np.asarray(record, dtype=np.float64)[None, ...])[0])


def mask_partition_leaves(tree, X):
    """Reference `Tree.apply`: each node splits the rows that reach it with
    the boolean mask of its comparison and the mask's negation, reading the
    cells row-wise (`X[idx, feature]`)."""
    leaf = np.empty(X.shape[0], dtype=np.intp)
    stack = [(0 if tree.feature.size else -1, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node < 0:
            leaf[idx] = ~node
        elif idx.size:
            goes_left = X[idx, tree.feature[node]] <= tree.threshold[node]
            stack.append((tree.right[node], idx[~goes_left]))
            stack.append((tree.left[node], idx[goes_left]))
    return leaf


def per_tree_vote_predict(forest, X):
    """Reference vectorized predict: each tree partitions the rows of a
    row-major matrix (`mask_partition_leaves`), then scatters its votes and
    adds its gathered leaf distributions; also returns how many records
    tied."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, n_classes = X.shape[0], len(forest.class_names)
    rows = np.arange(n)
    votes = np.zeros((n, n_classes))
    dist_sums = np.zeros((n, n_classes))
    for tree in forest.trees:
        leaf = mask_partition_leaves(tree, X)
        counts = tree.counts.astype(np.float64)
        votes[rows, np.argmax(counts, axis=1)[leaf]] += 1
        dist_sums += (counts / counts.sum(axis=1, keepdims=True))[leaf]
    tied = votes == votes.max(axis=1, keepdims=True)
    preds = np.argmax(np.where(tied, dist_sums, -np.inf), axis=1).astype(np.int64)
    return preds, int((tied.sum(axis=1) > 1).sum())


class TestTraining:
    def test_tree_count(self):
        forest = train_forest(two_class_dataset(), n_trees=10, min_leaf_size=5, seed=1)
        assert forest.n_trees == 10

    def test_single_class_single_leaf(self):
        ds = numeric_dataset(np.random.default_rng(0).normal(size=(50, 2)),
                             np.zeros(50, dtype=int), n_classes=1)
        forest = train_forest(ds, n_trees=4, min_leaf_size=5, seed=0)
        assert all(tree.feature.size == 0 and tree.n_leaves == 1 for tree in forest.trees)

    def test_determinism(self):
        a = train_forest(two_class_dataset(), n_trees=5, min_leaf_size=5, seed=42)
        b = train_forest(two_class_dataset(), n_trees=5, min_leaf_size=5, seed=42)
        assert_same_forest(a, b)
        X = np.random.default_rng(1).normal(size=(30, 3))
        np.testing.assert_array_equal(predict_many(a, X), predict_many(b, X))

    def test_different_seed_differs(self):
        a = train_forest(two_class_dataset(), n_trees=5, min_leaf_size=5, seed=0)
        b = train_forest(two_class_dataset(), n_trees=5, min_leaf_size=5, seed=1)
        assert forest_to_dict(a)["trees"] != forest_to_dict(b)["trees"]

    def test_missing_cells_rejected(self):
        ds = numeric_dataset([[1.0], [np.nan]], [0, 1])
        with pytest.raises(MissingValueError):
            train_forest(ds, n_trees=1, min_leaf_size=1, seed=0)

    @pytest.mark.parametrize("cell", [np.inf, -np.inf])
    def test_infinite_cell_rejected(self, cell):
        ds = numeric_dataset([[0.0, 1.0], [2.0, cell], [cell, 3.0]], [0, 1, 0])
        with pytest.raises(DataError, match=f"record 1 attribute 'f1' is {cell!r}"):
            train_forest(ds, n_trees=1, min_leaf_size=1, seed=0)

    def test_training_set_consistency_on_pure_data(self):
        ds = numeric_dataset(np.random.default_rng(3).normal(size=(40, 2)),
                             np.zeros(40, dtype=int), n_classes=2)
        forest = train_forest(ds, n_trees=3, min_leaf_size=5, seed=0)
        np.testing.assert_array_equal(predict_many(forest, ds.records), np.zeros(40))

    @pytest.mark.parametrize("seed, message", [
        (-1, "^seed must be >= 0, got -1$"),
        (0.0, "^seed 0.0 is not an int$"),
        (False, "^seed False is not an int$"),
        (None, "^seed None is not an int$"),
    ])
    def test_seed_that_is_not_an_int_of_at_least_0(self, seed, message):
        with pytest.raises(DataError, match=message):
            train_forest(two_class_dataset(), 3, 5, seed)

    def test_raw_categorical_column_rejected(self):
        schema = (AttributeSchema("a", NUMERIC), AttributeSchema("b", CATEGORICAL, ("x", "y")))
        ds = Dataset(schema, [[0.0, 0.0], [1.0, 1.0]], [0, 1], ("p", "q"))
        with pytest.raises(SchemaError, match="'b' is categorical.*one_hot_encode"):
            train_forest(ds, n_trees=1, min_leaf_size=1, seed=0)
        forest = train_forest(one_hot_encode(ds), n_trees=1, min_leaf_size=1, seed=0)
        assert [a.name for a in forest.schema] == ["a", "b=x", "b=y"]


SRC = str(Path(__file__).resolve().parents[1] / "src")


class WorkerFailure(Exception):
    pass


def fail_in(monkeypatch, where, action):
    """Make `_grow_tree` call action() in the parent ('parent') or in every
    forked worker ('child') and grow normally elsewhere."""
    parent = os.getpid()
    grow_tree = forest_module._grow_tree

    def grow(*args):
        if (os.getpid() == parent) == (where == "parent"):
            action()
        return grow_tree(*args)

    monkeypatch.setattr(forest_module, "_grow_tree", grow)


def raise_failure():
    raise WorkerFailure("tree failed")


# Tree workers are forked: the child's view of the test process ends in
# os._exit, so only the parent reports.
@pytest.mark.skipif(not hasattr(os, "fork"), reason="trees grow in forked workers")
class TestForkedTraining:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_trees", [1, 2, 3, 10])
    def test_equals_serial(self, fork_in, n_trees, workers):
        ds = two_class_dataset(300, seed=4)
        fork_in(1)
        serial = train_forest(ds, n_trees=n_trees, min_leaf_size=3, seed=9)
        forks = fork_in(workers)
        forest = train_forest(ds, n_trees=n_trees, min_leaf_size=3, seed=9)
        assert len(forks()) == min(n_trees, workers) - 1
        assert_same_forest(forest, serial)
        assert_no_children()

    def test_threshold(self, monkeypatch, fork_in):
        ds = two_class_dataset(100, seed=1)
        forks = fork_in(2)
        monkeypatch.setattr(workers_module, "FORK_MIN_WORK", 3 * ds.n)
        train_forest(ds, n_trees=2, min_leaf_size=5, seed=0)
        assert forks() == []
        train_forest(ds, n_trees=3, min_leaf_size=5, seed=0)
        assert len(forks()) == 1

    def test_one_usable_cpu_is_serial(self, monkeypatch):
        monkeypatch.setattr(workers_module, "FORK_MIN_WORK", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
        assert workers_module._usable_cpus() == 1
        train_forest(two_class_dataset(), n_trees=4, min_leaf_size=5, seed=0)

    def test_no_fork_while_another_thread_runs(self, monkeypatch, fork_in):
        ds = two_class_dataset(300, seed=4)
        serial = train_forest(ds, n_trees=4, min_leaf_size=3, seed=2)
        fork_in(2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked while a thread ran"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            forest = train_forest(ds, n_trees=4, min_leaf_size=3, seed=2)
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        assert_same_forest(forest, serial)

    def test_child_exception_raised_in_parent(self, monkeypatch, fork_in):
        forks = fork_in(3)
        fail_in(monkeypatch, "child", raise_failure)
        with pytest.raises(WorkerFailure, match="tree failed"):
            train_forest(two_class_dataset(), n_trees=6, min_leaf_size=5, seed=0)
        assert len(forks()) == 2
        assert_no_children()

    def test_child_ending_without_trees(self, monkeypatch, fork_in):
        fork_in(2)
        fail_in(monkeypatch, "child", lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="exit code 3 before sending its trees"):
            train_forest(two_class_dataset(), n_trees=4, min_leaf_size=5, seed=0)
        assert_no_children()

    def test_parent_exception_kills_children(self, monkeypatch, fork_in):
        fork_in(3)
        fail_in(monkeypatch, "child", lambda: time.sleep(60))
        fail_in(monkeypatch, "parent", raise_failure)
        start = time.monotonic()
        with pytest.raises(WorkerFailure):
            train_forest(two_class_dataset(), n_trees=6, min_leaf_size=5, seed=0)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_pending_output_written_once(self):
        """A forked worker never flushes the stdio buffers it inherits, so
        text the caller has not flushed yet is written once, by the caller,
        whether the workers succeed or fail."""
        script = r"""
import io, os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from leafbridge import forest, workers
from leafbridge.dataset import NUMERIC, AttributeSchema, Dataset

workers.FORK_MIN_WORK = 0
workers._usable_cpus = lambda: 2
forks = []
fork = os.fork
def counting_fork():
    forks.append(None)
    return fork()
os.fork = counting_fork
rng = np.random.default_rng(0)
X = rng.normal(size=(200, 3))
ds = Dataset(tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(3)), X,
             (X[:, 0] > 0).astype(int), ("a", "b"))
assert isinstance(sys.stdout.buffer, io.BufferedWriter)  # block-buffered: stdout is a pipe
print("pending", end="")  # stays in the buffer until exit
forest.train_forest(ds, n_trees=4, min_leaf_size=5, seed=0)
parent = os.getpid()
grow_tree = forest._grow_tree
def failing(*args):
    if os.getpid() != parent:
        raise ValueError("worker failed")
    return grow_tree(*args)
forest._grow_tree = failing
try:
    forest.train_forest(ds, n_trees=4, min_leaf_size=5, seed=0)
except ValueError:
    print(" caught", end="")
print(f" forks={len(forks)}")
"""
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", script, SRC], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "pending caught forks=2\n"


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

    @pytest.mark.parametrize("lo, hi", [(1 + 2**-52, 1 + 2**-51), (1e308, 1.6e308),
                                        (-1.6e308, -1e308)],
                             ids=["adjacent floats", "overflow", "negative overflow"])
    def test_cut_at_lo_where_the_midpoint_leaves_the_gap(self, lo, hi):
        # (lo + hi) / 2 rounds onto hi or overflows: such a cut sends every
        # record left, so one column grows forever and four leave empty leaves
        X = np.array([[lo]] * 20 + [[hi]] * 20)
        forest = train_forest(numeric_dataset(X, np.repeat([0, 1], 20)), n_trees=3,
                              min_leaf_size=1, seed=0)
        assert [tree.threshold.tolist() for tree in forest.trees] == [[lo]] * 3
        rng = np.random.default_rng(0)
        X = rng.choice([lo, hi], size=(200, 4))
        ds = numeric_dataset(X, (X[:, 0] == hi) ^ (rng.random(200) < 0.2))
        forest = train_forest(ds, n_trees=10, min_leaf_size=1, seed=0)
        assert all((tree.counts.sum(axis=1) > 0).all() for tree in forest.trees)
        assert_same_forest(reloaded(forest), replace(forest, leaves=None))
        assert_matches_oracle(forest, oracle_forest(ds, 10, 1, 0))

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
        # raw categorical columns enter as their one-hot encoding, as in the
        # pipeline; "one_hot" is the encoding of the mixed dataset
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
                "categorical": one_hot_encode(categorical), "nine_classes": many_classes}

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("min_leaf", [1, 5, 40])
    def test_forest_json_matches_oracle_builder(self, monkeypatch, min_leaf, block):
        for name, ds in self.datasets().items():
            with monkeypatch.context() as patch:
                if block is not None:
                    patch.setattr(forest_module, "SPLIT_BLOCK_ELEMENTS", block)
                forest = train_forest(ds, n_trees=4, min_leaf_size=min_leaf, seed=3)
            assert_matches_oracle(forest, oracle_forest(ds, 4, min_leaf, 3))

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
        X = np.asfortranarray(rng.normal(size=(n, d)))  # a Dataset's layout
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


def tree_leaf_ranges(forest):
    """(first, end) leaf row of each tree in the forest's leaf table."""
    ends = np.cumsum([tree.n_leaves for tree in forest.trees])
    return list(zip(ends - [tree.n_leaves for tree in forest.trees], ends))


class TestLeaves:
    def test_single_leaf_trees_yield_tau_refs(self):
        ds = numeric_dataset(np.random.default_rng(0).normal(size=(30, 2)),
                             np.zeros(30, dtype=int), n_classes=1)
        forest = train_forest(ds, n_trees=7, min_leaf_size=5, seed=0)
        assert len(collect_leaves(forest)) == 7

    def test_members_partition_routed_records(self):
        ds = two_class_dataset(150, seed=2)
        forest = train_forest(ds, n_trees=6, min_leaf_size=10, seed=2)
        table = collect_leaves(forest)
        for t, (first, end) in enumerate(tree_leaf_ranges(forest)):
            flat = table.members[table.offsets[first]:table.offsets[end]].tolist()
            assert len(flat) == len(set(flat))  # disjoint
            rng = np.random.default_rng([2, t])
            in_bag = set(np.unique(rng.integers(0, ds.n, size=ds.n)))
            assert set(flat) == in_bag

    def test_members_reach_their_leaf(self):
        ds = two_class_dataset(150, seed=3)
        forest = train_forest(ds, n_trees=4, min_leaf_size=3, seed=3)
        table = collect_leaves(forest)
        for tree, (first, end) in zip(forest.trees, tree_leaf_ranges(forest)):
            reached = tree.apply(ds.records)
            for k in range(first, end):
                members = table.members[table.offsets[k]:table.offsets[k + 1]]
                assert (reached[members] == k - first).all()
                assert (np.diff(members) > 0).all()
                np.testing.assert_array_equal(
                    tree.counts[k - first], np.bincount(ds.labels[members], minlength=2))

    def test_member_count_respects_min_leaf(self):
        ds = two_class_dataset(300, seed=5)
        forest = train_forest(ds, n_trees=8, min_leaf_size=15, seed=5)
        sizes = collect_leaves(forest).sizes
        multi = [sizes[first:end] for tree, (first, end)
                 in zip(forest.trees, tree_leaf_ranges(forest)) if tree.feature.size]
        assert multi, "expected at least one split tree"
        assert min(s.min() for s in multi) >= 15

    def test_loaded_forest_has_no_leaf_table(self):
        forest = train_forest(two_class_dataset(60), n_trees=2, min_leaf_size=5, seed=0)
        with pytest.raises(DataError, match="no leaf members"):
            collect_leaves(reloaded(forest))

    def test_offsets_checked(self):
        with pytest.raises(DataError, match="offsets"):
            LeafTable(np.arange(3), np.array([0, 2]))
        with pytest.raises(DataError, match="offsets"):
            LeafTable(np.arange(3), np.array([0, 2, 1, 3]))


def reloaded(forest):
    """forest written to JSON text and read back."""
    return forest_from_dict(json.loads(json.dumps(forest_to_dict(forest))))


def _stump(counts):
    """A tree without splits: the single leaf 0."""
    empty = np.empty(0, dtype=np.intp)
    return Tree(empty, np.empty(0), empty, empty, np.array([counts], dtype=np.int64))


def _stump_forest(count_rows):
    trees = [_stump(c) for c in count_rows]
    schema = (AttributeSchema("f0", NUMERIC),)
    return Forest(trees, schema, ("A", "B"))


def chain_forest(depth):
    """One hand-built tree `depth` splits deep: split i sends x <= i + 0.5
    to leaf i (class i % 2) and the rest on to split i + 1; the last split's
    right child is leaf `depth`."""
    splits = np.arange(depth)
    leaves, odd = np.arange(depth + 1), np.arange(depth + 1) % 2
    counts = np.ones((depth + 1, 2), dtype=np.int64)
    counts[leaves, odd] = 3
    right = np.append(splits[1:], ~depth)
    tree = Tree(np.zeros(depth, dtype=np.intp), splits + 0.5, ~splits, right, counts)
    schema = (AttributeSchema("x", NUMERIC),)
    return Forest([tree], schema, ("even", "odd"))


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

    def test_missing_cell_in_an_unread_column_rejected(self):
        # the tree reads column 0 only; the batch scan still finds column 1's NaN
        tree = chain_forest(3).trees[0]
        schema = (AttributeSchema("x", NUMERIC), AttributeSchema("y", NUMERIC))
        forest = Forest([tree], schema, ("even", "odd"))
        X = np.array([[0.0, 1.0], [1.0, np.nan]])
        for batch in (X, np.asfortranarray(X)):
            with pytest.raises(MissingValueError):
                predict_many(forest, batch)

    def test_cell_at_threshold_goes_left(self):
        forest = chain_forest(4)
        X = forest.trees[0].threshold[:, None]
        np.testing.assert_array_equal(predict_many(forest, X), [0, 1, 0, 1])
        np.testing.assert_array_equal(loop_predict(forest, X)[0], [0, 1, 0, 1])

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


class TestColumnMajorPredict:
    @staticmethod
    def forest_and_batch(n_classes, seed=0):
        """A 4-tree forest on coarse (tie-prone) data, one single-leaf tree
        among them, and a 3000-record test batch."""
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(600, 5)), 1)
        y = np.digitize(X[:, 0] + X[:, 1] + rng.normal(size=600),
                        np.linspace(-2, 2, n_classes - 1))
        forest = train_forest(numeric_dataset(X, y, n_classes), n_trees=4,
                              min_leaf_size=3, seed=seed)
        forest.trees[2] = _stump(np.bincount(y, minlength=n_classes))
        return forest, np.round(rng.normal(size=(3000, 5)), 1)

    @pytest.mark.parametrize("n_classes", [2, 3, 8, 9])
    def test_matches_per_tree_votes_on_every_layout(self, n_classes):
        forest, X = self.forest_and_batch(n_classes)
        want, n_tied = per_tree_vote_predict(forest, X)
        assert n_tied > 100
        wide = np.column_stack([X, X])
        for batch in (X, np.asfortranarray(X), wide[:, 5:], wide[::2][:, :5]):
            expected = want if batch.shape[0] == X.shape[0] else want[::2]
            got = predict_many(forest, batch)
            assert got.dtype == np.int64
            assert got.tobytes() == expected.tobytes()
        for row in (X[0], np.asfortranarray(X)[7], wide[11, 5:]):
            assert predict(forest, row) == per_tree_vote_predict(forest, row[None, :])[0][0]

    def test_majority_and_distribution(self):
        # first maximum wins the vote; 3 / 10 is not 3 * (1 / 10) in floats
        tree = Tree(np.array([0, 1]), np.array([0.5, 1.5]), np.array([-1, -2]),
                    np.array([1, -3]), np.array([[1, 3, 3], [2, 0, 2], [3, 7, 0]]))
        want = np.array([[0, 1, 0, 1 / 7, 3 / 7, 3 / 7], [1, 0, 0, 2 / 4, 0 / 4, 2 / 4],
                         [0, 1, 0, 3 / 10, 7 / 10, 0 / 10]])
        assert np.eye(3)[tree._majority].tobytes() == want[:, :3].copy().tobytes()
        assert tree._distribution.tobytes() == want[:, 3:].copy().tobytes()

    def test_column_major_batch_is_not_copied(self):
        n, d = 20000, 40
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2000, d))
        forest = train_forest(numeric_dataset(X, (X[:, 0] > 0).astype(int)), n_trees=3,
                              min_leaf_size=20, seed=5)
        batch = np.asfortranarray(rng.normal(size=(n, d)))
        tracemalloc.start()
        try:
            predict_many(forest, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the isnan mask (n * d bytes), index arrays and the vote counts,
        # not a second (n, d) float64 copy of the batch
        assert peak < 8 * n * d // 2

    def test_peak_below_a_float_table_per_record(self):
        # 10 partitioned trees, 3 classes: the votes, leaf ids and index
        # arrays stay below two (n, 2C) float64 tables, 32 * C bytes a record
        forest, _ = self.forest_and_batch(3)
        forest.trees[:] = forest.trees[:2] * 5
        assert not any(t.feature.size <= forest_module.CODED_SPLITS for t in forest.trees[:2])
        n = 20000
        batch = np.asfortranarray(np.random.default_rng(6).normal(size=(n, 5)))
        predict_many(forest, batch, complete=True)  # build the trees' tables
        tracemalloc.start()
        try:
            predict_many(forest, batch, complete=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 3 * n

    def test_votes_beyond_255_do_not_wrap(self):
        # 260 of 300 stumps vote B: a one-byte count would read 4
        forest = _stump_forest([[1, 3]] * 260 + [[3, 1]] * 40)
        # 150 votes each; A sums 150 * 0.25 + 150 * 1.0, B 150 * 0.75
        tied = _stump_forest([[1, 3]] * 150 + [[4, 0]] * 150)
        batch = np.zeros((10000, 1), order="F")
        assert loop_predict(forest, batch[:1])[0].tolist() == [1]
        assert loop_predict(tied, batch[:1])[0].tolist() == [0]
        tracemalloc.start()
        try:
            got = predict_many(forest, batch, complete=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got == 1).all() and (predict_many(tied, batch) == 0).all()
        # a one-byte leaf id per tree and record, plus at most 64 bytes a record
        assert peak < (forest.n_trees + 64) * batch.shape[0]


def random_tree(n_splits, d, thresholds, rng, root_left=None):
    """A tree of n_splits splits of random shape, numbered depth first,
    left first; each split draws its column from d and its threshold from
    `thresholds`. root_left, if given, is the number of splits under the
    root's left child."""
    left = np.zeros(n_splits, dtype=np.intp)
    right = np.zeros(n_splits, dtype=np.intp)
    numbered = {"split": 1, "leaf": 0}

    def grow(node, below):
        n_left = int(rng.integers(0, below + 1)) if node or root_left is None else root_left
        for side, size in ((left, n_left), (right, below - n_left)):
            if size:
                side[node] = numbered["split"]
                numbered["split"] += 1
                grow(side[node], size - 1)
            else:
                side[node] = ~numbered["leaf"]
                numbered["leaf"] += 1

    if n_splits:
        grow(0, n_splits - 1)
    return Tree(rng.integers(0, d, size=n_splits).astype(np.intp),
                rng.choice(thresholds, size=n_splits), left, right,
                np.ones((n_splits + 1, 2), dtype=np.int64))


def balanced_tree(depth):
    """A complete tree of 2^depth leaves over x in [0, 1]: each split
    halves its node's interval, so uniform rows spread evenly over the
    leaves."""
    threshold, left, right = [], [], []
    n_leaves = 0

    def grow(lo, hi, level):
        nonlocal n_leaves
        if level == depth:
            n_leaves += 1
            return ~(n_leaves - 1)
        node, mid = len(threshold), (lo + hi) / 2
        threshold.append(mid)
        left.append(0)
        right.append(0)
        left[node] = grow(lo, mid, level + 1)
        right[node] = grow(mid, hi, level + 1)
        return node

    grow(0.0, 1.0, 0)
    return Tree(np.zeros(len(threshold), dtype=np.intp), np.array(threshold),
                np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                np.ones((n_leaves, 2), dtype=np.int64))


def coded_nodes(tree, X):
    """The split nodes whose subtrees `Tree.apply` should code for X: the
    root if the tree has at most CODED_SPLITS splits, else each node below
    it with at most SUBTREE_SPLITS splits under a partitioned parent that
    some row of X reaches."""
    def size(node):
        return 0 if node < 0 else 1 + size(int(tree.left[node])) + size(int(tree.right[node]))

    if size(0 if tree.feature.size else -1) <= forest_module.CODED_SPLITS:
        return {0}
    reached = set()
    for record in X:
        node = 0
        while node == 0 or (node > 0 and size(node) > forest_module.SUBTREE_SPLITS):
            goes_left = record[tree.feature[node]] <= tree.threshold[node]
            node = int(tree.left[node] if goes_left else tree.right[node])
        if node >= 0:
            reached.add(node)
    return reached


class TestCodedApply:
    """`Tree.apply` partitions rows until a subtree fits a code table: the
    whole tree of at most CODED_SPLITS splits over full columns, below the
    root a subtree of at most SUBTREE_SPLITS splits on its rows. The
    boolean-mask partition and the per-record walk are the oracles."""

    CELLS = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 1.5, np.inf, np.nan])
    THRESHOLDS = np.array([-1.5, -0.0, 0.0, 0.5, 1.5])

    @staticmethod
    def assert_leaves(tree, got, want):
        assert got.dtype == np.min_scalar_type(tree.n_leaves - 1)
        assert got.astype(np.intp).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_splits", [*range(forest_module.CODED_SPLITS + 2), 16, 17, 24, 40])
    def test_matches_partition(self, n_splits):
        rng = np.random.default_rng(n_splits)
        X = rng.choice(self.CELLS, size=(600, 5))
        wide = np.column_stack([X, X])
        batches = [(X, slice(None)), (np.asfortranarray(X), slice(None)),
                   (wide[:, 5:], slice(None)), (X[7:8], slice(7, 8)),
                   (np.asfortranarray(X[:1]), slice(0, 1))]
        for _ in range(4):
            tree = random_tree(n_splits, 5, self.THRESHOLDS, rng)
            schema = tuple(AttributeSchema(f"x{j}", NUMERIC) for j in range(5))
            # a well-formed tree
            forest_from_dict(forest_to_dict(Forest([tree], schema, ("a", "b"))))
            want = mask_partition_leaves(tree, X)
            tree.apply(X)
            assert set(tree._code_tables) == coded_nodes(tree, X)
            for batch, rows in batches:
                self.assert_leaves(tree, tree.apply(batch), want[rows])

    @pytest.mark.parametrize("cap", ["whole", "subtree"])
    def test_trees_at_and_above_each_cap(self, cap):
        # "whole": trees of CODED_SPLITS and one more splits; "subtree": the
        # root's left subtree has SUBTREE_SPLITS splits, its right one more
        rng = np.random.default_rng(11)
        X = rng.choice(self.CELLS, size=(2000, 5))
        sub = forest_module.SUBTREE_SPLITS
        for _ in range(6):
            if cap == "whole":
                trees = [random_tree(forest_module.CODED_SPLITS + k, 5, self.THRESHOLDS, rng)
                         for k in (0, 1)]
            else:
                trees = [random_tree(2 * sub + 2, 5, self.THRESHOLDS, rng, root_left=sub)]
            for tree in trees:
                tree.apply(X)
                assert set(tree._code_tables) == coded_nodes(tree, X)
                for batch in (X, np.asfortranarray(X), X[:1]):
                    self.assert_leaves(tree, tree.apply(batch), mask_partition_leaves(tree, batch))
            if cap == "whole":
                assert 0 in trees[0]._code_tables and 0 not in trees[1]._code_tables
            else:
                assert 1 in trees[0]._code_tables
                assert int(trees[0].right[0]) not in trees[0]._code_tables

    @settings(max_examples=120)
    @given(n_splits=st.integers(0, 40), n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1),
           thresholds=st.lists(st.floats(-4, 4), min_size=1, max_size=6),
           subtree_cap=st.integers(0, forest_module.CODED_SPLITS))
    def test_matches_per_record_walk(self, n_splits, n, seed, thresholds, subtree_cap):
        rng = np.random.default_rng(seed)
        tree = random_tree(n_splits, 3, thresholds, rng)
        cells = np.concatenate([thresholds, [-0.0, 0.0, -np.inf, np.inf, np.nan]])
        X = rng.choice(cells, size=(n, 3))
        want = np.array([leaf_of(tree, record) for record in X], dtype=np.intp)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forest_module, "SUBTREE_SPLITS", subtree_cap)
            for got in (tree.apply(X), tree.apply(np.asfortranarray(X)), tree.apply(X[:1])):
                self.assert_leaves(tree, got, want[:got.size])

    def test_code_table(self):
        # split 0 (x <= 0.5) is bit 0 and split 1 (x <= 1.5) bit 1; a code
        # whose bit 0 is set reaches leaf 0 whatever bit 1 holds
        tree = chain_forest(2).trees[0]
        assert tree._code_table(0).tolist() == [2, 0, 1, 0]
        assert _stump([1, 1])._code_table(0).tolist() == [0]
        # a subtree's table holds the tree's leaf ids: splits 11 and 12 of
        # a 13-split chain reach leaves 11, 12 and 13
        deep = chain_forest(forest_module.CODED_SPLITS + 1).trees[0]
        assert deep._code_table(11).tolist() == [13, 11, 12, 11]
        assert deep._code_table(11).dtype == np.uint8

    def test_table_is_not_saved_and_rebuilt_after_load(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(1500, 4))
        y = np.digitize(X[:, 0] + X[:, 1], [-0.5, 0.5])
        ds = numeric_dataset(X, y)
        small = train_forest(ds, n_trees=3, min_leaf_size=80, seed=4)
        large = train_forest(ds, n_trees=3, min_leaf_size=10, seed=4)
        assert all(tree.feature.size <= forest_module.CODED_SPLITS for tree in small.trees)
        assert all(tree.feature.size > forest_module.CODED_SPLITS for tree in large.trees)
        forest = replace(small, trees=small.trees + large.trees)
        model = TransferModel(forest=forest, fallback=True, diagnostics={},
                              raw_schema=forest.schema, config=TransferConfig())
        model.save(tmp_path / "before.json")
        test = numeric_dataset(rng.normal(size=(700, 4)), np.arange(700) % 3)
        predictions = model.predict_many(test)
        model.save(tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
        loaded = TransferModel.load(tmp_path / "after.json")
        assert all("_majority" in vars(tree) for tree in forest.trees)
        cached = {"_code_tables", "_subtree_splits", "_majority", "_distribution"}
        assert not any(vars(tree).keys() & cached for tree in loaded.forest.trees)
        batch = np.asfortranarray(test.records)
        for tree, again in zip(forest.trees, loaded.forest.trees):
            self.assert_leaves(again, again.apply(batch), mask_partition_leaves(tree, batch))
            assert again._code_tables.keys() == tree._code_tables.keys()
            assert all(again._code_tables[node].tobytes() == table.tobytes()
                       for node, table in tree._code_tables.items())
        assert loaded.predict_many(test).tobytes() == predictions.tobytes()

    @pytest.mark.parametrize("shape", ["chain", "balanced"])
    def test_peak_memory(self, shape):
        # about 10 rows a leaf: a chain of 2000 splits peels them off one
        # leaf at a time, a balanced tree of 2047 splits halves them
        n = 20000
        rng = np.random.default_rng(9)
        if shape == "chain":
            tree, X = chain_forest(2000).trees[0], rng.uniform(0, 2000, size=(n, 1))
        else:
            tree, X = balanced_tree(11), rng.random((n, 1))
        tracemalloc.start()
        try:
            leaf = tree.apply(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_leaves(tree, leaf, mask_partition_leaves(tree, X))
        # the leaf ids, the node's rows, its comparison and, for one side
        # at a time, the positions and rows (about 4.3 * 8n bytes), plus the
        # tree's arrays as Python lists and the subtrees' code tables; not
        # every visited node's rows
        assert peak <= 5 * 8 * n + 128 * tree.feature.size + 65536


@settings(max_examples=150)
@given(n_classes=st.integers(2, 9), splits=st.lists(st.integers(0, 20), min_size=1, max_size=12),
       n=st.integers(1, 40), max_count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_predict_many_matches_loop_on_random_forests(n_classes, splits, n, max_count, seed):
    """Whole-tree coded (at most CODED_SPLITS splits) and partitioned trees
    with small leaf counts, so that votes and distribution sums tie;
    thresholds are cells of the batch, so cells fall on them."""
    rng = np.random.default_rng(seed)
    d = 3
    X = rng.choice(np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf]), size=(n, d))
    trees = []
    for n_splits in splits:
        tree = random_tree(n_splits, d, X.ravel(), rng)
        counts = rng.integers(0, max_count + 1, size=(n_splits + 1, n_classes))
        counts[np.arange(n_splits + 1), rng.integers(0, n_classes, size=n_splits + 1)] += 1
        trees.append(replace(tree, counts=counts))
    forest = Forest(trees, (AttributeSchema("x", NUMERIC),) * d,
                    tuple(f"c{c}" for c in range(n_classes)))
    got = predict_many(forest, X)
    assert got.dtype == np.int64
    assert got.tobytes() == loop_predict(forest, X)[0].tobytes()


def subtree_splits_loop(tree):
    """Each split node's subtree size by one reverse pass over the split
    ids, adding each child's size to its parent: how `Tree._subtree_splits`
    was computed before the depth-first walk, right wherever children come
    after their parent."""
    left, right = tree.left.tolist(), tree.right.tolist()
    size = [1] * len(left) or [0]
    for node in reversed(range(len(left))):
        for child in (left[node], right[node]):
            if child >= 0:
                size[node] += size[child]
    return size


def children_after_parents(tree):
    """The layout rule `forest_from_dict` applied before the depth-first
    walk: the split children are splits 1 .. s-1, each once and each after
    its parent, and the leaf children are leaves 0 .. s, each once."""
    s = tree.feature.size
    children = np.concatenate([tree.left, tree.right])
    parents = np.tile(np.arange(s), 2)
    splits = children >= 0
    return bool(np.array_equal(np.sort(children[splits]), np.arange(1, s))
                and (children[splits] > parents[splits]).all()
                and np.array_equal(np.sort(~children[~splits]), np.arange(s + 1 if s else 0)))


def depth_first_ids(tree):
    """The split ids and the leaf ids in the order a recursive depth-first,
    left-first walk from the root reaches them; the tree must be one
    (`children_after_parents`)."""
    splits, leaves = [], []

    def walk(node):
        if node < 0:
            leaves.append(~node)
        else:
            splits.append(node)
            walk(int(tree.left[node]))
            walk(int(tree.right[node]))

    walk(0 if tree.feature.size else -1)
    return splits, leaves


def renumbered(tree, split_ids, leaf_ids):
    """`tree` with split node i renamed split_ids[i] and leaf k renamed
    leaf_ids[k]; the same tree under other ids."""
    new_split, new_leaf = np.asarray(split_ids, dtype=np.intp), np.asarray(leaf_ids, dtype=np.intp)
    old_split, old_leaf = np.argsort(new_split), np.argsort(new_leaf)

    def rename(children):
        return np.where(children >= 0, new_split[np.maximum(children, 0)],
                        ~new_leaf[np.maximum(~children, 0)])

    return Tree(tree.feature[old_split], tree.threshold[old_split],
                rename(tree.left[old_split]), rename(tree.right[old_split]),
                tree.counts[old_leaf])


def breadth_first(tree):
    """`tree` with its split nodes and its leaves each numbered breadth
    first, left child before right."""
    queue = [0 if tree.feature.size else -1]
    for node in queue:  # the list grows while it is read
        if node >= 0:
            queue += [int(tree.left[node]), int(tree.right[node])]
    # queue lists the old ids in their new order; argsort inverts that
    return renumbered(tree, np.argsort([n for n in queue if n >= 0]),
                      np.argsort([~n for n in queue if n < 0]))


def one_tree_forest(tree, d):
    schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(d))
    return Forest([tree], schema, tuple(f"c{c}" for c in range(tree.counts.shape[1])))


class TestTreeLayout:
    """A tree's layout, split nodes and leaves each numbered depth first,
    left first, is stated once, by `Tree._depth_first_sizes`: `apply`
    reads subtrees by it and `forest_from_dict` rejects a tree it does not
    accept."""

    def grown_trees(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 4))
        y = np.digitize(X[:, 0] + X[:, 1] * X[:, 2], [-0.5, 0.5])
        ds = numeric_dataset(X, y)
        return [tree for min_leaf in (1, 5, 40)
                for tree in train_forest(ds, n_trees=3, min_leaf_size=min_leaf, seed=5).trees]

    def test_walk_sizes_equal_the_reverse_loop(self):
        rng = np.random.default_rng(6)
        trees = [*self.grown_trees(), _stump([1, 2]), chain_forest(30).trees[0], balanced_tree(6),
                 *(random_tree(n, 3, [0.5], rng) for n in (*range(20), 40, 95) for _ in range(3))]
        assert any(tree.feature.size > forest_module.CODED_SPLITS for tree in trees)
        for tree in trees:
            assert children_after_parents(tree)
            assert tree._depth_first_sizes() == subtree_splits_loop(tree)
            assert tree._subtree_splits == subtree_splits_loop(tree)
            forest_from_dict(forest_to_dict(one_tree_forest(tree, 4)))

    def test_breadth_first_numbering_rejected(self, tmp_path):
        # the old rule let this tree load, and its first apply then failed
        # (it read a subtree's splits as a range of ids)
        tree = max(self.grown_trees(), key=lambda t: t.feature.size)
        assert tree.feature.size > forest_module.CODED_SPLITS
        wide = breadth_first(tree)
        assert not np.array_equal(wide.left, tree.left)
        assert children_after_parents(wide)
        X = np.random.default_rng(7).normal(size=(300, 4))
        np.testing.assert_array_equal(wide.counts[mask_partition_leaves(wide, X)],
                                      tree.counts[mask_partition_leaves(tree, X)])
        assert wide._depth_first_sizes() is None
        forest = one_tree_forest(wide, 4)
        with pytest.raises(DataError, match="^forest document holds a malformed tree$"):
            forest_from_dict(forest_to_dict(forest))
        model = TransferModel(forest=forest, fallback=True, diagnostics={},
                              raw_schema=forest.schema, config=TransferConfig())
        model.save(tmp_path / "wide.json")
        with pytest.raises(DataError, match="^forest document holds a malformed tree$"):
            TransferModel.load(tmp_path / "wide.json")

    @settings(max_examples=200)
    @given(n_splits=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    def test_only_depth_first_ids_accepted(self, n_splits, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(n_splits, 2, [0.5], rng)
        split_ids, leaf_ids = np.arange(n_splits), np.arange(n_splits + 1)
        if rng.integers(2):  # the root stays split 0
            split_ids[1:] = 1 + rng.permutation(max(n_splits - 1, 0))
        if rng.integers(2):
            leaf_ids = rng.permutation(n_splits + 1)
        other = renumbered(tree, split_ids, leaf_ids)
        depth_first = (split_ids == np.arange(n_splits)).all() and (
            leaf_ids == np.arange(n_splits + 1)).all()
        if depth_first:
            assert other._depth_first_sizes() == subtree_splits_loop(tree)
        else:
            assert other._depth_first_sizes() is None
            with pytest.raises(DataError, match="malformed tree"):
                forest_from_dict(forest_to_dict(one_tree_forest(other, 2)))

    @settings(max_examples=300)
    @given(st.integers(0, 8).flatmap(lambda s: st.tuples(
        st.lists(st.integers(-s - 2, s + 1), min_size=s, max_size=s),
        st.lists(st.integers(-s - 2, s + 1), min_size=s, max_size=s))))
    def test_any_children_arrays(self, children):
        # the walk ends on cycles, shared children and ids outside the
        # tree, and accepts exactly the trees numbered as a recursive walk
        # reaches their nodes
        left, right = (np.array(c, dtype=np.intp) for c in children)
        s = left.size
        tree = Tree(np.zeros(s, dtype=np.intp), np.zeros(s), left, right,
                    np.ones((s + 1, 2), dtype=np.int64))
        sizes = tree._depth_first_sizes()
        want = children_after_parents(tree) and depth_first_ids(tree) == (
            list(range(s)), list(range(s + 1)))
        assert (sizes is not None) == want
        if want:
            assert sizes == subtree_splits_loop(tree)


class TestSerialization:
    def test_json_round_trip(self):
        ds = two_class_dataset(120, seed=9)
        forest = train_forest(ds, n_trees=4, min_leaf_size=10, seed=9)
        text = json.dumps(forest_to_dict(forest))
        again = forest_from_dict(json.loads(text))
        assert_same_forest(again, replace(forest, leaves=None))
        X = np.random.default_rng(10).normal(size=(40, 3))
        np.testing.assert_array_equal(predict_many(forest, X), predict_many(again, X))
        assert json.dumps(forest_to_dict(again)) == text

    def test_document_holds_no_members(self):
        forest = train_forest(two_class_dataset(120), n_trees=3, min_leaf_size=5, seed=1)
        doc = forest_to_dict(forest)
        assert set(doc) == {"class_names", "attributes", "trees"}
        assert set(doc["trees"][0]) == {"feature", "threshold", "left", "right", "counts"}

    def test_name_listed_twice_rejected(self, tmp_path):
        # the 4-record, 2-tree probe: a model whose classes were both edited
        # to "p" would predict class 0 for every record
        ds = numeric_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        forest = train_forest(ds, n_trees=2, min_leaf_size=1, seed=0)
        model = TransferModel(forest=forest, fallback=False, diagnostics={},
                              raw_schema=ds.schema, config=TransferConfig())
        path = tmp_path / "probe.json"
        model.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["forest"]["class_names"] = ["p", "p"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="key 'class_names' lists 'p' more than once"):
            TransferModel.load(path)
        doc = forest_to_dict(forest)
        doc["attributes"] = ["f0", "f0"]
        with pytest.raises(DataError, match="key 'attributes' lists 'f0' more than once"):
            forest_from_dict(doc)

    def test_empty_tree_list_rejected(self, tmp_path):
        # a model whose trees were edited to [] would predict class 0 for
        # every record
        rng = np.random.default_rng(12)
        X = rng.normal(size=(300, 3))
        target = numeric_dataset(X, (X[:, 0] > 0).astype(int))
        source = numeric_dataset(X @ np.diag([1.0, -1.0, 2.0]), target.labels)
        model = run_transfer(source, target, TransferConfig(n_trees=3, seed=12))
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["forest"]["trees"] = []
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="key 'trees' lists no trees"):
            TransferModel.load(path)

    @pytest.mark.parametrize("name, value", [
        ("left", [-1, -1]),       # leaf 0 twice, leaf 1 unreachable
        ("right", [0, -3]),       # split 0 is its own child: a cycle
        ("feature", [0, 5]),      # no column 5
        ("counts", [[1, 0], [0, 1]]),  # 2 leaves for 2 splits
        ("threshold", [0.5]),
        ("threshold", [math.nan, 1.5]),
        ("threshold", [0.5, math.inf]),
    ])
    def test_malformed_tree_rejected(self, name, value):
        doc = forest_to_dict(chain_forest(2))
        doc["trees"][0][name] = value
        with pytest.raises(DataError, match="malformed tree"):
            forest_from_dict(doc)

    @pytest.mark.parametrize("name, value", [
        ("feature", [0.7, 0]),     # would be truncated to column 0
        ("feature", [False, 0]),
        ("threshold", ["8", 1.5]),  # would be parsed as 8.0
        ("threshold", [True, True]),  # would be read as 1.0
        ("left", [-1.0, -2]),
        ("right", [1, "-3"]),
        ("counts", [[1, 3], [3, "1"], [1, 3]]),
        ("counts", [[1, 3], [3, False], [1, 3]]),
    ])
    def test_tree_array_of_other_json_types_rejected(self, name, value):
        doc = forest_to_dict(chain_forest(2))
        doc["trees"][0][name] = value
        kind = "number" if name == "threshold" else "integer"
        with pytest.raises(DataError, match=f"tree array {name!r} holds a value that is "
                                            f"not a JSON {kind}"):
            forest_from_dict(doc)

    def test_deep_tree_round_trips_and_predicts(self, tmp_path):
        # deeper than Python's recursion limit; random data only reaches
        # depths of about 60-70, so the tree is built by hand
        depth = 2500
        forest = chain_forest(depth)
        X = np.arange(-1.0, depth + 1.0)[:, None] + 0.25
        want, _ = loop_predict(forest, X)
        np.testing.assert_array_equal(want[1:depth + 1], np.arange(depth) % 2)
        np.testing.assert_array_equal(predict_many(forest, X), want)
        again = reloaded(forest)
        np.testing.assert_array_equal(predict_many(again, X), want)
        ds = Dataset(forest.schema, X, np.zeros(X.shape[0], dtype=np.int64),
                     forest.class_names, "target")
        model = TransferModel(forest=forest, fallback=True, diagnostics={},
                              raw_schema=forest.schema, config=TransferConfig())
        model.save(tmp_path / "deep.json")
        loaded = TransferModel.load(tmp_path / "deep.json")
        np.testing.assert_array_equal(loaded.predict_many(ds), want)

    def test_empty_dataset_error(self):
        with pytest.raises((EmptyDatasetError, Exception)):
            numeric_dataset(np.empty((0, 2)), np.empty(0, dtype=int), n_classes=1)
