"""Random decision forest with leaf and rule extraction.

Each tree is grown on a bootstrap sample. Node data is kept as the set of
distinct in-bag records plus their bootstrap multiplicities: split quality is
scored on the multiplicities (exactly the Gini of the bootstrap rows), while
leaf membership, class counts and the minimum-leaf-size rule use each record
once. Leaves therefore carry the label statistics of the data, not of the
resampling.

Numeric split search is presorted. train_forest sorts every column once per
call (`_presort`): the order of the records by value and its inverse, the
rank of each record, both int32 (d, n) tables. A node sorts the integer
ranks of its records for each sampled attribute, which orders the node's
values without a float sort, and scores every boundary of every sampled
numeric attribute in class-major passes over cumulative sums of the integer
bootstrap multiplicities, one pass per block of attributes of at most
SPLIT_BLOCK_ELEMENTS cells. The chosen split, leaf numbering and
random draws are those of scoring each attribute on its own with a stable
float sort; tests/test_forest.py keeps that per-attribute search as the
oracle. Categorical (one-vs-rest) attributes are still scored one at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, AttributeSchema, Dataset
from .errors import DataError, EmptyDatasetError, MissingValueError, SchemaError

_GAIN_EPS = 1e-12
# Cells scored at once by one node's numeric split search, counting for each
# boundary of each attribute in a block its class counts plus two for the
# per-boundary arrays (sorted ranks, records, values, weights, gains). A
# cell takes about 32 bytes, so a block about 2 MiB.
SPLIT_BLOCK_ELEMENTS = 1 << 16


@dataclass
class TreeNode:
    """Internal split or leaf.

    Internal nodes hold the split (attribute plus a numeric threshold or a
    one-vs-rest category) and two children; leaves hold an id, the distinct
    in-bag records routed to them, and the label counts of those records.
    """

    attribute: int = -1
    threshold: float = math.nan
    category: int = -1
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    leaf_id: int = -1
    members: np.ndarray | None = None
    class_counts: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def goes_left(self, values: np.ndarray) -> np.ndarray:
        if self.category >= 0:
            return values == self.category
        return values <= self.threshold


@dataclass
class Forest:
    """Trained ensemble plus the metadata needed to use and serialize it."""

    trees: list[TreeNode]
    schema: tuple
    class_names: tuple[str, ...]
    min_leaf_size: int
    seed: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)


@dataclass(frozen=True)
class LeafRef:
    """One leaf of one tree, with the training records routed to it."""

    tree_index: int
    leaf_id: int
    members: tuple[int, ...]


def _gini(weighted_counts: np.ndarray) -> float:
    total = weighted_counts.sum()
    if total <= 0:
        return 0.0
    p = weighted_counts / total
    return float(1.0 - (p * p).sum())


def _class_sums(q: np.ndarray) -> np.ndarray:
    """Column sums of a class-major (C, K) array, rounded as numpy rounds
    `q.T.sum(axis=1)` on a C-contiguous (K, C) array.

    numpy adds fewer than 8 values in sequence and 8 or more pairwise. A
    reduction over axis 0 is always sequential, so it is exact only below 8
    classes. There it is kept for speed: the row sums of a transposed copy
    are about 20 times slower at 3 classes (2.1 GHz Xeon), which makes the
    whole fit about 25% slower.
    """
    if q.shape[0] < 8:
        return q.sum(axis=0)
    return np.ascontiguousarray(q.T).sum(axis=1)


def _best_numeric_splits(X, order, rank, class_weights, idx, attrs, min_leaf):
    """Best midpoint threshold over several numeric attributes of one node.

    idx holds the node's distinct records, attrs the sampled numeric
    attributes in ascending order. `order`/`rank` are the forest's presort
    tables (see `_presort`) and class_weights[c][r] the tree's bootstrap
    multiplicity of record r if its label is c, else 0. Returns (gain,
    attribute, threshold) or None.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; each side must keep at least min_leaf distinct records. The
    winner is the first maximal gain over attributes in ascending order,
    then over boundaries in ascending order. Attributes are scored in
    blocks of at most SPLIT_BLOCK_ELEMENTS cells (one attribute at least),
    which bounds a node's working set; every gain is computed on its own,
    so the blocking does not change the result.
    """
    n_classes = class_weights.shape[0]
    step = max(1, SPLIT_BLOCK_ELEMENTS // ((n_classes + 2) * idx.shape[0]))
    best = None
    for start in range(0, attrs.size, step):
        found = _best_block_split(X, order, rank, class_weights, idx,
                                  attrs[start:start + step], min_leaf)
        if found is not None and (best is None or found[0] > best[0]):
            best = found
    return best


def _best_block_split(X, order, rank, class_weights, idx, attrs, min_leaf):
    """`_best_numeric_splits` over one block of attributes, in one pass.

    Class counts are cumulative sums of integer multiplicities, hence
    exact, and the Gini arithmetic is that of one attribute scored on its
    own (see `_class_sums`).
    """
    n_classes, n = class_weights.shape
    m = idx.shape[0]
    ranks = np.take(rank, attrs[:, None] * n + idx)
    ranks.sort(axis=1)  # ranks are unique: this sorts each attribute by value
    rec = np.take(order, attrs[:, None] * n + ranks).astype(np.intp)
    values = np.take(X, rec * X.shape[1] + attrs[:, None])
    # boundary i lies after sorted row i and leaves i + 1 records on the left
    lo, hi = min_leaf - 1, m - min_leaf
    cuts = np.zeros((attrs.size, m), dtype=bool)
    cuts[:, lo:hi] = values[:, lo:hi] < values[:, lo + 1:hi + 1]
    flat = np.flatnonzero(cuts)
    if flat.size == 0:
        return None
    counts = np.cumsum(np.take(class_weights, rec, axis=1), axis=2, dtype=np.int32)
    total = counts[:, 0, -1].astype(np.float64)
    lc = np.take(counts.reshape(n_classes, -1), flat, axis=1).astype(np.float64)
    wl = lc.sum(axis=0)
    rc = total[:, None] - lc
    wr = total.sum() - wl
    w = wl + wr
    # in place: these (C, K) arrays span every boundary of the block
    gini_l = 1.0 - _class_sums(np.square(np.divide(lc, wl, out=lc), out=lc))
    gini_r = 1.0 - _class_sums(np.square(np.divide(rc, wr, out=rc), out=rc))
    gains = _gini(total) - (wl * gini_l + wr * gini_r) / w
    best = int(np.argmax(gains))
    if gains[best] <= _GAIN_EPS:
        return None
    a, i = divmod(int(flat[best]), m)
    return float(gains[best]), int(attrs[a]), float((values[a, i] + values[a, i + 1]) / 2.0)


def _best_categorical_split(values, labels, weights, n_classes, min_leaf, n_categories):
    """Best one-vs-rest category split for one attribute, or None."""
    m = values.shape[0]
    parent_counts = np.zeros(n_classes)
    np.add.at(parent_counts, labels, weights)
    parent = _gini(parent_counts)
    w_total = weights.sum()
    best = None
    for cat in range(n_categories):
        mask = values == cat
        nl = int(mask.sum())
        if nl < min_leaf or m - nl < min_leaf:
            continue
        lc = np.zeros(n_classes)
        np.add.at(lc, labels[mask], weights[mask])
        rc = parent_counts - lc
        wl = lc.sum()
        wr = rc.sum()
        gain = parent - (wl * _gini(lc) + wr * _gini(rc)) / w_total
        if gain > _GAIN_EPS and (best is None or gain > best[0]):
            best = (float(gain), cat)
    return best


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column order of the records by value and its inverse, int32 (d, n).

    order[j] lists the records by ascending value of column j and rank[j][r]
    is the position of record r in order[j], so sorting the ranks of any
    record subset sorts the subset by value. Equal values may come in any
    order: a split only sees the class counts of all records up to a value
    and the values either side of a boundary, never the order of ties.
    """
    n, d = X.shape
    if n > np.iinfo(np.int32).max:
        raise DataError(f"train_forest supports at most {np.iinfo(np.int32).max} records")
    order = np.empty((d, n), dtype=np.int32)
    rank = np.empty((d, n), dtype=np.int32)
    positions = np.arange(n, dtype=np.int32)
    for j in range(d):
        order[j] = np.argsort(X[:, j])
        rank[j, order[j]] = positions
    return order, rank


class _TreeBuilder:
    """Grows one tree from the forest's `_presort` tables and the tree's
    (n_classes, n) table of bootstrap multiplicities per record and label
    (see `_best_numeric_splits`)."""

    def __init__(self, X, y, kinds, n_categories, min_leaf, presorted, class_weights, rng):
        self.X = X
        self.y = y
        self.n_classes = class_weights.shape[0]
        self.kinds = kinds
        self.n_categories = n_categories
        self.min_leaf = min_leaf
        self.order, self.rank = presorted
        self.class_weights = class_weights
        self.rng = rng
        self.n_attr_sample = max(1, math.ceil(math.sqrt(X.shape[1])))
        self.next_leaf_id = 0

    def build(self, idx) -> TreeNode:
        labels = self.y[idx]
        if idx.shape[0] < 2 * self.min_leaf or np.all(labels == labels[0]):
            return self._leaf(idx, labels)
        split = self._best_split(idx, labels)
        if split is None:
            return self._leaf(idx, labels)
        attr, threshold, category = split
        values = self.X[idx, attr]
        mask = values == category if category >= 0 else values <= threshold
        left = self.build(idx[mask])
        right = self.build(idx[~mask])
        return TreeNode(attribute=attr, threshold=threshold, category=category,
                        left=left, right=right)

    def _leaf(self, idx, labels) -> TreeNode:
        node = TreeNode(
            leaf_id=self.next_leaf_id,
            members=np.array(idx),
            class_counts=np.bincount(labels, minlength=self.n_classes).astype(np.float64),
        )
        self.next_leaf_id += 1
        return node

    def _best_split(self, idx, labels):
        """(attribute, threshold, category) of the best sampled split, or None.

        Candidates are (gain, attribute, threshold, category); the highest
        gain wins and a tie goes to the lowest attribute.
        """
        d = self.X.shape[1]
        sampled = np.sort(self.rng.choice(d, size=min(self.n_attr_sample, d), replace=False))
        candidates = []
        numeric = sampled[self.kinds[sampled] == 0]
        if numeric.size:
            found = _best_numeric_splits(
                self.X, self.order, self.rank, self.class_weights, idx, numeric,
                self.min_leaf,
            )
            if found is not None:
                candidates.append((*found, -1))
        for attr in sampled[self.kinds[sampled] == 1]:
            found = _best_categorical_split(
                self.X[idx, attr], labels,
                self.class_weights[labels, idx].astype(np.float64), self.n_classes,
                self.min_leaf, self.n_categories[attr],
            )
            if found is not None:
                candidates.append((found[0], int(attr), math.nan, found[1]))
        if not candidates:
            return None
        _, attr, threshold, category = max(candidates, key=lambda c: (c[0], -c[1]))
        return attr, threshold, category


def train_forest(ds: Dataset, n_trees: int = 10, min_leaf_size: int = 20,
                 seed: int = 0) -> Forest:
    """Grow a random forest on a complete (no missing cells) dataset.

    Per tree: a bootstrap sample of n draws with replacement, and at each
    node a fresh random subset of ceil(sqrt(d)) attributes scored by Gini
    reduction. Splitting stops at pure nodes, nodes smaller than twice the
    minimum leaf size, or when no sampled split improves the Gini.
    Deterministic for a fixed seed.
    """
    if n_trees < 1:
        raise DataError("n_trees must be >= 1")
    if min_leaf_size < 1:
        raise DataError("min_leaf_size must be >= 1")
    if ds.n < 1:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if ds.has_missing():
        raise MissingValueError("train_forest requires a dataset without missing cells")
    kinds = np.array([1 if a.kind == CATEGORICAL else 0 for a in ds.schema])
    n_categories = np.array(
        [len(a.categories) if a.kind == CATEGORICAL else 0 for a in ds.schema]
    )
    presorted = _presort(ds.records)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        draws = rng.integers(0, ds.n, size=ds.n)
        idx, counts = np.unique(draws, return_counts=True)
        class_weights = np.zeros((len(ds.class_names), ds.n), dtype=np.int32)
        class_weights[ds.labels[idx], idx] = counts
        builder = _TreeBuilder(
            ds.records, ds.labels, kinds, n_categories, min_leaf_size, presorted,
            class_weights, rng,
        )
        trees.append(builder.build(idx))
    return Forest(trees, ds.schema, ds.class_names, min_leaf_size, seed)


def collect_leaves(forest: Forest) -> list[LeafRef]:
    """Every leaf of every tree, each exactly once, in tree/leaf-id order."""
    refs = []
    for t, root in enumerate(forest.trees):
        stack = [root]
        leaves = []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend((node.right, node.left))
        leaves.sort(key=lambda nd: nd.leaf_id)
        refs.extend(
            LeafRef(t, leaf.leaf_id, tuple(int(i) for i in leaf.members))
            for leaf in leaves
        )
    return refs


def _check_record(forest: Forest, record: np.ndarray):
    if record.shape != (len(forest.schema),):
        raise SchemaError(
            f"record has {record.shape} cells, forest expects {len(forest.schema)}"
        )
    if np.isnan(record).any():
        raise MissingValueError("cannot predict a record with missing cells")


def predict(forest: Forest, record) -> int:
    """Majority vote over trees with a distribution tie-break.

    Each tree votes its leaf's majority class. Plurality wins; a tie is
    broken by summing the tied classes' per-leaf distributions across all
    trees, and any remaining tie by the lowest class index.
    """
    record = np.asarray(record, dtype=np.float64)
    _check_record(forest, record)
    return int(predict_many(forest, record[None, :])[0])


def predict_many(forest: Forest, records) -> np.ndarray:
    """Vectorized predict over a [n, d] record matrix."""
    X = np.asarray(records, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(forest.schema):
        raise SchemaError("record matrix does not match forest schema")
    if np.isnan(X).any():
        raise MissingValueError("cannot predict records with missing cells")
    n = X.shape[0]
    n_classes = len(forest.class_names)
    votes = np.zeros((n, n_classes))
    dist_sums = np.zeros((n, n_classes))
    for root in forest.trees:
        stack = [(root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                dist = node.class_counts / node.class_counts.sum()
                votes[idx, int(np.argmax(node.class_counts))] += 1
                dist_sums[idx] += dist
            else:
                mask = node.goes_left(X[idx, node.attribute])
                stack.append((node.left, idx[mask]))
                stack.append((node.right, idx[~mask]))
    tied = votes == votes.max(axis=1, keepdims=True)
    return np.argmax(np.where(tied, dist_sums, -np.inf), axis=1).astype(np.int64)


# Forest JSON serialization (version 1).

def _node_to_obj(node: TreeNode):
    if node.is_leaf:
        return {
            "leaf": node.leaf_id,
            "members": [int(i) for i in node.members],
            "counts": [float(c) for c in node.class_counts],
        }
    obj = {"attr": node.attribute}
    if node.category >= 0:
        obj["category"] = node.category
    else:
        obj["threshold"] = node.threshold
    obj["left"] = _node_to_obj(node.left)
    obj["right"] = _node_to_obj(node.right)
    return obj


def _node_from_obj(obj) -> TreeNode:
    if "leaf" in obj:
        return TreeNode(
            leaf_id=obj["leaf"],
            members=np.array(obj["members"], dtype=np.int64),
            class_counts=np.array(obj["counts"], dtype=np.float64),
        )
    return TreeNode(
        attribute=obj["attr"],
        threshold=obj.get("threshold", math.nan),
        category=obj.get("category", -1),
        left=_node_from_obj(obj["left"]),
        right=_node_from_obj(obj["right"]),
    )


def forest_to_dict(forest: Forest) -> dict:
    return {
        "format": "leafbridge-forest",
        "version": 1,
        "min_leaf_size": forest.min_leaf_size,
        "seed": forest.seed,
        "class_names": list(forest.class_names),
        "schema": [
            {"name": a.name, "kind": a.kind, "categories": list(a.categories)}
            for a in forest.schema
        ],
        "trees": [_node_to_obj(root) for root in forest.trees],
    }


def forest_from_dict(obj) -> Forest:
    if obj.get("format") != "leafbridge-forest" or obj.get("version") != 1:
        raise DataError("not a version-1 forest document")
    schema = tuple(
        AttributeSchema(a["name"], a["kind"], tuple(a["categories"])) for a in obj["schema"]
    )
    return Forest(
        [_node_from_obj(t) for t in obj["trees"]],
        schema,
        tuple(obj["class_names"]),
        obj["min_leaf_size"],
        obj["seed"],
    )


def forest_to_json(forest: Forest) -> str:
    return json.dumps(forest_to_dict(forest))


def forest_from_json(text: str) -> Forest:
    return forest_from_dict(json.loads(text))
