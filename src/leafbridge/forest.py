"""Random decision forest with leaf and rule extraction.

Each tree is grown on a bootstrap sample. Node data is kept as the set of
distinct in-bag records plus their bootstrap multiplicities: split quality is
scored on the multiplicities (exactly the Gini of the bootstrap rows), while
leaf membership, class counts and the minimum-leaf-size rule use each record
once. Leaves therefore carry the label statistics of the data, not of the
resampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, AttributeSchema, Dataset
from .errors import DataError, EmptyDatasetError, MissingValueError, SchemaError

_GAIN_EPS = 1e-12


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


def _best_numeric_split(values, labels, weights, n_classes, min_leaf):
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


class _TreeBuilder:
    def __init__(self, X, y, n_classes, kinds, n_categories, min_leaf, rng):
        self.X = X
        self.y = y
        self.n_classes = n_classes
        self.kinds = kinds
        self.n_categories = n_categories
        self.min_leaf = min_leaf
        self.rng = rng
        self.n_attr_sample = max(1, math.ceil(math.sqrt(X.shape[1])))
        self.next_leaf_id = 0

    def build(self, idx, weights) -> TreeNode:
        labels = self.y[idx]
        if idx.shape[0] < 2 * self.min_leaf or np.all(labels == labels[0]):
            return self._leaf(idx, labels)
        split = self._best_split(idx, weights, labels)
        if split is None:
            return self._leaf(idx, labels)
        attr, threshold, category = split
        values = self.X[idx, attr]
        mask = values == category if category >= 0 else values <= threshold
        left = self.build(idx[mask], weights[mask])
        right = self.build(idx[~mask], weights[~mask])
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

    def _best_split(self, idx, weights, labels):
        d = self.X.shape[1]
        sampled = self.rng.choice(d, size=min(self.n_attr_sample, d), replace=False)
        best = None
        for attr in sorted(int(a) for a in sampled):
            values = self.X[idx, attr]
            if self.kinds[attr] == 1:
                found = _best_categorical_split(
                    values, labels, weights, self.n_classes, self.min_leaf,
                    self.n_categories[attr],
                )
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], attr, math.nan, found[1])
            else:
                found = _best_numeric_split(
                    values, labels, weights, self.n_classes, self.min_leaf,
                )
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], attr, found[1], -1)
        if best is None:
            return None
        return best[1], best[2], best[3]


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
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        draws = rng.integers(0, ds.n, size=ds.n)
        idx, counts = np.unique(draws, return_counts=True)
        builder = _TreeBuilder(
            ds.records, ds.labels, len(ds.class_names), kinds, n_categories,
            min_leaf_size, rng,
        )
        trees.append(builder.build(idx, counts.astype(np.float64)))
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
