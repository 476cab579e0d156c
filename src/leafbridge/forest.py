"""Random decision forest with leaf and rule extraction.

Each tree is grown on a bootstrap sample. Node data is kept as the set of
distinct in-bag records plus their bootstrap multiplicities: split quality is
scored on the multiplicities (exactly the Gini of the bootstrap rows), while
leaf membership, class counts and the minimum-leaf-size rule use each record
once. Leaves therefore carry the label statistics of the data, not of the
resampling.

Forests are numeric only: every attribute is split at a midpoint threshold
(see `_cut`), cells must be finite, and a raw categorical column is a
SchemaError (one-hot encode it first).

A tree is a set of parallel arrays over its split nodes (`Tree`); an explicit
stack grows it depth first and left first, the order of a recursive build,
so no tree is too deep to grow, predict or serialize. The records routed to
each leaf are needed only to train the pivot stage, so they live apart from
the trees, in one CSR table per forest (`LeafTable`), and are not saved.

Numeric split search is presorted. train_forest sorts every column once per
call (`_presort`): the order of the records by value and its inverse, the
rank of each record, both int32 (d, n) tables. A node sorts the integer
ranks of its records for each sampled attribute, which orders the node's
values without a float sort, and scores every boundary of every sampled
attribute in class-major passes over cumulative sums of the integer
bootstrap multiplicities, one pass per block of attributes of at most
SPLIT_BLOCK_ELEMENTS cells. The chosen split, leaf numbering and
random draws are those of scoring each attribute on its own with a stable
float sort and growing the tree recursively; tests/test_forest.py keeps that
search and that builder as the oracle.

A tree finds each record's leaf in one loop (`Tree.apply`): it partitions
the records node by node, splitting each node's ascending row indices by
the positions of its comparison's true and false outcomes, until a node's
subtree is small enough to code, then reads the leaf from that subtree's
table of split-outcome codes (QuickScorer's idea, Lucchese et al., SIGIR
2015). The whole tree is the root's subtree, coded over full columns when
it has at most CODED_SPLITS splits; below the root a subtree of at most
SUBTREE_SPLITS splits is coded on the cells of its own rows.

A forest's trees grow through `workers.fork_map`, one contiguous share of
the tree numbers per process; each tree draws from its own generator, so
the forest is the one a single process grows.

A forest predicts by plurality vote. Each tree's vote is one integer count
per record; the trees' leaf class distributions are summed only for the
records whose top vote count two or more classes share, as the tie-break.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .dataset import (NUMERIC, AttributeSchema, Dataset, _require_distinct, cell_facts,
                      require_numeric, require_seed)
from .errors import DataError, MissingValueError, SchemaError
from .workers import fork_map

_GAIN_EPS = 1e-12
# Cells scored at once by one node's numeric split search, counting for each
# boundary of each attribute in a block its class counts plus two for the
# per-boundary arrays (sorted ranks, records, values, weights, gains). A
# cell takes about 32 bytes, so a block about 2 MiB.
SPLIT_BLOCK_ELEMENTS = 1 << 16
#: `Tree.apply` codes a whole tree of at most this many split nodes over
#: full columns. Codes are uint16 (uint8 codes shift and or at about half
#: the speed), so the cap is at most 16. Against the partition, on fresh
#: random trees (2.1 GHz Xeon), the lookup with its table build counted
#: took 0.74 of the time at 16 splits on 22 800-row batches, and on
#: 800-row batches broke even at about 10 splits (1.11 of the time at 12,
#: 2.0 at 16); the cap lies between those crossovers.
CODED_SPLITS = 12
#: Below the root, `Tree.apply` codes a subtree of at most this many split
#: nodes on its rows, one gather of the rows' cells per split. Against
#: partitioning the same random-shaped subtree for 30 to 8000 rows of a
#: 22 800-row batch (2.1 GHz Xeon), coding took 0.89-0.96 of the time at 7
#: splits and broke even at about 8-9. One cap for both cases costs more:
#: 8 made the separable benchmark forest's apply 1.31 times as slow (its
#: 6-10-split trees lose the full-column code), 12 made the categorical
#: one's 1.17 times as slow.
SUBTREE_SPLITS = 7
#: dtype of each `Tree` array, in field and document order.
_TREE_ARRAYS = {"feature": np.intp, "threshold": np.float64, "left": np.intp,
                "right": np.intp, "counts": np.int64}


@dataclass(frozen=True, eq=False)
class Tree:
    """One tree: parallel arrays over its split nodes, and its leaves'
    class counts.

    Split node i sends a record whose cell feature[i] is <= threshold[i] to
    child left[i], any other record to right[i]. A child c >= 0 is split
    node c, a child c < 0 is leaf ~c. Split nodes and leaves are each
    numbered depth first, left first, so split node 0 is the root, and a
    tree without splits is the single leaf 0. counts[k] holds the class
    counts of the distinct in-bag records of leaf k.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    @property
    def n_leaves(self) -> int:
        return self.counts.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id of every row of X, in the smallest unsigned type that
        holds the tree's leaf ids.

        Rows are partitioned node by node, from the root down, until a
        node's subtree is small enough to code: at most CODED_SPLITS splits
        for the whole tree, read over full columns, or SUBTREE_SPLITS below
        the root, whose rows are gathered from each column. A coded subtree
        of S splits sets, for each row, bit j of an S-bit code when its j-th
        split sends the row left, and reads the leaf from the subtree's
        table of 2^S codes (`_code_table`). A partitioned node takes the
        rows at the positions of its comparison's true and false entries
        (`nonzero`, then `take`), several times faster on large nodes than
        indexing with the boolean mask and its negation; the stack holds
        each pending node's rows only, at most n rows in all. X is read one
        column at a time, which is contiguous when X is column-major
        (Fortran order).
        """
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        splits = self._subtree_splits
        columns = X.T
        leaf = None
        stack = [(0, None)]  # a split node or ~leaf and the rows it gets; None: every row
        while stack:
            node, rows = stack.pop()
            if rows is not None and not rows.size:
                continue
            if node < 0:
                leaf[rows] = ~node
            elif splits[node] <= (CODED_SPLITS if rows is None else SUBTREE_SPLITS):
                code = np.zeros(X.shape[0] if rows is None else rows.size, dtype=np.uint16)
                goes_left = np.empty(code.size, dtype=bool)
                # the last split first: each shift moves the bits set so far up by one
                for s in reversed(range(node, node + splits[node])):
                    cells = columns[feature[s]] if rows is None else columns[feature[s]].take(rows)
                    np.less_equal(cells, threshold[s], out=goes_left)
                    code <<= 1
                    code |= goes_left
                if rows is None:
                    return self._code_table(node).take(code)
                leaf[rows] = self._code_table(node).take(code)
            else:
                if rows is None:
                    leaf = np.empty(X.shape[0], dtype=np.min_scalar_type(self.n_leaves - 1))
                    goes_left = columns[feature[node]] <= threshold[node]
                    stack.append((right[node], (~goes_left).nonzero()[0]))
                    stack.append((left[node], goes_left.nonzero()[0]))
                else:  # one side at a time: holding both sides' positions slowed
                    # the overlap benchmark forest's apply by a fifth
                    goes_left = columns[feature[node]].take(rows) <= threshold[node]
                    stack.append((right[node], rows.take((~goes_left).nonzero()[0])))
                    stack.append((left[node], rows.take(goes_left.nonzero()[0])))
        return leaf

    @cached_property
    def _subtree_splits(self) -> list[int]:
        """`_depth_first_sizes` of a tree that holds the layout; built on
        first apply and never saved."""
        return self._depth_first_sizes()

    def _depth_first_sizes(self) -> list[int] | None:
        """The number of splits in the subtree of each split node, [0] for a
        tree without splits; None unless the tree holds the layout that
        `_grow_tree` builds: a walk from the root, depth first and left
        first, reaches split nodes 0, 1, ... and leaves 0, 1, ... in id
        order, and all of them. The subtree of split node i is then the
        splits i to i + size[i] - 1, the range `apply` and `_code_table` read."""
        left, right = self.left.tolist(), self.right.tolist()
        size = [0] * len(left) or [0]
        n_splits = n_leaves = 0  # the next split and leaf id the walk expects
        stack = [(0 if left else ~0, False)]  # a node, and whether its subtree is done
        while stack:
            node, done = stack.pop()
            if done:
                size[node] = n_splits - node
            elif node != (n_splits if node >= 0 else ~n_leaves) or node == len(left):
                return None
            elif node < 0:
                n_leaves += 1
            else:
                n_splits += 1
                stack += [(node, True), (right[node], False), (left[node], False)]
        # each split reached adds two children, so n_splits + 1 leaves were reached
        return size if n_splits == len(left) else None

    @cached_property
    def _code_tables(self) -> dict:
        """Each coded subtree's table, by its root split node; filled on
        first apply and never saved."""
        return {}

    def _code_table(self, node: int) -> np.ndarray:
        """Leaf id of each of the 2^S split-outcome codes of the S-split
        subtree of split node `node`, in the smallest unsigned type that
        holds the tree's leaf ids.

        Each leaf fills, in a (2,)*S view of the table, the block of codes
        that agree with the outcomes on its path (axis S - 1 - j holds bit
        j, the outcome of split node + j) and leaves the other splits' bits
        free.
        """
        if node in self._code_tables:
            return self._code_tables[node]
        s = self._subtree_splits[node]
        # a tree without splits is leaf 0
        table = np.zeros(1 << s, dtype=np.min_scalar_type(self.n_leaves - 1))
        view = table.reshape((2,) * s)
        left, right = self.left.tolist(), self.right.tolist()
        stack = [(node, [slice(None)] * s)] if s else []
        while stack:
            split, path = stack.pop()
            for child, bit in ((left[split], 1), (right[split], 0)):
                block = path.copy()
                block[s - 1 - (split - node)] = bit
                if child < 0:
                    view[tuple(block)] = ~child
                else:
                    stack.append((child, block))
        self._code_tables[node] = table
        return table

    @cached_property
    def _majority(self) -> np.ndarray:
        """Each leaf's majority class, the first maximum of its counts, in
        the smallest unsigned type that holds it; built on first use and
        never saved."""
        return np.argmax(self.counts, axis=1).astype(np.min_scalar_type(self.counts.shape[1]))

    @cached_property
    def _distribution(self) -> np.ndarray:
        """(leaves, C) normalized class counts of each leaf; built on first
        use and never saved."""
        counts = self.counts.astype(np.float64)
        return counts / counts.sum(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class LeafTable:
    """The training records routed to each leaf of a forest, as one CSR
    table.

    Leaves come tree by tree, each tree's in leaf-id order; leaf k holds the
    distinct in-bag records members[offsets[k]:offsets[k + 1]], ascending.
    """

    members: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        offsets = self.offsets
        if (offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0
                or offsets[-1] != self.members.size or (np.diff(offsets) < 0).any()):
            raise DataError("leaf offsets must rise from 0 to the member count")

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)


@dataclass
class Forest:
    """Trained ensemble plus the metadata needed to use and serialize it.

    `leaves` is the leaf table of the training records; a forest read back
    from JSON has none.
    """

    trees: list[Tree]
    schema: tuple
    class_names: tuple[str, ...]
    leaves: LeafTable | None = None

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _gini(weighted_counts: np.ndarray) -> float:
    p = weighted_counts / weighted_counts.sum()
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
    """Best midpoint threshold over several attributes of one node.

    X is the column-major record matrix (a Dataset's records), idx holds
    the node's distinct records, attrs the sampled attributes in ascending
    order. `order`/`rank` are the forest's presort tables (see
    `_presort`) and class_weights[c][r] the tree's bootstrap multiplicity of
    record r if its label is c, else 0. Returns (gain, attribute,
    threshold) or None.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values (`_cut`); each side must keep at least min_leaf distinct
    records. The winner is the first maximal gain over attributes in
    ascending order, then over boundaries in ascending order. Attributes
    are scored in blocks of at most SPLIT_BLOCK_ELEMENTS cells (one
    attribute at least), which bounds a node's working set; every gain is
    computed on its own, so the blocking does not change the result.
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
    first = attrs[:, None] * n  # each attribute's first cell in the (d, n) tables and X.T
    ranks = np.take(rank, first + idx)
    ranks.sort(axis=1)  # ranks are unique: this sorts each attribute by value
    rec = np.take(order, first + ranks).astype(np.intp)
    values = np.take(X.T, first + rec)  # within one column of the column-major X
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
    return float(gains[best]), int(attrs[a]), _cut(float(values[a, i]), float(values[a, i + 1]))


def _cut(lo: float, hi: float) -> float:
    """The threshold between consecutive distinct values lo < hi: their
    midpoint, or lo where the midpoint rounds onto hi (adjacent floats) or
    overflows (two values beyond half the float range), either of which
    would send every record left. Python floats overflow without a
    warning."""
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


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


def _as_tree(arrays) -> Tree:
    """A Tree from a mapping of each array's name to its values; DataError
    naming an array whose values do not convert."""
    converted = {}
    for name, dtype in _TREE_ARRAYS.items():
        try:
            converted[name] = np.array(arrays[name], dtype=dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"tree array {name!r} does not convert: {exc}") from None
    return Tree(**converted)


def _grow_tree(X, y, n_classes, min_leaf, presorted, class_weights, rng, idx):
    """One tree grown from the distinct in-bag records idx, plus the
    members of its leaves in leaf order.

    class_weights is the tree's (n_classes, n) table of bootstrap
    multiplicities per record and label (see `_best_numeric_splits`). A
    node becomes a leaf when it is pure, holds fewer than 2 * min_leaf
    records, or no sampled split improves the Gini; otherwise it draws
    ceil(sqrt(d)) attributes from rng. The stack pops the left child first,
    so nodes are visited, numbered and draw in depth-first, left-first
    order.
    """
    d = X.shape[1]
    n_sample = min(d, max(1, math.ceil(math.sqrt(d))))
    order, rank = presorted
    feature, threshold, left, right = [], [], [], []
    counts, members = [], []
    stack = [(idx, None, 0)]  # records, child list of the parent, parent
    while stack:
        idx, side, parent = stack.pop()
        labels = y[idx]
        split = None
        if idx.shape[0] >= 2 * min_leaf and not np.all(labels == labels[0]):
            sampled = np.sort(rng.choice(d, size=n_sample, replace=False))
            split = _best_numeric_splits(X, order, rank, class_weights, idx, sampled, min_leaf)
        if split is None:
            node = ~len(counts)
            counts.append(np.bincount(labels, minlength=n_classes))
            members.append(idx)
        else:
            node = len(feature)
            _, attr, cut = split
            feature.append(attr)
            threshold.append(cut)
            left.append(0)
            right.append(0)
            goes_left = X[idx, attr] <= cut
            stack.append((idx[~goes_left], right, node))
            stack.append((idx[goes_left], left, node))
        if side is not None:
            side[parent] = node
    tree = _as_tree({"feature": feature, "threshold": threshold, "left": left,
                     "right": right, "counts": counts})
    return tree, members


def _grow_trees(ds, min_leaf, seed, presorted, numbers) -> list:
    """(tree, leaf members) of each tree number in numbers, in order.

    Tree t draws its bootstrap sample and attribute subsets from its own
    generator, default_rng([seed, t]), so it is the same tree whichever
    process grows it and whatever else that process grows.
    """
    grown = []
    for t in numbers:
        rng = np.random.default_rng([seed, t])
        draws = rng.integers(0, ds.n, size=ds.n)
        idx, counts = np.unique(draws, return_counts=True)
        class_weights = np.zeros((len(ds.class_names), ds.n), dtype=np.int32)
        class_weights[ds.labels[idx], idx] = counts
        grown.append(_grow_tree(ds.records, ds.labels, len(ds.class_names),
                                min_leaf, presorted, class_weights, rng, idx))
    return grown


def train_forest(ds: Dataset, n_trees: int, min_leaf_size: int, seed: int) -> Forest:
    """Grow a random forest on a complete (no missing cells), numeric dataset
    of finite cells.

    Per tree: a bootstrap sample of n draws with replacement, and at each
    node a fresh random subset of ceil(sqrt(d)) attributes scored by Gini
    reduction. Splitting stops at pure nodes, nodes smaller than twice the
    minimum leaf size, or when no sampled split improves the Gini.
    Deterministic for a fixed seed (an int >= 0), however many processes
    grow the trees (`workers.fork_map`). The pipeline's settings come from
    a TransferConfig, which holds their defaults (`transfer.fit_forest`).
    """
    if n_trees < 1:
        raise DataError("n_trees must be >= 1")
    if min_leaf_size < 1:
        raise DataError("min_leaf_size must be >= 1")
    require_seed(seed)
    require_numeric(ds.schema, "train_forest")
    if not ds.is_finite():
        if ds.has_missing():
            raise MissingValueError("train_forest requires a dataset without missing cells")
        i, j = (int(v) for v in np.argwhere(np.isinf(ds.records))[0])
        raise DataError(f"train_forest requires finite cells, but record {i} attribute "
                        f"{ds.schema[j].name!r} is {float(ds.records[i, j])!r}")
    grow = partial(_grow_trees, ds, min_leaf_size, seed, _presort(ds.records))
    grown = fork_map(grow, range(n_trees), [ds.n] * n_trees, "trees")
    trees = [tree for tree, _ in grown]
    members = [leaf for _, tree_members in grown for leaf in tree_members]
    offsets = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum([m.shape[0] for m in members], out=offsets[1:])
    leaves = LeafTable(np.concatenate(members), offsets)
    return Forest(trees, ds.schema, ds.class_names, leaves)


def collect_leaves(forest: Forest) -> LeafTable:
    """Every leaf of every tree, each exactly once, in tree/leaf-id order."""
    if forest.leaves is None:
        raise DataError("the forest keeps no leaf members (a loaded forest or a model's "
                        "final forest only predicts)")
    return forest.leaves


def predict_many(forest: Forest, records, *, complete: bool = False) -> np.ndarray:
    """Class index of every record of a [n, d] matrix by a majority vote of
    the trees, ties broken by the summed leaf distributions.

    The trees read the records by column, so a column-major (Fortran-order)
    matrix, a Dataset's records or an `encode_records` result, is read in
    place; any other is copied once into Fortran order. records is scanned
    for missing cells (`cell_facts`) unless the caller passes complete=True
    for a batch it knows to be complete: `TransferModel.predict_many`
    passes it for an `encode_records` result and for a Dataset whose
    has_missing() is false, which costs no scan once the dataset has been
    scanned.

    Each tree adds one vote per record, for the majority class of the
    record's leaf, into a (C, n) integer count. One pass over the classes
    then gives each record the class with the most votes and marks the
    records where two or more classes have that count. Only for those are
    the trees' leaf distributions summed, in tree order from 0.0, and the
    first top-vote class with the largest sum wins. Beyond the batch a
    call holds the counts (one byte a class and record up to 255 trees)
    and each tree's leaf ids in the smallest unsigned type that holds them
    (one byte a record for a tree of at most 256 leaves).
    """
    X = np.asarray(records, dtype=np.float64, order="F")
    if X.ndim != 2 or X.shape[1] != len(forest.schema):
        raise SchemaError(f"records of shape {X.shape} do not match the forest's "
                          f"{len(forest.schema)} columns")
    if not complete and cell_facts(X)["missing"]:
        raise MissingValueError("cannot predict records with missing cells")
    n, n_classes = X.shape[0], len(forest.class_names)
    votes = np.zeros((n_classes, n), dtype=np.min_scalar_type(forest.n_trees))
    is_class = np.empty(n, dtype=bool)
    leaves = []
    for tree in forest.trees:
        leaf = tree.apply(X)
        majority = tree._majority.take(leaf)
        for c in range(n_classes):
            votes[c] += np.equal(majority, c, out=is_class)
        leaves.append(leaf)
    top = votes.max(axis=0)
    best = np.zeros(n, dtype=np.int64)
    n_top = np.zeros(n, dtype=np.min_scalar_type(n_classes))
    for c in range(n_classes):  # a record with two classes at the top is set below
        np.equal(votes[c], top, out=is_class)
        best[is_class] = c
        n_top += is_class
    ties = np.flatnonzero(n_top > 1)
    if ties.size:
        dist_sums = np.zeros((ties.size, n_classes))
        for tree, leaf in zip(forest.trees, leaves):
            dist_sums += tree._distribution[leaf[ties]]
        dist_sums[votes[:, ties].T < top[ties, None]] = -np.inf
        best[ties] = np.argmax(dist_sums, axis=1)
    return best


def read_json(path):
    """The JSON value in the file at path, read as UTF-8 with or without a
    byte-order mark; DataError naming the file unless it holds JSON text."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an int of over 4300 digits
            raise DataError(f"{path} is not UTF-8 JSON text: {exc}") from None


# A forest's part of a saved model: its classes, column names and tree
# arrays, no leaf members.

def read_key(obj: dict, key: str, kind, doc: str, items=None):
    """obj[key]; DataError naming the key unless obj holds it as a `kind`
    (a type or tuple of types), and, for a list, each item as an `items`."""
    if key not in obj:
        raise DataError(f"{doc} document lacks key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (
            items is not None and not all(isinstance(item, items) for item in value)):
        raise DataError(f"{doc} document key {key!r} holds a value of the wrong type")
    return value


def require_json_numbers(values: list, what: str, integers: bool = False):
    """DataError naming `what` unless each item of `values`, or of each list
    among them (a row), is a JSON number, or a JSON integer if `integers`;
    a bool is neither."""
    kind = int if integers else (int, float)
    cells = (c for row in values for c in (row if isinstance(row, list) else [row]))
    if not all(isinstance(c, kind) and not isinstance(c, bool) for c in cells):
        raise DataError(f"{what} holds a value that is not a JSON "
                        f"{'integer' if integers else 'number'}")


def _tree_from_obj(obj, n_classes: int, d: int) -> Tree:
    """A Tree from its document, DataError unless the thresholds are JSON
    numbers, the other arrays JSON integers (never bools) and the arrays
    form one tree."""
    arrays = {name: read_key(obj, name, list, "tree") for name in _TREE_ARRAYS}
    for name, values in arrays.items():
        require_json_numbers(values, f"tree array {name!r}", integers=name != "threshold")
    tree = _as_tree(arrays)
    s = tree.feature.shape[0]
    valid = (
        all(getattr(tree, name).shape == (s,) for name in ("threshold", "left", "right"))
        and tree.counts.shape == (s + 1, n_classes)
        and ((tree.feature >= 0) & (tree.feature < d)).all()
        and np.isfinite(tree.threshold).all()
        and (tree.counts >= 0).all() and (tree.counts.sum(axis=1) > 0).all()
        and tree._depth_first_sizes() is not None
    )
    if not valid:
        raise DataError("forest document holds a malformed tree")
    return tree


def forest_to_dict(forest: Forest) -> dict:
    return {
        "class_names": list(forest.class_names),
        "attributes": [a.name for a in forest.schema],
        "trees": [{name: getattr(tree, name).tolist() for name in _TREE_ARRAYS}
                  for tree in forest.trees],
    }


def forest_from_dict(obj: dict) -> Forest:
    """The forest of a `forest_to_dict` document; DataError on a missing or
    ill-typed key, a name listed twice, an empty tree list or a malformed
    tree, such as one whose split nodes or leaves are not each numbered
    depth first, left first (`Tree._depth_first_sizes`)."""
    names = {key: read_key(obj, key, list, "forest", items=str)
             for key in ("attributes", "class_names")}
    for key, listed in names.items():
        _require_distinct(listed, DataError, f"forest document key {key!r} lists")
    schema = tuple(AttributeSchema(name, NUMERIC) for name in names["attributes"])
    class_names = tuple(names["class_names"])
    documents = read_key(obj, "trees", list, "forest", items=dict)
    if not documents:
        raise DataError("forest document key 'trees' lists no trees")
    trees = [_tree_from_obj(t, len(class_names), len(schema)) for t in documents]
    return Forest(trees, schema, class_names)
