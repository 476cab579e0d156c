"""Leaf label distributions, centroids, and cross-domain pivot matching.

A leaf's signature is its label distribution (class frequencies of the
records in the leaf) plus a centroid row: per numeric attribute the member
mean plus the natural log of the sample standard deviation (the log term is
omitted for single-member leaves and zero spread), per categorical attribute
the mode. Signatures are deduplicated per domain and then matched one-to-one
across domains by Jensen-Shannon divergence; the matched rows are the pivots
that bridge the two feature spaces.

The stage runs as array code, without a Python loop per leaf or per pair:

- extract_distributions flattens every leaf's members into one index array
  with a segment id per leaf. Label distributions and categorical modes are
  bincounts over (leaf, label) and (leaf, category).
- dedup groups rows with np.unique over the rounded distributions,
  renumbered in order of first appearance.
- match_pivots renormalizes the shared-class rows once and evaluates the
  divergence matrix by broadcasting, block by block of source rows. The
  candidates below the threshold are ordered by (divergence, source row,
  target row) and matched greedily.

The results are bit-identical to evaluating each leaf, group and pair on its
own (the scalar jsd, col.mean(), col.std(ddof=1)); tests keep those loops
as the reference. Two rules keep them so. Means and spreads are summed per
bucket of segments with equal member counts, along a contiguous last axis,
so that every sum groups its terms as np.sum does for one segment;
np.add.reduceat would group them differently. Logarithms of the spreads use
math.log, which can differ from np.log in the last bit. The divergence sums
run the same way over each row's compressed support.

A temporary of the array code holds about BLOCK_ELEMENTS values at most
(more only when a single leaf's members times the attributes, or a single
source row of the divergence matrix, exceed that). Leaf members are gathered
from the records block by block, never all members times all attributes at
once, so that the stage adds little to the peak memory of a fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, Dataset
from .errors import DataError, EmptyDatasetError, MatchingError
from .forest import LeafRef

#: Rows whose distributions agree to this many decimals count as duplicates.
DEDUP_DECIMALS = 6
#: Elements in one temporary block of the array code (a gather of leaf
#: members, or a block of the divergence matrix); bounds its working memory.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class DistributionBundle:
    """Per-leaf label distribution matrix V, centroid matrix W, labels R."""

    V: np.ndarray
    W: np.ndarray
    R: np.ndarray
    schema: tuple
    class_names: tuple[str, ...]
    domain_tag: str

    def __post_init__(self):
        V = np.asarray(self.V, dtype=np.float64)
        if V.ndim != 2 or V.shape[0] < 1:
            raise DataError("V must be a non-empty [L, C] matrix")
        if V.shape[1] != len(self.class_names):
            raise DataError("V columns must match class_names")
        if (V < 0).any():
            raise DataError("V entries must be non-negative")
        if np.abs(V.sum(axis=1) - 1.0).max() > 1e-9:
            raise DataError("every V row must sum to 1")
        if not np.array_equal(np.asarray(self.R), np.argmax(V, axis=1)):
            raise DataError("R must be the argmax of each V row")
        if np.asarray(self.W).shape != (V.shape[0], len(self.schema)):
            raise DataError("W must be [L, d] for the bundle schema")

    @property
    def n_rows(self) -> int:
        return self.V.shape[0]

    def to_dict(self) -> dict:
        return {
            "domain": self.domain_tag,
            "class_names": list(self.class_names),
            "label_distributions": self.V.tolist(),
            "centroids": self.W.tolist(),
            "centroid_labels": self.R.tolist(),
        }


@dataclass(frozen=True, eq=False)
class PivotSet:
    """One-to-one matched (source row, target row) pairs below the threshold."""

    pairs: tuple[tuple[int, int, float], ...]
    Ws: np.ndarray
    Wt: np.ndarray
    Rs: np.ndarray
    Rt: np.ndarray
    Vs: np.ndarray
    Vt: np.ndarray
    source_classes: tuple[str, ...]
    target_classes: tuple[str, ...]
    shared_classes: tuple[str, ...]
    threshold: float

    @property
    def n_pivots(self) -> int:
        return len(self.pairs)

    @property
    def divergences(self) -> np.ndarray:
        return np.array([p[2] for p in self.pairs])

    def to_dict(self) -> dict:
        return {
            "n_pivots": self.n_pivots,
            "threshold": self.threshold,
            "shared_classes": list(self.shared_classes),
            "pairs": [
                {"source_row": i, "target_row": k, "divergence": d}
                for i, k, d in self.pairs
            ],
        }


def _segment_stats(X: np.ndarray, flat: np.ndarray, sizes: np.ndarray,
                   spread: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Column means, and with `spread` the ddof=1 standard deviations, of
    the X rows of every segment.

    Segment s holds the rows flat[start_s : start_s + sizes[s]], where the
    segments are laid out one after another. Segments are bucketed by size
    and gathered in blocks of at most BLOCK_ELEMENTS cells into an
    [attribute, segment, member] array, so every sum runs along a contiguous
    last axis exactly as np.sum runs over one segment's column. The spread
    of a single-member segment is 0.
    """
    n_seg, d = sizes.shape[0], X.shape[1]
    starts = np.cumsum(sizes) - sizes
    mean = np.empty((n_seg, d))
    std = np.zeros((n_seg, d)) if spread else None
    by_size = np.argsort(sizes, kind="stable")
    bounds = np.flatnonzero(np.diff(sizes[by_size])) + 1
    for segs in np.split(by_size, bounds):
        n = int(sizes[segs[0]])
        step = max(1, BLOCK_ELEMENTS // max(1, n * d))
        for lo in range(0, segs.shape[0], step):
            part = segs[lo:lo + step]
            rows = flat[starts[part, None] + np.arange(n)]
            block = np.ascontiguousarray(X[rows].transpose(2, 0, 1))
            block_mean = block.sum(axis=-1, keepdims=True) / n
            mean[part] = block_mean[..., 0].T
            if spread and n > 1:
                block -= block_mean
                np.square(block, out=block)
                std[part] = np.sqrt(block.sum(axis=-1) / (n - 1)).T
    return mean, std


def _modes(codes: np.ndarray, seg: np.ndarray, n_seg: int, n_categories: int) -> np.ndarray:
    """Most frequent category code per segment (ties -> lowest code)."""
    codes = codes.astype(np.int64)
    if codes.size:
        n_categories = max(n_categories, int(codes.max()) + 1)
    counts = np.bincount(seg * n_categories + codes, minlength=n_seg * n_categories)
    return np.argmax(counts.reshape(n_seg, n_categories), axis=1).astype(np.float64)


def extract_distributions(ds: Dataset, leaves: list[LeafRef]) -> DistributionBundle:
    """Label distribution, centroid and majority label for every leaf.

    Row i of the result describes leaves[i]; argmax ties go to the lowest
    class index.
    """
    if not leaves:
        raise EmptyDatasetError("no leaves to extract distributions from")
    L, C = len(leaves), len(ds.class_names)
    sizes = np.fromiter((len(leaf.members) for leaf in leaves), dtype=np.int64, count=L)
    if not sizes.all():
        leaf = leaves[int(np.argmin(sizes))]
        raise EmptyDatasetError(
            f"leaf {leaf.leaf_id} of tree {leaf.tree_index} has no members"
        )
    flat = np.fromiter(
        itertools.chain.from_iterable(leaf.members for leaf in leaves),
        dtype=np.int64, count=int(sizes.sum()),
    )
    seg = np.repeat(np.arange(L), sizes)
    counts = np.bincount(seg * C + ds.labels[flat], minlength=L * C).reshape(L, C)
    V = counts / counts.sum(axis=1, keepdims=True)
    W, std = _segment_stats(ds.records, flat, sizes, spread=True)
    for j, attr in enumerate(ds.schema):
        if attr.kind == CATEGORICAL:
            W[:, j] = _modes(ds.records[flat, j], seg, L, len(attr.categories))
            continue
        spread = std[:, j] != 0.0
        W[spread, j] += [math.log(s) for s in std[spread, j].tolist()]
    R = np.argmax(V, axis=1)
    return DistributionBundle(V, W, R, ds.schema, ds.class_names, ds.domain_tag)


def dedup(bundle: DistributionBundle) -> tuple[DistributionBundle, np.ndarray]:
    """Merge rows whose distributions agree after 6-decimal rounding.

    Merged rows are numbered in order of first appearance. Merged centroids
    average numeric attributes and take the mode of modes for categorical
    ones (ties -> lowest category index). Returns the merged bundle plus a
    row map from each input row to its merged row.
    """
    keys = np.round(bundle.V, DEDUP_DECIMALS)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.shape[0])
    row_map = renumber[inverse.reshape(-1)]
    n_groups = order.shape[0]
    members = np.argsort(row_map, kind="stable")
    W, _ = _segment_stats(bundle.W, members, np.bincount(row_map, minlength=n_groups),
                          spread=False)
    for j, attr in enumerate(bundle.schema):
        if attr.kind == CATEGORICAL:
            W[:, j] = _modes(bundle.W[:, j], row_map, n_groups, len(attr.categories))
    V = bundle.V[first[order]]
    merged_bundle = DistributionBundle(
        V, W, np.argmax(V, axis=1),
        bundle.schema, bundle.class_names, bundle.domain_tag,
    )
    return merged_bundle, row_map


def jsd(p, q) -> float:
    """Jensen-Shannon divergence with base-2 logarithms, in [0, 1].

    jsd(p, q) = KL(p || m)/2 + KL(q || m)/2 with m = (p + q)/2;
    0 * log 0 terms contribute nothing.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DataError("jsd needs two equal-length probability vectors")
    for v in (p, q):
        if (v < 0).any() or abs(v.sum() - 1.0) > 1e-9:
            raise DataError("jsd inputs must be probability distributions")
    m = (p + q) / 2.0
    total = 0.0
    for a in (p, q):
        nz = a > 0
        total += 0.5 * float(np.sum(a[nz] * np.log2(a[nz] / m[nz])))
    return min(max(total, 0.0), 1.0)


def _shared_rows(bundle: DistributionBundle,
                 shared: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows with mass on the shared classes, and those rows
    restricted to the shared classes and renormalized."""
    idx = [bundle.class_names.index(name) for name in shared]
    p = bundle.V[:, idx]
    total = p.sum(axis=1)
    rows = np.flatnonzero(total > 0)
    return rows, p[rows] / total[rows, None]


def _check_distributions(p: np.ndarray):
    """The check jsd makes on each input, for every row of p at once."""
    if (p < 0).any() or (np.abs(p.sum(axis=1) - 1.0) > 1e-9).any():
        raise DataError("jsd inputs must be probability distributions")


def _support_sums(terms: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Sum terms [r, t, C] over the last axis, taking for each row r only
    the columns of its support [r, C], in order: the same grouping as
    np.sum over the compressed vector."""
    out = np.empty(terms.shape[:2])
    counts = support.sum(axis=1)
    first = np.argsort(~support, axis=1, kind="stable")
    by_count = np.argsort(counts, kind="stable")
    for rows in np.split(by_count, np.flatnonzero(np.diff(counts[by_count])) + 1):
        cols = first[rows, None, :counts[rows[0]]]
        out[rows] = np.take_along_axis(terms[rows], cols, axis=2).sum(axis=-1)
    return out


def _jsd_block(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """jsd(p[i], q[k]) for every row pair, with the operations jsd uses."""
    pb, qb = p[:, None, :], q[None, :, :]
    m = (pb + qb) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        sp = np.where(pb > 0, pb * np.log2(pb / m), 0.0)
        sq = np.where(qb > 0, qb * np.log2(qb / m), 0.0)
    kl_p = _support_sums(sp, p > 0)
    kl_q = _support_sums(sq.transpose(1, 0, 2), q > 0).T
    return np.clip(0.5 * kl_p + 0.5 * kl_q, 0.0, 1.0)


def match_pivots(src: DistributionBundle, tgt: DistributionBundle,
                 threshold: float = 0.1) -> PivotSet:
    """Greedy one-to-one matching of deduplicated rows by ascending JSD.

    Distributions are compared over the intersection of the two class sets
    (renormalized); rows with no mass on shared classes cannot match. Only
    pairs with divergence strictly below the threshold are kept, and each
    source and target row is used at most once. Candidates are taken in
    order of (divergence, source row, target row).
    """
    shared = tuple(name for name in src.class_names if name in tgt.class_names)
    if not shared:
        raise MatchingError("source and target share no class labels")
    rows_s, ps = _shared_rows(src, shared)
    rows_t, pt = _shared_rows(tgt, shared)
    found = [(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
    if rows_s.size and rows_t.size:
        _check_distributions(ps)
        _check_distributions(pt)
        step = max(1, BLOCK_ELEMENTS // pt.size)
        for lo in range(0, ps.shape[0], step):
            div = _jsd_block(ps[lo:lo + step], pt)
            i, k = np.nonzero(div < threshold)
            found.append((div[i, k], rows_s[lo + i], rows_t[k]))
    div, i, k = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((k, i, div))
    limit = min(np.unique(i).size, np.unique(k).size)
    used_src, used_tgt = set(), set()
    pairs = []
    for s, t, d in zip(i[order].tolist(), k[order].tolist(), div[order].tolist()):
        if len(pairs) == limit:
            break
        if s in used_src or t in used_tgt:
            continue
        used_src.add(s)
        used_tgt.add(t)
        pairs.append((s, t, d))
    src_rows = [p[0] for p in pairs]
    tgt_rows = [p[1] for p in pairs]
    return PivotSet(
        pairs=tuple(pairs),
        Ws=src.W[src_rows] if pairs else np.empty((0, src.W.shape[1])),
        Wt=tgt.W[tgt_rows] if pairs else np.empty((0, tgt.W.shape[1])),
        Rs=src.R[src_rows] if pairs else np.empty(0, dtype=np.int64),
        Rt=tgt.R[tgt_rows] if pairs else np.empty(0, dtype=np.int64),
        Vs=src.V[src_rows] if pairs else np.empty((0, src.V.shape[1])),
        Vt=tgt.V[tgt_rows] if pairs else np.empty((0, tgt.V.shape[1])),
        source_classes=src.class_names,
        target_classes=tgt.class_names,
        shared_classes=shared,
        threshold=threshold,
    )
