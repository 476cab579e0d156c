"""Leaf label distributions, centroids, and cross-domain pivot matching.

A leaf's signature is its label distribution (class frequencies of the
records in the leaf) plus a centroid row: per attribute the member mean plus
the natural log of the sample standard deviation (the log term is omitted
for single-member leaves and zero spread). Attributes are numeric: the
pipeline one-hot encodes each categorical column first, so every 0/1
indicator gets a mean plus ln(std) too. Signatures are deduplicated per
domain and then matched one-to-one across domains by Jensen-Shannon
divergence; the matched rows are the pivots that bridge the two feature
spaces. A PivotSet names matched rows only; the deduplicated bundles keep
their centroids and distributions, and adaptation.stack_pivots reads them.

The stage runs as array code, without a Python loop per leaf or per pair:

- extract_distributions reads the forest's leaf table, whose flat member
  ids give a segment id per leaf. Label distributions are bincounts over
  (leaf, label).
- dedup groups rows with np.unique over the rounded distributions,
  renumbered in order of first appearance.
- match_pivots renormalizes the shared-class rows once and evaluates the
  divergence matrix by broadcasting, block by block of source rows. The
  candidates below the threshold are ordered by (divergence, source row,
  target row) and matched greedily.

The results are bit-identical to evaluating each leaf, group and pair on its
own (one pair's divergence, col.mean(), col.std(ddof=1)); tests keep those
loops as the reference. Two rules keep them so. Means and spreads are summed
per bucket of segments with equal member counts, along a contiguous last
axis, so that every sum groups its terms as np.sum does for one segment;
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

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, name_index, require_numeric
from .errors import DataError, EmptyDatasetError, MatchingError
from .forest import LeafTable

#: Rows whose distributions agree to this many decimals count as duplicates.
DEDUP_DECIMALS = 6
#: Elements in one temporary block of the array code (a gather of leaf
#: members, or a block of the divergence matrix); bounds its working memory.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class DistributionBundle:
    """Per-leaf label distribution matrix V and centroid matrix W."""

    V: np.ndarray
    W: np.ndarray
    schema: tuple
    class_names: tuple[str, ...]
    domain_tag: str

    def __post_init__(self):
        V = np.asarray(self.V, dtype=np.float64)
        W = np.asarray(self.W, dtype=np.float64)
        if V.ndim != 2 or V.shape[0] < 1:
            raise DataError("V must be a non-empty [L, C] matrix")
        if V.shape[1] != len(self.class_names):
            raise DataError("V columns must match class_names")
        if (V < 0).any():
            raise DataError("V entries must be non-negative")
        if np.abs(V.sum(axis=1) - 1.0).max() > 1e-9:
            raise DataError("every V row must sum to 1")
        if W.shape != (V.shape[0], len(self.schema)):
            raise DataError("W must be [L, d] for the bundle schema")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)

    @property
    def n_rows(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True, eq=False)
class PivotSet:
    """One-to-one matched (source row, target row, divergence) triples below
    the threshold; the rows index the two deduplicated bundles matched."""

    pairs: tuple[tuple[int, int, float], ...]
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
    of a single-member segment is 0, and a tiny one is recomputed
    (`_fix_small_spreads`).
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
    if spread:
        _fix_small_spreads(X, flat, starts, sizes, mean, std)
    return mean, std


def _fix_small_spreads(X, flat, starts, sizes, mean, std):
    """Recompute, in place, each spread whose squared deviations sum below
    the smallest normal float, where they lose precision or round to 0:
    on the deviations scaled by their largest magnitude.

    Such a spread is below 2^-511, and its segment holds a nonzero cell
    below 2^-400 in magnitude: among cells that are 0 or at least 2^-400
    in magnitude, the largest deviation from the mean is 0 or at least
    2^-453, whose square is a normal float.
    """
    small = std < 2.0 ** -511
    small[sizes < 2] = False
    if not small.any() or (np.count_nonzero((X > -2.0 ** -400) & (X < 2.0 ** -400))
                           == np.count_nonzero(X == 0)):
        return
    for s, j in zip(*np.nonzero(small)):
        deviations = X[flat[starts[s]:starts[s] + sizes[s]], j] - mean[s, j]
        scale = np.abs(deviations).max()
        if np.square(deviations).sum() < np.finfo(np.float64).tiny and scale > 0:
            std[s, j] = scale * np.sqrt(np.square(deviations / scale).sum() / (sizes[s] - 1))


def extract_distributions(ds: Dataset, leaves: LeafTable) -> DistributionBundle:
    """Label distribution and centroid for every leaf of a numeric dataset
    (SchemaError on a categorical column).

    Row i of the result describes leaf i of the table.
    """
    require_numeric(ds.schema, "extract_distributions")
    if not len(leaves):
        raise EmptyDatasetError("no leaves to extract distributions from")
    L, C = len(leaves), len(ds.class_names)
    sizes = leaves.sizes
    if not sizes.all():
        raise EmptyDatasetError(f"leaf {int(np.argmin(sizes))} of the table has no members")
    flat = leaves.members
    seg = np.repeat(np.arange(L), sizes)
    counts = np.bincount(seg * C + ds.labels[flat], minlength=L * C).reshape(L, C)
    V = counts / counts.sum(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        W, std = _segment_stats(ds.records, flat, sizes, spread=True)
        spread = std != 0.0
        W[spread] += [math.log(s) for s in std[spread].tolist()]
    _require_finite(W, ds.schema, ds.domain_tag, "a leaf centroid")
    return DistributionBundle(V, W, ds.schema, ds.class_names, ds.domain_tag)


def _require_finite(W: np.ndarray, schema, domain_tag: str, what: str):
    """DataError naming the first column of W that holds a non-finite value."""
    finite = np.isfinite(W).all(axis=0)
    if not finite.all():
        raise DataError(f"{domain_tag} column {schema[int(np.argmin(finite))].name!r}: "
                        f"{what} is not finite, as its cells overflow float64 sums")


def dedup(bundle: DistributionBundle) -> tuple[DistributionBundle, np.ndarray]:
    """Merge rows whose distributions agree after 6-decimal rounding.

    Merged rows are numbered in order of first appearance, and their
    centroids are averaged (DataError where a mean overflows). Returns the
    merged bundle plus a row map from each input row to its merged row.
    """
    keys = np.round(bundle.V, DEDUP_DECIMALS)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.shape[0])
    row_map = renumber[inverse.reshape(-1)]
    n_groups = order.shape[0]
    members = np.argsort(row_map, kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        W, _ = _segment_stats(bundle.W, members, np.bincount(row_map, minlength=n_groups),
                              spread=False)
    _require_finite(W, bundle.schema, bundle.domain_tag, "a merged leaf centroid")
    merged_bundle = DistributionBundle(
        bundle.V[first[order]], W, bundle.schema, bundle.class_names, bundle.domain_tag,
    )
    return merged_bundle, row_map


def _shared_rows(bundle: DistributionBundle,
                 shared: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows with mass on the shared classes, and those rows
    restricted to the shared classes and renormalized."""
    p = bundle.V[:, name_index(shared, bundle.class_names)]
    total = p.sum(axis=1)
    rows = np.flatnonzero(total > 0)
    return rows, p[rows] / total[rows, None]


def _check_distributions(p: np.ndarray):
    """DataError unless every row of p is a probability distribution."""
    if (p < 0).any() or (np.abs(p.sum(axis=1) - 1.0) > 1e-9).any():
        raise DataError("divergence inputs must be probability distributions")


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
    """Jensen-Shannon divergence of every row pair p[i], q[k], with base-2
    logarithms, clipped to [0, 1]: KL(p || m)/2 + KL(q || m)/2 with
    m = (p + q)/2, where 0 * log 0 terms contribute nothing."""
    pb, qb = p[:, None, :], q[None, :, :]
    m = (pb + qb) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        sp = np.where(pb > 0, pb * np.log2(pb / m), 0.0)
        sq = np.where(qb > 0, qb * np.log2(qb / m), 0.0)
    kl_p = _support_sums(sp, p > 0)
    kl_q = _support_sums(sq.transpose(1, 0, 2), q > 0).T
    return np.clip(0.5 * kl_p + 0.5 * kl_q, 0.0, 1.0)


def match_pivots(src: DistributionBundle, tgt: DistributionBundle,
                 threshold: float) -> PivotSet:
    """Greedy one-to-one matching of deduplicated rows by ascending JSD.

    Distributions are compared over the intersection of the two class sets
    (renormalized); rows with no mass on shared classes cannot match. Only
    pairs with divergence strictly below the threshold are kept, and each
    source and target row is used at most once. Candidates are taken in
    order of (divergence, source row, target row). The pipeline's threshold
    is TransferConfig.pivot_threshold.
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
    return PivotSet(tuple(pairs), shared, threshold)
