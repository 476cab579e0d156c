import math
import tracemalloc

import numpy as np
import pytest

from leafbridge import pivot
from leafbridge.dataset import CATEGORICAL, NUMERIC, AttributeSchema, Dataset
from leafbridge.errors import DataError, EmptyDatasetError, MatchingError
from leafbridge.forest import LeafRef, collect_leaves, train_forest
from leafbridge.pivot import (
    DistributionBundle,
    dedup,
    extract_distributions,
    jsd,
    match_pivots,
)
from conftest import numeric_dataset


def brute_force_jsd(p, q):
    """Direct evaluation of the definitional formula in plain Python."""
    m = [(a + b) / 2.0 for a, b in zip(p, q)]
    def kl(a, b):
        return sum(x * math.log2(x / y) for x, y in zip(a, b) if x > 0)
    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


# Reference implementations: one leaf, group or pair at a time. The array
# code in leafbridge.pivot must reproduce them bit for bit.

def _centroid_row(ds, members):
    row = np.empty(ds.d)
    sub = ds.records[members]
    for j, attr in enumerate(ds.schema):
        col = sub[:, j]
        if attr.kind == CATEGORICAL:
            counts = np.bincount(col.astype(np.int64), minlength=len(attr.categories))
            row[j] = float(np.argmax(counts))
        else:
            mean = col.mean()
            if col.shape[0] < 2:
                row[j] = mean
                continue
            std = col.std(ddof=1)
            row[j] = mean if std == 0.0 else mean + math.log(std)
    return row


def loop_extract_distributions(ds, leaves):
    C = len(ds.class_names)
    V = np.empty((len(leaves), C))
    W = np.empty((len(leaves), ds.d))
    for i, leaf in enumerate(leaves):
        members = np.asarray(leaf.members, dtype=np.int64)
        counts = np.bincount(ds.labels[members], minlength=C)
        V[i] = counts / counts.sum()
        W[i] = _centroid_row(ds, members)
    R = np.argmax(V, axis=1)
    return DistributionBundle(V, W, R, ds.schema, ds.class_names, ds.domain_tag)


def loop_dedup(bundle):
    keys = np.round(bundle.V, pivot.DEDUP_DECIMALS)
    groups, order = {}, []
    for i in range(bundle.n_rows):
        key = tuple(keys[i])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    row_map = np.empty(bundle.n_rows, dtype=np.int64)
    V_rows, W_rows = [], []
    for new_row, key in enumerate(order):
        rows = groups[key]
        row_map[rows] = new_row
        V_rows.append(bundle.V[rows[0]])
        merged = np.empty(len(bundle.schema))
        for j, attr in enumerate(bundle.schema):
            cells = bundle.W[rows, j]
            if attr.kind == CATEGORICAL:
                counts = np.bincount(cells.astype(np.int64), minlength=len(attr.categories))
                merged[j] = float(np.argmax(counts))
            else:
                merged[j] = cells.mean()
        W_rows.append(merged)
    V = np.array(V_rows)
    merged_bundle = DistributionBundle(
        V, np.array(W_rows), np.argmax(V, axis=1),
        bundle.schema, bundle.class_names, bundle.domain_tag,
    )
    return merged_bundle, row_map


def loop_match_pairs(src, tgt, threshold):
    shared = tuple(name for name in src.class_names if name in tgt.class_names)
    ps = src.V[:, [src.class_names.index(name) for name in shared]]
    pt = tgt.V[:, [tgt.class_names.index(name) for name in shared]]
    ssum = ps.sum(axis=1)
    tsum = pt.sum(axis=1)
    candidates = []
    for i in range(src.n_rows):
        if ssum[i] <= 0:
            continue
        pi = ps[i] / ssum[i]
        for k in range(tgt.n_rows):
            if tsum[k] <= 0:
                continue
            div = jsd(pi, pt[k] / tsum[k])
            if div < threshold:
                candidates.append((div, i, k))
    candidates.sort()
    used_src, used_tgt = set(), set()
    pairs = []
    for div, i, k in candidates:
        if i in used_src or k in used_tgt:
            continue
        used_src.add(i)
        used_tgt.add(k)
        pairs.append((i, k, div))
    return tuple(pairs)


def assert_same_bundle(got, want):
    for name in ("V", "W", "R"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name


def assert_matches_loops(ds, leaves, tgt_bundle=None, threshold=0.1):
    """extract -> dedup -> match equal the loop versions bit for bit."""
    got = extract_distributions(ds, leaves)
    want = loop_extract_distributions(ds, leaves)
    assert_same_bundle(got, want)
    merged, row_map = dedup(got)
    want_merged, want_map = loop_dedup(want)
    assert_same_bundle(merged, want_merged)
    assert row_map.dtype == want_map.dtype and np.array_equal(row_map, want_map)
    if tgt_bundle is not None:
        assert_same_pairs(merged, tgt_bundle, threshold)
    return merged


def assert_same_pairs(src, tgt, threshold):
    got = match_pivots(src, tgt, threshold).pairs
    want = loop_match_pairs(src, tgt, threshold)
    assert got == want
    for (i, k, d), (_, _, w) in zip(got, want):
        assert type(i) is int and type(k) is int and type(d) is float
        assert math.copysign(1.0, d) == math.copysign(1.0, w)
    return got


def random_leaves(rng, n, n_leaves, sizes):
    """Leaves of random members (drawn without repeats), one size each."""
    return [
        LeafRef(0, j, tuple(int(i) for i in rng.choice(n, size=int(s), replace=False)))
        for j, s in enumerate(rng.choice(sizes, size=n_leaves))
    ]


def mixed_dataset(rng, n, d_num, n_cat, n_classes, n_levels=3):
    """Numeric columns of mixed scale, categorical codes, random labels."""
    numeric = rng.normal(size=(n, d_num)) * 10.0 ** rng.integers(-3, 4, size=d_num)
    cats = rng.integers(0, n_levels, size=(n, n_cat)).astype(float)
    schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(d_num)) + tuple(
        AttributeSchema(f"g{j}", CATEGORICAL, tuple(f"v{v}" for v in range(n_levels)))
        for j in range(n_cat)
    )
    return Dataset(schema, np.hstack([numeric, cats]), rng.integers(0, n_classes, size=n),
                   tuple(f"c{c}" for c in range(n_classes)))


def make_bundle(V, W=None, domain_tag="source", class_names=None, kinds=None):
    V = np.asarray(V, dtype=np.float64)
    if W is None:
        W = np.zeros((V.shape[0], 1))
    W = np.asarray(W, dtype=np.float64)
    class_names = class_names or tuple(f"c{j}" for j in range(V.shape[1]))
    if kinds is None:
        schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(W.shape[1]))
    else:
        schema = tuple(
            AttributeSchema(f"f{j}", k, ("a", "b", "c") if k == CATEGORICAL else ())
            for j, k in enumerate(kinds)
        )
    return DistributionBundle(V, W, np.argmax(V, axis=1), schema, class_names, domain_tag)


class TestExtract:
    def test_counting_example(self):
        ds = numeric_dataset([[0.0], [0.0], [0.0]], [0, 0, 1])
        bundle = extract_distributions(ds, [LeafRef(0, 0, (0, 1, 2))])
        np.testing.assert_allclose(bundle.V[0], [2 / 3, 1 / 3])
        assert bundle.R[0] == 0

    def test_centroid_log_std(self):
        # mean 2, sample std 1, ln 1 = 0 -> centroid 2.0
        ds = numeric_dataset([[1.0], [2.0], [3.0]], [0, 0, 0], n_classes=1)
        bundle = extract_distributions(ds, [LeafRef(0, 0, (0, 1, 2))])
        assert bundle.W[0, 0] == pytest.approx(2.0)

    def test_centroid_zero_std_omits_log(self):
        ds = numeric_dataset([[5.0], [5.0]], [0, 0], n_classes=1)
        bundle = extract_distributions(ds, [LeafRef(0, 0, (0, 1))])
        assert bundle.W[0, 0] == pytest.approx(5.0)

    def test_centroid_single_member_omits_log(self):
        ds = numeric_dataset([[7.0]], [0], n_classes=1)
        bundle = extract_distributions(ds, [LeafRef(0, 0, (0,))])
        assert bundle.W[0, 0] == pytest.approx(7.0)

    def test_centroid_general_value(self):
        values = np.array([1.0, 4.0, 4.0, 7.0])
        ds = numeric_dataset(values[:, None], [0] * 4, n_classes=1)
        bundle = extract_distributions(ds, [LeafRef(0, 0, (0, 1, 2, 3))])
        expected = values.mean() + math.log(values.std(ddof=1))
        assert bundle.W[0, 0] == pytest.approx(expected)

    def test_categorical_centroid_mode(self):
        schema = (AttributeSchema("b", CATEGORICAL, ("x", "y")),)
        ds = Dataset(schema, [[0.0], [0.0], [1.0]], [0, 0, 0], ("p",))
        bundle = extract_distributions(ds, [LeafRef(0, 0, (0, 1, 2))])
        assert bundle.W[0, 0] == 0.0

    def test_majority_tie_lowest_class(self):
        ds = numeric_dataset([[0.0], [0.0]], [1, 0])
        bundle = extract_distributions(ds, [LeafRef(0, 0, (0, 1))])
        assert bundle.R[0] == 0

    def test_empty_leaf(self):
        ds = numeric_dataset([[0.0]], [0])
        with pytest.raises(EmptyDatasetError):
            extract_distributions(ds, [LeafRef(0, 0, ())])


class TestDedup:
    def test_average_centroids(self):
        bundle = make_bundle([[0.5, 0.5], [0.5, 0.5]], W=[[2.0], [4.0]])
        merged, row_map = dedup(bundle)
        assert merged.n_rows == 1
        assert merged.W[0, 0] == pytest.approx(3.0)
        np.testing.assert_array_equal(row_map, [0, 0])

    def test_distinct_rows_unchanged(self):
        bundle = make_bundle([[0.5, 0.5], [0.25, 0.75]], W=[[1.0], [2.0]])
        merged, row_map = dedup(bundle)
        assert merged.n_rows == 2
        np.testing.assert_array_equal(merged.V, bundle.V)
        np.testing.assert_array_equal(row_map, [0, 1])

    def test_mode_of_modes(self):
        bundle = make_bundle(
            [[0.5, 0.5]] * 3, W=[[0.0], [0.0], [1.0]], kinds=[CATEGORICAL],
        )
        merged, _ = dedup(bundle)
        assert merged.W[0, 0] == 0.0

    def test_rounding_tolerance(self):
        v = 1 / 3
        bundle = make_bundle([[v, 1 - v], [v + 1e-9, 1 - v - 1e-9]], W=[[0.0], [2.0]])
        merged, _ = dedup(bundle)
        assert merged.n_rows == 1

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            L, C = int(rng.integers(1, 8)), int(rng.integers(2, 4))
            raw = rng.integers(0, 3, size=(L, C)).astype(float) + 0.25
            V = raw / raw.sum(axis=1, keepdims=True)
            bundle = make_bundle(V, W=rng.normal(size=(L, 2)))
            once, _ = dedup(bundle)
            twice, row_map = dedup(once)
            assert twice.n_rows == once.n_rows
            np.testing.assert_array_equal(twice.V, once.V)
            np.testing.assert_array_equal(twice.W, once.W)
            np.testing.assert_array_equal(row_map, np.arange(once.n_rows))


class TestJsd:
    def test_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
            assert jsd(p, p) == 0.0

    def test_disjoint_support_is_one(self):
        assert jsd((1.0, 0.0), (0.0, 1.0)) == 1.0

    def test_hand_value(self):
        assert jsd((0.5, 0.5), (0.25, 0.75)) == pytest.approx(0.048795, abs=1e-6)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            c = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(c))
            q = rng.dirichlet(np.ones(c))
            d1, d2 = jsd(p, q), jsd(q, p)
            assert d1 == d2
            assert 0.0 <= d1 <= 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            c = int(rng.integers(2, 11))
            p = rng.dirichlet(np.ones(c))
            q = rng.dirichlet(np.ones(c))
            assert jsd(p, q) == pytest.approx(brute_force_jsd(p, q), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            jsd((1.0, 0.0), (0.3, 0.3, 0.4))

    def test_non_distribution(self):
        with pytest.raises(DataError):
            jsd((0.9, 0.3), (0.5, 0.5))
        with pytest.raises(DataError):
            jsd((-0.1, 1.1), (0.5, 0.5))


class TestMatchPivots:
    def test_identical_single_rows(self):
        src = make_bundle([[0.5, 0.5]], domain_tag="source")
        tgt = make_bundle([[0.5, 0.5]], domain_tag="target")
        pivots = match_pivots(src, tgt, 0.1)
        assert pivots.n_pivots == 1
        assert pivots.pairs[0][2] == 0.0

    def test_threshold_filters(self):
        # divergences 0.048795 (< 0.1) and 0.311278 (>= 0.1)
        src = make_bundle([[0.5, 0.5], [1.0, 0.0]])
        tgt = make_bundle([[0.25, 0.75]], domain_tag="target")
        pivots = match_pivots(src, tgt, 0.1)
        assert pivots.n_pivots == 1
        assert pivots.pairs[0][0] == 0

    def test_greedy_one_to_one(self):
        # both source rows match the single target row; the closer one wins
        src = make_bundle([[0.5, 0.5], [0.52, 0.48]])
        tgt = make_bundle([[0.5, 0.5]], domain_tag="target")
        pivots = match_pivots(src, tgt, 0.1)
        assert pivots.n_pivots == 1
        assert pivots.pairs[0][:2] == (0, 0)

    def test_one_to_one_no_reuse(self):
        rng = np.random.default_rng(4)
        V_s = rng.dirichlet(np.ones(3), size=12)
        V_t = rng.dirichlet(np.ones(3), size=9)
        pivots = match_pivots(make_bundle(V_s), make_bundle(V_t, domain_tag="target"), 0.5)
        src_rows = [p[0] for p in pivots.pairs]
        tgt_rows = [p[1] for p in pivots.pairs]
        assert len(set(src_rows)) == len(src_rows)
        assert len(set(tgt_rows)) == len(tgt_rows)
        assert all(p[2] < 0.5 for p in pivots.pairs)

    def test_shared_subset_renormalized(self):
        # only class "b" is shared; every row renormalizes to (1.0,) on it
        src = make_bundle([[0.6, 0.4]], class_names=("a", "b"))
        tgt = make_bundle([[0.3, 0.7]], class_names=("b", "z"), domain_tag="target")
        pivots = match_pivots(src, tgt, 0.1)
        assert pivots.shared_classes == ("b",)
        assert pivots.n_pivots == 1

    def test_disjoint_label_sets(self):
        src = make_bundle([[1.0]], class_names=("a",))
        tgt = make_bundle([[1.0]], class_names=("b",), domain_tag="target")
        with pytest.raises(MatchingError):
            match_pivots(src, tgt, 0.1)

    def test_zero_shared_mass_rows_never_match(self):
        src = make_bundle([[1.0, 0.0], [0.0, 1.0]], class_names=("only_src", "shared"))
        tgt = make_bundle([[1.0]], class_names=("shared",), domain_tag="target")
        pivots = match_pivots(src, tgt, 0.5)
        assert [p[0] for p in pivots.pairs] == [1]


class TestArrayMatchesLoops:
    """The array code against the loop references, bit for bit."""

    def test_random_bundles(self):
        rng = np.random.default_rng(10)
        for trial in range(30):
            n_classes = int(rng.integers(2, 12))
            ds = mixed_dataset(rng, 200, int(rng.integers(1, 5)), int(rng.integers(0, 3)),
                               n_classes)
            leaves = random_leaves(rng, ds.n, int(rng.integers(1, 60)), np.arange(1, 30))
            tgt = make_bundle(rng.dirichlet(np.ones(n_classes) * 0.5, size=25),
                              domain_tag="target",
                              class_names=ds.class_names)
            assert_matches_loops(ds, leaves, tgt, threshold=float(rng.uniform(0.05, 0.6)))

    def test_forest_leaves(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(600, 5))
        y = (X[:, 0] + rng.normal(size=600) > 0).astype(int) + (X[:, 1] > 1)
        src = numeric_dataset(X, y)
        tgt = numeric_dataset(X[:300] * 2.0 + 1.0, y[:300], domain_tag="target")
        tgt_bundle = assert_matches_loops(tgt, collect_leaves(train_forest(tgt, 4, 5, 1)))
        merged = assert_matches_loops(src, collect_leaves(train_forest(src, 4, 5, 0)),
                                      tgt_bundle)
        assert merged.n_rows > 1

    def test_leaves_of_many_sizes(self):
        rng = np.random.default_rng(12)
        ds = mixed_dataset(rng, 400, 3, 1, 3)
        leaves = random_leaves(rng, ds.n, 300, np.arange(1, 120))
        assert len({len(leaf.members) for leaf in leaves}) > 80
        assert_matches_loops(ds, leaves)

    def test_single_member_and_zero_spread(self):
        records = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [7.0, -2.0], [0.0, 0.0]])
        ds = numeric_dataset(records, [0, 1, 0, 1, 0])
        leaves = [LeafRef(0, 0, (3,)), LeafRef(0, 1, (0, 1, 2)), LeafRef(0, 2, (4,)),
                  LeafRef(0, 3, (1, 1)), LeafRef(0, 4, (0, 4))]
        bundle = extract_distributions(ds, leaves)
        assert bundle.W[0].tolist() == [7.0, -2.0]
        assert bundle.W[3].tolist() == [2.0, 5.0]
        assert_matches_loops(ds, leaves)

    def test_categorical_mode_ties(self):
        schema = (AttributeSchema("b", CATEGORICAL, ("x", "y", "z")),)
        ds = Dataset(schema, [[2.0], [1.0], [1.0], [2.0], [0.0]], [0, 0, 1, 1, 0], ("p", "q"))
        leaves = [LeafRef(0, 0, (0, 1)), LeafRef(0, 1, (2, 3)), LeafRef(0, 2, (0, 4)),
                  LeafRef(0, 3, (0, 1, 2, 3))]
        bundle = extract_distributions(ds, leaves)
        assert bundle.W[:, 0].tolist() == [1.0, 1.0, 0.0, 1.0]
        merged = assert_matches_loops(ds, leaves)
        # rows 1 and 3 share the distribution (0.5, 0.5) and tie on modes 1 vs 1
        assert merged.n_rows == 3

    def test_dedup_mode_of_modes_tie(self):
        bundle = make_bundle([[0.5, 0.5]] * 4, W=[[2.0], [0.0], [0.0], [2.0]],
                             kinds=[CATEGORICAL])
        merged, _ = dedup(bundle)
        want, _ = loop_dedup(bundle)
        assert merged.W[0, 0] == want.W[0, 0] == 0.0

    def test_dedup_groups_renumbered_by_first_appearance(self):
        rng = np.random.default_rng(13)
        rows = np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5], [0.0, 1.0]])
        pick = rng.integers(0, 4, size=200)
        bundle = make_bundle(rows[pick], W=rng.normal(size=(200, 3)) * 1e3)
        merged, row_map = dedup(bundle)
        want, want_map = loop_dedup(bundle)
        assert_same_bundle(merged, want)
        np.testing.assert_array_equal(row_map, want_map)
        assert row_map[0] == 0

    def test_no_shared_mass_and_partial_overlap(self):
        rng = np.random.default_rng(14)
        V_s = rng.dirichlet(np.ones(5), size=40)
        V_s[::4] = [0.0, 0.0, 0.0, 0.3, 0.7]  # no mass on the shared classes
        V_t = rng.dirichlet(np.ones(4), size=30)
        V_t[::5] = [0.0, 0.0, 0.0, 1.0]
        src = make_bundle(V_s, class_names=("a", "b", "c", "s1", "s2"))
        tgt = make_bundle(V_t, class_names=("c", "b", "a", "t1"), domain_tag="target")
        pairs = assert_same_pairs(src, tgt, 0.3)
        assert pairs and all(i % 4 and k % 5 for i, k, _ in pairs)

    def test_many_shared_classes(self):
        # supports of 8+ classes exercise the grouped sums of np.sum
        rng = np.random.default_rng(15)
        V_s, V_t = (rng.dirichlet(np.ones(13), size=size) for size in (60, 50))
        for V in (V_s, V_t):
            V[rng.random(V.shape) < 0.3] = 0.0
            V[:, 0] += 1e-3
            V /= V.sum(axis=1, keepdims=True)
        pairs = assert_same_pairs(make_bundle(V_s), make_bundle(V_t, domain_tag="target"), 0.2)
        assert pairs

    def test_duplicate_divergences_tie_order(self):
        # every divergence appears many times; ties go to (source, target) order
        V_s = np.array([[0.5, 0.5], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25]] * 3)
        V_t = np.array([[0.75, 0.25], [0.5, 0.5], [0.25, 0.75], [0.5, 0.5]] * 2)
        src = make_bundle(V_s)
        tgt = make_bundle(V_t, domain_tag="target")
        pairs = assert_same_pairs(src, tgt, 0.5)
        assert pairs[0][:2] == (0, 1)
        assert len({d for _, _, d in pairs}) < len(pairs)

    def test_divergence_at_threshold_excluded(self):
        src = make_bundle([[0.5, 0.5], [1.0, 0.0]])
        tgt = make_bundle([[0.25, 0.75], [0.5, 0.5]], domain_tag="target")
        at = jsd((0.5, 0.5), (0.25, 0.75))
        pairs = assert_same_pairs(src, tgt, at)
        assert [p[:2] for p in pairs] == [(0, 1)]
        pairs = assert_same_pairs(src, tgt, np.nextafter(at, 1.0))
        assert len(pairs) == 1

    def test_block_boundaries(self, monkeypatch):
        monkeypatch.setattr(pivot, "BLOCK_ELEMENTS", 7)
        rng = np.random.default_rng(16)
        ds = mixed_dataset(rng, 300, 4, 1, 4)
        leaves = random_leaves(rng, ds.n, 120, [1, 2, 3, 5, 9, 17])
        tgt = make_bundle(rng.dirichlet(np.ones(4), size=23), domain_tag="target",
                          class_names=ds.class_names)
        assert_matches_loops(ds, leaves, tgt, threshold=0.4)


class TestMemory:
    """Working memory stays bounded by the block size, not the input."""

    BOUND = 5 * 2**20

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_match_pivots_peak(self):
        rng = np.random.default_rng(17)
        src = make_bundle(rng.dirichlet(np.ones(3), size=3000))
        tgt = make_bundle(rng.dirichlet(np.ones(3), size=800), domain_tag="target")
        peak = self.peak_bytes(match_pivots, src, tgt, 0.002)
        assert peak < self.BOUND

    def test_extract_distributions_peak(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(12000, 40))
        ds = numeric_dataset(X, (X[:, :3].sum(axis=1) > 0).astype(int))
        leaves = collect_leaves(train_forest(ds, 10, 50, 0))
        peak = self.peak_bytes(extract_distributions, ds, leaves)
        assert peak < self.BOUND
