import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafbridge import pivot
from leafbridge.adaptation import stack_pivots
from leafbridge.dataset import CATEGORICAL, NUMERIC, AttributeSchema, Dataset, one_hot_encode
from leafbridge.errors import DataError, EmptyDatasetError, MatchingError, SchemaError
from leafbridge.forest import LeafTable, collect_leaves, train_forest
from leafbridge.pivot import (
    DistributionBundle,
    dedup,
    extract_distributions,
    match_pivots,
)
from conftest import drawn_matrix, drawn_rng, numeric_dataset


def brute_force_jsd(p, q):
    """Direct evaluation of the definitional formula in plain Python."""
    m = [(a + b) / 2.0 for a, b in zip(p, q)]
    def kl(a, b):
        return sum(x * math.log2(x / y) for x, y in zip(a, b) if x > 0)
    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


# Reference implementations: one leaf, group or pair at a time. The array
# code in leafbridge.pivot must reproduce them bit for bit.

def jsd(p, q) -> float:
    """Jensen-Shannon divergence of one pair, with base-2 logarithms, in
    [0, 1]: KL(p || m)/2 + KL(q || m)/2 with m = (p + q)/2; 0 * log 0 terms
    contribute nothing."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = (p + q) / 2.0
    total = 0.0
    for a in (p, q):
        nz = a > 0
        total += 0.5 * float(np.sum(a[nz] * np.log2(a[nz] / m[nz])))
    return min(max(total, 0.0), 1.0)


def block_jsd(p, q) -> float:
    """The divergence match_pivots evaluates (`pivot._jsd_block`), for one
    pair."""
    return float(pivot._jsd_block(np.array([p], dtype=np.float64),
                                  np.array([q], dtype=np.float64))[0, 0])


def leaf_table(member_lists):
    """A LeafTable holding the given members per leaf."""
    sizes = [len(m) for m in member_lists]
    members = np.array([i for m in member_lists for i in m], dtype=np.intp)
    return LeafTable(members, np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64))


def _centroid_row(ds, members):
    row = np.empty(ds.d)
    sub = ds.records[members]
    for j in range(ds.d):
        col = sub[:, j]
        mean = col.mean()
        if col.shape[0] < 2:
            row[j] = mean
            continue
        std = col.std(ddof=1)
        deviations = col - mean
        if np.square(deviations).sum() < np.finfo(np.float64).tiny and deviations.any():
            # the squares lose precision or underflow: scale them first
            scale = np.abs(deviations).max()
            std = scale * math.sqrt(np.square(deviations / scale).sum() / (col.shape[0] - 1))
        row[j] = mean if std == 0.0 else mean + math.log(std)
    return row


def loop_extract_distributions(ds, leaves):
    C = len(ds.class_names)
    V = np.empty((len(leaves), C))
    W = np.empty((len(leaves), ds.d))
    for i in range(len(leaves)):
        members = leaves.members[leaves.offsets[i]:leaves.offsets[i + 1]]
        counts = np.bincount(ds.labels[members], minlength=C)
        V[i] = counts / counts.sum()
        W[i] = _centroid_row(ds, members)
    if not np.isfinite(W).all():  # a bundle's centroids are finite
        return None
    return DistributionBundle(V, W, ds.schema, ds.class_names, ds.domain_tag)


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
        W_rows.append(np.array([bundle.W[rows, j].mean() for j in range(len(bundle.schema))]))
    if not np.isfinite(W_rows).all():  # a bundle's centroids are finite
        return None, row_map
    merged_bundle = DistributionBundle(
        np.array(V_rows), np.array(W_rows), bundle.schema, bundle.class_names, bundle.domain_tag,
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
    for name in ("V", "W"):
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
    return leaf_table([rng.choice(n, size=int(s), replace=False)
                       for s in rng.choice(sizes, size=n_leaves)])


def mixed_dataset(rng, n, d_num, n_cat, n_classes, n_levels=3):
    """Numeric columns of mixed scale and the one-hot encoding of
    categorical codes, random labels."""
    numeric = rng.normal(size=(n, d_num)) * 10.0 ** rng.integers(-3, 4, size=d_num)
    cats = rng.integers(0, n_levels, size=(n, n_cat)).astype(float)
    schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(d_num)) + tuple(
        AttributeSchema(f"g{j}", CATEGORICAL, tuple(f"v{v}" for v in range(n_levels)))
        for j in range(n_cat)
    )
    return one_hot_encode(Dataset(schema, np.hstack([numeric, cats]),
                                  rng.integers(0, n_classes, size=n),
                                  tuple(f"c{c}" for c in range(n_classes))))


def make_bundle(V, W=None, domain_tag="source", class_names=None):
    V = np.asarray(V, dtype=np.float64)
    if W is None:
        W = np.zeros((V.shape[0], 1))
    W = np.asarray(W, dtype=np.float64)
    class_names = class_names or tuple(f"c{j}" for j in range(V.shape[1]))
    schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(W.shape[1]))
    return DistributionBundle(V, W, schema, class_names, domain_tag)


class TestBundle:
    def test_list_inputs_stored_as_arrays(self):
        schema = (AttributeSchema("f0", NUMERIC),)
        bundle = DistributionBundle([[0.5, 0.5], [1.0, 0.0]], [[1.0], [2.0]], schema,
                                    ("a", "b"), "source")
        assert bundle.V.dtype == np.float64 and bundle.W.dtype == np.float64
        pivots = match_pivots(bundle, bundle, 0.1)
        assert [p[:2] for p in pivots.pairs] == [(0, 0), (1, 1)]
        merged, row_map = dedup(bundle)
        np.testing.assert_array_equal(merged.W, [[1.0], [2.0]])
        np.testing.assert_array_equal(row_map, [0, 1])

    def test_rows_that_are_not_distributions_rejected(self):
        # the bundle is the one check that match_pivots' divergence inputs
        # are distributions: the shared-class rows it renormalizes come from V
        with pytest.raises(DataError, match="^V entries must be non-negative$"):
            make_bundle([[0.5, 0.5], [-0.1, 1.1]])
        with pytest.raises(DataError, match="^every V row must sum to 1$"):
            make_bundle([[0.5, 0.5], [0.9, 0.3]])

    @pytest.mark.parametrize("matrix", ["V", "W"])
    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_rejected(self, matrix, cell):
        V, W = np.array([[0.5, 0.5], [1.0, 0.0]]), np.zeros((2, 3))
        {"V": V, "W": W}[matrix][1, 0] = cell
        with pytest.raises(DataError, match=f"^{matrix} entries must be finite$"):
            make_bundle(V, W)
        if matrix == "V":  # no sign or sum check rejects a row of NaN
            with pytest.raises(DataError, match="^V entries must be finite$"):
                make_bundle([[cell, cell]])


class TestExtract:
    def test_counting_example(self):
        ds = numeric_dataset([[0.0], [0.0], [0.0]], [0, 0, 1])
        bundle = extract_distributions(ds, leaf_table([(0, 1, 2)]))
        np.testing.assert_allclose(bundle.V[0], [2 / 3, 1 / 3])

    def test_centroid_log_std(self):
        # mean 2, sample std 1, ln 1 = 0 -> centroid 2.0
        ds = numeric_dataset([[1.0], [2.0], [3.0]], [0, 0, 0], n_classes=1)
        bundle = extract_distributions(ds, leaf_table([(0, 1, 2)]))
        assert bundle.W[0, 0] == pytest.approx(2.0)

    def test_centroid_zero_std_omits_log(self):
        ds = numeric_dataset([[5.0], [5.0]], [0, 0], n_classes=1)
        bundle = extract_distributions(ds, leaf_table([(0, 1)]))
        assert bundle.W[0, 0] == pytest.approx(5.0)

    def test_centroid_single_member_omits_log(self):
        ds = numeric_dataset([[7.0]], [0], n_classes=1)
        bundle = extract_distributions(ds, leaf_table([(0,)]))
        assert bundle.W[0, 0] == pytest.approx(7.0)

    def test_centroid_general_value(self):
        values = np.array([1.0, 4.0, 4.0, 7.0])
        ds = numeric_dataset(values[:, None], [0] * 4, n_classes=1)
        bundle = extract_distributions(ds, leaf_table([(0, 1, 2, 3)]))
        expected = values.mean() + math.log(values.std(ddof=1))
        assert bundle.W[0, 0] == pytest.approx(expected)

    def test_tiny_spread_keeps_its_log(self):
        # 0 and 1e-300: the squared deviations (5e-301)^2 underflow to 0, but
        # the sample std is 7.07e-301; 0 and 1e-150 never underflowed
        ds = numeric_dataset([[0.0, 0.0], [1e-300, 1e-150], [3.0, 3.0], [3.0, 3.0]],
                             [0, 0, 0, 0], n_classes=1)
        leaves = leaf_table([(0, 1), (2, 3)])
        bundle = extract_distributions(ds, leaves)
        std = math.sqrt(2) * 5e-301
        assert std == pytest.approx(7.0710678e-301)
        assert bundle.W[0, 0] == pytest.approx(5e-301 + math.log(std), rel=1e-15)
        assert bundle.W[0, 0] == pytest.approx(-691.1, abs=0.05)
        assert bundle.W[0, 1] == 5e-151 + math.log(np.std([0.0, 1e-150], ddof=1))
        assert bundle.W[1].tolist() == [3.0, 3.0]
        assert_same_bundle(bundle, loop_extract_distributions(ds, leaves))

    def test_one_hot_indicator_centroid(self):
        # an indicator column is numeric: its mean plus ln of its spread
        schema = (AttributeSchema("b", CATEGORICAL, ("x", "y")),)
        ds = one_hot_encode(Dataset(schema, [[0.0], [0.0], [1.0]], [0, 0, 0], ("p",)))
        bundle = extract_distributions(ds, leaf_table([(0, 1, 2)]))
        indicator = np.array([1.0, 1.0, 0.0])
        assert bundle.W[0, 0] == pytest.approx(2 / 3 + math.log(indicator.std(ddof=1)))
        assert bundle.W[0, 0] == pytest.approx(2 / 3 + 0.5 * math.log(1 / 3))

    def test_raw_categorical_column_rejected(self):
        schema = (AttributeSchema("a", NUMERIC), AttributeSchema("b", CATEGORICAL, ("x", "y")))
        ds = Dataset(schema, [[0.0, 0.0], [1.0, 1.0]], [0, 0], ("p",))
        with pytest.raises(SchemaError, match="'b' is categorical.*one_hot_encode"):
            extract_distributions(ds, leaf_table([(0, 1)]))

    def test_majority_tie_lowest_class(self):
        # a leaf's label is read where the pivots are stacked: the first
        # maximum of its distribution
        ds = numeric_dataset([[0.0], [0.0]], [1, 0])
        bundle = extract_distributions(ds, leaf_table([(0, 1)]))
        stacked = stack_pivots(match_pivots(bundle, bundle, 0.1), bundle, bundle)
        np.testing.assert_array_equal(stacked.labels, [0, 0])

    def test_empty_leaf(self):
        ds = numeric_dataset([[0.0]], [0])
        with pytest.raises(EmptyDatasetError):
            extract_distributions(ds, leaf_table([()]))


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

    def test_overflowing_mean_is_data_error(self):
        # two finite centroids whose sum overflows float64
        bundle = make_bundle([[1.0], [1.0]], W=[[1e308], [1.6e308]])
        with pytest.raises(DataError, match="^source column 'f0': a merged leaf centroid is "
                                            "not finite"):
            dedup(bundle)

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
    """The divergence block of match_pivots, one pair at a time, against
    the scalar reference and the definition."""

    def test_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
            assert block_jsd(p, p) == 0.0

    def test_disjoint_support_is_one(self):
        assert block_jsd((1.0, 0.0), (0.0, 1.0)) == 1.0

    def test_hand_value(self):
        assert block_jsd((0.5, 0.5), (0.25, 0.75)) == pytest.approx(0.048795, abs=1e-6)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            c = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(c))
            q = rng.dirichlet(np.ones(c))
            d1, d2 = block_jsd(p, q), block_jsd(q, p)
            assert d1 == d2
            assert 0.0 <= d1 <= 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            c = int(rng.integers(2, 11))
            p = rng.dirichlet(np.ones(c))
            q = rng.dirichlet(np.ones(c))
            assert jsd(p, q) == pytest.approx(brute_force_jsd(p, q), abs=1e-12)
            assert block_jsd(p, q) == jsd(p, q)



def _distribution_rows(n_rows, n_classes):
    """Rows of small counts, zero entries included, normalized; no row is
    all zeros."""
    counts = st.lists(st.integers(0, 3), min_size=n_classes, max_size=n_classes).filter(any)
    return st.lists(counts, min_size=1, max_size=n_rows).map(
        lambda rows: [[c / sum(row) for c in row] for row in rows])


@st.composite
def _bundle_pair(draw):
    n_classes = draw(st.integers(2, 8))
    V_s = draw(_distribution_rows(6, n_classes))
    V_t = draw(_distribution_rows(6, n_classes))
    threshold = draw(st.sampled_from([0.05, 0.2, 0.5, float(np.nextafter(1.0, 2.0))]))
    return make_bundle(V_s), make_bundle(V_t, domain_tag="target"), threshold


@settings(max_examples=200)
@given(pair=_bundle_pair())
def test_match_pivots_divergences_match_scalar_jsd(pair):
    """Every divergence of the block match_pivots evaluates equals the
    scalar reference bit for bit, and so do the matched pairs."""
    src, tgt, threshold = pair
    div = pivot._jsd_block(src.V, tgt.V)
    want = np.array([[jsd(p, q) for q in tgt.V] for p in src.V])
    assert div.tobytes() == want.tobytes()
    assert_same_pairs(src, tgt, threshold)


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
        assert np.unique(leaves.sizes).size > 80
        assert_matches_loops(ds, leaves)

    def test_single_member_and_zero_spread(self):
        records = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [7.0, -2.0], [0.0, 0.0]])
        ds = numeric_dataset(records, [0, 1, 0, 1, 0])
        leaves = leaf_table([(3,), (0, 1, 2), (4,), (1, 1), (0, 4)])
        bundle = extract_distributions(ds, leaves)
        assert bundle.W[0].tolist() == [7.0, -2.0]
        assert bundle.W[3].tolist() == [2.0, 5.0]
        assert_matches_loops(ds, leaves)

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


#: Class counts of drawn cases; numpy sums 8 or more values pairwise.
N_CLASSES = st.sampled_from((1, 2, 3, 7, 8, 9, 12))


@st.composite
def leaf_cases(draw):
    """A numeric dataset of a drawn matrix and 1-12 classes (some unused),
    and leaves of distinct ascending members that may share members."""
    rng = drawn_rng(draw)
    n, d, n_classes = draw(st.integers(1, 24)), draw(st.integers(1, 4)), draw(N_CLASSES)
    ds = numeric_dataset(drawn_matrix(draw, rng, n, d), rng.integers(0, n_classes, n),
                         n_classes=n_classes)
    return ds, leaf_table([np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
                           for _ in range(draw(st.integers(1, 12)))])


@settings(max_examples=150)
@given(case=leaf_cases())
def test_extract_and_dedup_match_loops_on_drawn_leaves(case):
    ds, leaves = case
    with np.errstate(all="ignore"):
        want = loop_extract_distributions(ds, leaves)
    if want is None:
        with pytest.raises(DataError, match="a leaf centroid is not finite"):
            extract_distributions(ds, leaves)
        return
    got = extract_distributions(ds, leaves)
    assert_same_bundle(got, want)
    assert_dedup_matches_loop(got)


def assert_dedup_matches_loop(bundle):
    """dedup equals loop_dedup bit for bit, or raises where a loop mean
    overflows."""
    with np.errstate(all="ignore"):
        want, want_map = loop_dedup(bundle)
    if want is None:
        with pytest.raises(DataError, match="a merged leaf centroid is not finite"):
            dedup(bundle)
        return
    merged, row_map = dedup(bundle)
    assert_same_bundle(merged, want)
    assert row_map.dtype == want_map.dtype and np.array_equal(row_map, want_map)


@st.composite
def drawn_bundles(draw):
    """Bundles of 1-12 classes whose rows repeat a few distributions, some
    moved within dedup's rounding, and whose centroids are a drawn matrix."""
    rng = drawn_rng(draw)
    n_classes, n_rows, d = draw(N_CLASSES), draw(st.integers(1, 30)), draw(st.integers(1, 3))
    counts = rng.integers(0, 4, size=(draw(st.integers(1, 4)), n_classes))
    counts[:, 0] += counts.sum(axis=1) == 0
    V = (counts / counts.sum(axis=1, keepdims=True))[rng.integers(0, counts.shape[0], n_rows)]
    V[:, 0] += rng.choice([0.0, 3e-10, -2e-10], size=n_rows) * (V[:, 0] > 1e-6)
    return make_bundle(V, W=drawn_matrix(draw, rng, n_rows, d))


@settings(max_examples=150)
@given(bundle=drawn_bundles())
def test_dedup_matches_loop_on_drawn_bundles(bundle):
    assert_dedup_matches_loop(bundle)


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
