import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from leafbridge.adaptation import (
    StackedPivots,
    _cosine_matrix,
    build_kernel,
    build_laplacian,
    build_mmd_matrix,
    build_projection,
    compute_mu,
    laplacian_from_affinity,
    mu_from_distances,
    proxy_a_distance,
    stack_pivots,
)
from leafbridge.errors import BandwidthError, DataError
from leafbridge.pivot import DistributionBundle, match_pivots
from leafbridge.dataset import NUMERIC, AttributeSchema
from conftest import auto_knn_from_cos, drawn_rng, projection_loops


def stacked(rows, labels, d_source=None, shared=None):
    rows = np.asarray(rows, dtype=np.float64)
    if d_source is None:
        d_source = rows.shape[1] // 2
    labels = np.asarray(labels)
    if shared is None:
        shared = tuple(f"c{j}" for j in range(int(labels.max()) + 1))
    return StackedPivots(rows, labels, d_source, rows.shape[1] - d_source, shared)


def random_stacked(rng, n_pivots=None, n_classes=None, d_source=3, d_target=4):
    n_pivots = n_pivots or int(rng.integers(2, 21))
    n_classes = n_classes or int(rng.integers(2, 6))
    z = 2 * n_pivots
    rows = np.zeros((z, d_source + d_target))
    rows[:n_pivots, :d_source] = rng.normal(size=(n_pivots, d_source))
    rows[n_pivots:, d_source:] = rng.normal(size=(n_pivots, d_target))
    labels = rng.integers(0, n_classes, size=z)
    return stacked(rows, labels, d_source, tuple(f"c{j}" for j in range(n_classes)))


class TestKernel:
    def test_orthonormal_rows_linear_identity(self):
        sp = stacked([[1.0, 0.0], [0.0, 1.0]], [0, 0])
        np.testing.assert_allclose(build_kernel(sp, "linear"), np.eye(2))

    def test_linear_hand_values(self):
        sp = stacked([[1.0, 0.0], [1.0, 1.0]], [0, 0])
        np.testing.assert_allclose(build_kernel(sp, "linear"), [[1, 1], [1, 2]])

    def test_rbf_unit_diagonal(self):
        rng = np.random.default_rng(0)
        sp = random_stacked(rng, n_pivots=4, n_classes=2)
        K = build_kernel(sp, "rbf")
        np.testing.assert_allclose(np.diag(K), 1.0)
        np.testing.assert_allclose(K, K.T)

    def test_rbf_identical_rows_bandwidth_error(self):
        sp = stacked([[1.0, 0.0], [1.0, 0.0]], [0, 0])
        with pytest.raises(BandwidthError):
            build_kernel(sp, "rbf")

    @staticmethod
    def pdist_rbf(rows):
        """Reference: the scipy distance computation the rbf kernel replaced."""
        dist = pdist(rows)
        nonzero = dist[dist > 0]
        if nonzero.size == 0:
            raise BandwidthError("all stacked rows identical, rbf bandwidth undefined")
        h = float(np.median(nonzero))
        return np.exp(-squareform(dist) ** 2 / (2.0 * h * h))

    @pytest.mark.parametrize("d_low, d_high", [(1, 8), (8, 61)])
    def test_rbf_equals_pdist_oracle(self, d_low, d_high):
        rng = np.random.default_rng(d_low)
        for case in range(60):
            z = 2 if case < 5 else 2 * int(rng.integers(1, 60))
            d = int(rng.integers(d_low, d_high))
            scale = 10.0 ** rng.uniform(-3, 3)
            rows = rng.normal(size=(z, d)) * scale
            if case % 3 == 0:
                rows = np.round(rows / scale, 1) * scale  # tied distances
            if case % 4 == 0 and z > 2:
                rows[z // 2] = rows[0]  # a duplicated row, distance 0
            if case % 5 == 0:
                rows[:, 0] += 1e6 * scale  # large magnitudes
            sp = stacked(rows, np.zeros(z, dtype=int), d // 2, ("c0",))
            want = self.pdist_rbf(rows)
            got = build_kernel(sp, "rbf")
            assert got.tobytes() == want.tobytes(), (case, z, d)

    def test_rbf_identical_rows_error_matches_oracle(self):
        rows = np.tile([[3.0, -1.0, 0.5]], (6, 1))
        sp = stacked(rows, np.zeros(6, dtype=int), 1, ("c0",))
        with pytest.raises(BandwidthError):
            self.pdist_rbf(rows)
        with pytest.raises(BandwidthError, match="all stacked rows identical"):
            build_kernel(sp, "rbf")

    def test_kernels_positive_semidefinite(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            sp = random_stacked(rng, n_pivots=int(rng.integers(2, 10)))
            for kind in ("linear", "rbf"):
                K = build_kernel(sp, kind)
                assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestMu:
    def test_conditional_dominant(self):
        assert mu_from_distances(0.0, 2.0) == 1.0

    def test_balanced(self):
        assert mu_from_distances(2.0, 2.0) == 0.5

    def test_marginal_dominant(self):
        assert mu_from_distances(2.0, 0.0) == 0.0

    def test_zero_denominator_fallback(self):
        assert mu_from_distances(0.0, 0.0) == 0.5

    def test_separable_halves(self):
        # perfectly separable halves, one shared class: d_M = d_c = 2
        rows = np.array([[10.0, 0.0], [11.0, 0.0], [0.0, -10.0], [0.0, -11.0]])
        sp = stacked(rows, [0, 0, 0, 0])
        assert compute_mu(sp) == pytest.approx(0.5)

    def test_proxy_a_distance_separable(self):
        a = np.array([[5.0], [6.0]])
        b = np.array([[-5.0], [-6.0]])
        assert proxy_a_distance(a, b) == pytest.approx(2.0)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sp = random_stacked(rng)
            assert 0.0 <= compute_mu(sp) <= 1.0


def mmd_matrix_loop(sp, mu):
    """Reference for `build_mmd_matrix`: the joint MMD matrix written one
    np.ix_ block per class."""
    z = sp.z
    n_p = sp.n_pivots
    sign = np.ones(z)
    sign[n_p:] = -1.0
    m0 = np.outer(sign, sign) / (n_p * n_p)

    mc_sum = np.zeros((z, z))
    labels = sp.labels
    for c in range(len(sp.shared_classes)):
        src_rows = np.flatnonzero(labels[:n_p] == c)
        tgt_rows = n_p + np.flatnonzero(labels[n_p:] == c)
        n_c = src_rows.size
        m_c = tgt_rows.size
        if n_c > 0:
            mc_sum[np.ix_(src_rows, src_rows)] += 1.0 / (n_c * n_c)
        if m_c > 0:
            mc_sum[np.ix_(tgt_rows, tgt_rows)] += 1.0 / (m_c * m_c)
        if n_c > 0 and m_c > 0:
            cross = -1.0 / (n_c * m_c)
            mc_sum[np.ix_(src_rows, tgt_rows)] += cross
            mc_sum[np.ix_(tgt_rows, src_rows)] += cross
    return (1.0 - mu) * m0 + mu * mc_sum


class TestMmdMatrix:
    def test_marginal_blocks(self):
        rng = np.random.default_rng(2)
        sp = random_stacked(rng, n_pivots=2, n_classes=2)
        M = build_mmd_matrix(sp, mu=0.0)
        expected = np.full((4, 4), -0.25)
        expected[:2, :2] = 0.25
        expected[2:, 2:] = 0.25
        np.testing.assert_allclose(M, expected)

    def test_endpoints(self):
        rng = np.random.default_rng(3)
        sp = random_stacked(rng, n_pivots=3, n_classes=2)
        m0 = build_mmd_matrix(sp, mu=0.0)
        mc = build_mmd_matrix(sp, mu=1.0)
        half = build_mmd_matrix(sp, mu=0.5)
        np.testing.assert_allclose(half, 0.5 * m0 + 0.5 * mc)

    def test_singleton_class_entries(self):
        rows = np.zeros((4, 4))
        rows[:2, :2] = np.random.default_rng(4).normal(size=(2, 2))
        rows[2:, 2:] = np.random.default_rng(5).normal(size=(2, 2))
        sp = stacked(rows, [0, 1, 0, 1])
        M = build_mmd_matrix(sp, mu=1.0)
        # class 0 occupies rows 0 (source) and 2 (target), each a singleton
        assert M[0, 0] == pytest.approx(1.0)
        assert M[2, 2] == pytest.approx(1.0)
        assert M[0, 2] == pytest.approx(-1.0)
        assert M[2, 0] == pytest.approx(-1.0)
        assert M[0, 1] == 0.0 and M[0, 3] == 0.0

    def test_row_sums_and_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            sp = random_stacked(rng)
            m0 = build_mmd_matrix(sp, mu=0.0)
            assert np.abs(m0.sum(axis=1)).max() < 1e-12
            mu = float(rng.random())
            M = build_mmd_matrix(sp, mu)
            np.testing.assert_allclose(M, M.T)
            assert np.linalg.eigvalsh(M).min() >= -1e-8


def angled_pivots(neighbor_labels, query_label=0):
    """Stacked rows on the unit circle: row 0 is the query, rows 1.. sit at
    increasing angles so the cosine-distance ranking matches the index order."""
    z = len(neighbor_labels) + 1
    angles = np.concatenate([[0.0], 0.15 * np.arange(1, z)])
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    labels = np.array([query_label] + list(neighbor_labels))
    return stacked(rows, labels)


def auto_knn(sp, i):
    """Reference: the neighbor list of one stacked row, by the rule
    build_laplacian applies to every row."""
    return auto_knn_from_cos(_cosine_matrix(sp.rows), sp.labels, i)


def affinity_loop(sp):
    """Reference for `build_laplacian`'s B: the affinity matrix written edge
    by edge from each row's neighbor list."""
    z = sp.z
    cos = _cosine_matrix(sp.rows)
    floored = np.maximum(cos, 0.0)
    B = np.zeros((z, z))
    for i in range(z):
        for j in auto_knn_from_cos(cos, sp.labels, i):
            value = floored[i, j]
            B[i, j] = value
            B[j, i] = value
    np.fill_diagonal(B, 0.0)
    return B


class TestAutoKnn:
    def test_minimum_four(self):
        sp = angled_pivots([0, 1, 0, 0, 1, 0, 0])
        np.testing.assert_array_equal(auto_knn(sp, 0), [1, 2, 3, 4])

    def test_extends_while_labels_match(self):
        sp = angled_pivots([0, 0, 0, 0, 0, 1, 0])
        np.testing.assert_array_equal(auto_knn(sp, 0), [1, 2, 3, 4, 5])

    def test_all_same_label_returns_everything(self):
        sp = angled_pivots([0] * 7)
        np.testing.assert_array_equal(auto_knn(sp, 0), np.arange(1, 8))

    def test_small_z_fallback(self):
        sp = angled_pivots([0, 1, 0])  # z = 4 < 5
        np.testing.assert_array_equal(np.sort(auto_knn(sp, 0)), [1, 2, 3])

    def test_rank_beyond_four_shares_label(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            sp = random_stacked(rng, n_pivots=int(rng.integers(3, 10)))
            i = int(rng.integers(sp.z))
            neighbors = auto_knn(sp, i)
            assert len(neighbors) >= 4
            assert i not in neighbors
            for u in neighbors[4:]:
                assert sp.labels[u] == sp.labels[i]


class TestLaplacian:
    def test_two_node_formula(self):
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(laplacian_from_affinity(B), [[1, -1], [-1, 1]])

    def test_no_edges_identity(self):
        np.testing.assert_allclose(laplacian_from_affinity(np.zeros((3, 3))), np.eye(3))

    def test_affinity_structure(self):
        rng = np.random.default_rng(9)
        sp = random_stacked(rng, n_pivots=5, n_classes=2)
        B, Lap = build_laplacian(sp)
        np.testing.assert_allclose(B, B.T)
        assert np.all(np.diag(B) == 0.0)
        assert B.min() >= 0.0

    def test_affinity_joins_each_row_to_its_neighbor_list(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sp = random_stacked(rng, n_pivots=int(rng.integers(2, 12)))
            B, _ = build_laplacian(sp)
            assert B.tobytes() == affinity_loop(sp).tobytes()

    def test_cosine_matrix_exactly_symmetric(self):
        rng = np.random.default_rng(16)
        for z, d in ((2, 1), (7, 3), (64, 20), (312, 20), (850, 70), (2000, 70)):
            rows = rng.normal(size=(z, d)) * 10.0 ** rng.uniform(-3, 3, size=(z, 1))
            rows[z // 2] = 0.0
            cos = _cosine_matrix(rows)
            assert np.array_equal(cos, cos.T), (z, d)

    def test_spectrum_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            sp = random_stacked(rng, n_pivots=int(rng.integers(3, 12)))
            _, Lap = build_laplacian(sp)
            np.testing.assert_allclose(Lap, Lap.T)
            eig = np.linalg.eigvalsh(Lap)
            assert eig.min() >= -1e-8
            assert eig.max() <= 2.0 + 1e-8

    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(11)
        sp = random_stacked(rng, n_pivots=6, n_classes=3)
        _, Lap = build_laplacian(sp)
        for _ in range(100):
            x = rng.normal(size=sp.z)
            assert x @ Lap @ x >= -1e-8


@st.composite
def drawn_stacks(draw):
    """Stacked pivots of z = 2-60 rows and 1-5 shared classes, with
    small-integer or normal cells, rows copied within their half (cosine
    ties) and all-zero rows."""
    rng = drawn_rng(draw)
    n_pivots, n_classes = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    d_source, d_target = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.sampled_from([lambda size: rng.integers(-2, 3, size), rng.normal]))
    z = 2 * n_pivots
    rows = np.zeros((z, d_source + d_target))
    rows[:n_pivots, :d_source] = cells(size=(n_pivots, d_source))
    rows[n_pivots:, d_source:] = cells(size=(n_pivots, d_target))
    for _ in range(draw(st.integers(0, 4))):
        half = n_pivots * int(rng.integers(2))
        rows[half + rng.integers(n_pivots)] = rows[half + rng.integers(n_pivots)]
    rows[rng.integers(z, size=draw(st.integers(0, 2)))] = 0.0
    labels = rng.integers(0, n_classes, size=z)
    return stacked(rows, labels, d_source, tuple(f"c{j}" for j in range(n_classes)))


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300)
@given(sp=drawn_stacks(), mu=st.floats(0.0, 1.0))
def test_graph_and_mmd_matrix_equal_their_loops_on_drawn_stacks(sp, mu):
    cos = _cosine_matrix(sp.rows)
    assert np.array_equal(cos, cos.T)
    B, Lap = build_laplacian(sp)
    want = affinity_loop(sp)
    assert_same_bytes(B, want)
    assert_same_bytes(Lap, laplacian_from_affinity(want))
    assert_same_bytes(build_mmd_matrix(sp, mu), mmd_matrix_loop(sp, mu))


def assert_matrices_exactly_symmetric(sp, mu):
    """K (each kernel), M and Lap of `sp` are exactly symmetric, as a caller
    taking their spectra with eigvalsh, which reads one triangle, needs."""
    mats = {"mmd": build_mmd_matrix(sp, mu), "laplacian": build_laplacian(sp)[1],
            "linear": build_kernel(sp, "linear")}
    try:
        mats["rbf"] = build_kernel(sp, "rbf")
    except BandwidthError:  # every stacked row the same
        pass
    for key, mat in mats.items():
        assert np.array_equal(mat, mat.T), key


@settings(max_examples=200)
@given(sp=drawn_stacks(), mu=st.floats(0.0, 1.0))
def test_adaptation_matrices_exactly_symmetric_on_drawn_stacks(sp, mu):
    assert_matrices_exactly_symmetric(sp, mu)


@pytest.mark.parametrize("n_pivots, n_classes", [(19, 3), (72, 2), (156, 4), (425, 3)])
def test_adaptation_matrices_exactly_symmetric_at_benchmark_sizes(n_pivots, n_classes):
    rng = np.random.default_rng(n_pivots)
    sp = random_stacked(rng, n_pivots=n_pivots, n_classes=n_classes, d_source=20, d_target=12)
    assert_matrices_exactly_symmetric(sp, float(rng.uniform()))


def padded_projection(sp, K, M, Lap, mmd, manifold):
    """Gs^T (mmd * M + manifold * Lap) K Gt over the zero-padded transforms,
    the product build_projection reduces to the two pivot blocks."""
    gs, gt = sp.rows[:, : sp.d_source], sp.rows[:, sp.d_source :]
    return gs.T @ ((mmd * M + manifold * Lap) @ K) @ gt


def block_swap(n):
    """[2n, 2n] matrix whose [:, n:] block is the identity on top: K[:, n:]
    then picks X[:n, :n] out of X @ K."""
    return np.roll(np.eye(2 * n), n, axis=1)


@settings(max_examples=200)
@given(sp=drawn_stacks(), mu=st.floats(0.0, 1.0), kind=st.sampled_from(["linear", "rbf"]))
def test_ridge_term_leaves_the_projection_unchanged_on_drawn_stacks(sp, mu, kind):
    """Oracle for the removed `ridge` coefficient: the earlier alpha,
    ridge * I + (mmd * M + manifold * Lap) @ K, gives the same padded product
    byte for byte, because Gs^T @ I @ Gt = 0 on the padded stack (Gs is zero
    in the target rows and Gt in the source rows). build_projection sums the
    same terms in another order, so it agrees within rounding: each entry
    within 1e-12 of the same product of absolute values."""
    try:
        K = build_kernel(sp, kind)
    except BandwidthError:  # every stacked row the same
        K = build_kernel(sp, "linear")
    M = build_mmd_matrix(sp, mu)
    _, Lap = build_laplacian(sp)
    mmd, manifold = 5.0, 0.01
    want = padded_projection(sp, K, M, Lap, mmd, manifold)
    gs, gt = sp.rows[:, : sp.d_source], sp.rows[:, sp.d_source :]
    for ridge in (0.0, 1e-3, 10.0):
        earlier = ridge * np.eye(sp.z) + (mmd * M + manifold * Lap) @ K
        assert np.array_equal(gs.T @ earlier @ gt, want)
    got = build_projection(sp, K, M, Lap, mmd, manifold).matrix
    bound = np.abs(gs.T) @ ((mmd * np.abs(M) + manifold * np.abs(Lap)) @ np.abs(K)) @ np.abs(gt)
    assert (np.abs(got - want) <= 1e-12 * bound).all()


@settings(max_examples=200)
@given(sp=drawn_stacks(), mu=st.floats(0.0, 1.0))
def test_linear_kernel_drops_the_manifold_term_on_drawn_stacks(sp, mu):
    """On the zero-padded stack a source row and a target row share no
    non-zero column, so their cosine and their inner product are exactly 0:
    the graph links no source row to a target row (Lap[:n, n:] = 0) and the
    linear K[:n, n:] = 0. So Lap[:n] @ K[:, n:] = 0, and under the linear
    kernel the projection does not depend on `manifold` (up to the sign of
    a zero)."""
    n = sp.n_pivots
    K = build_kernel(sp, "linear")
    M = build_mmd_matrix(sp, mu)
    B, Lap = build_laplacian(sp)
    assert (_cosine_matrix(sp.rows)[:n, n:] == 0).all()
    assert (B[:n, n:] == 0).all() and (Lap[:n, n:] == 0).all()
    assert (K[:n, n:] == 0).all()
    want = build_projection(sp, K, M, Lap, 5.0, 0.0).matrix
    for manifold in (0.01, 100.0):
        assert np.array_equal(build_projection(sp, K, M, Lap, 5.0, manifold).matrix, want)


class TestCoefficientMatrix:
    """build_projection through the coefficient matrix alpha = (mmd * M +
    manifold * Lap) @ K, of which it forms only the source-row,
    target-column block."""

    def test_identity_chain(self):
        # W_s = W_t = I and alpha[:n, n:] = Lap[:n, :n] = I
        n = 3
        sp = stacked(np.eye(2 * n), [0] * (2 * n), d_source=n)
        proj = build_projection(sp, block_swap(n), np.zeros((2 * n, 2 * n)), np.eye(2 * n),
                                mmd=0.0, manifold=1.0)
        np.testing.assert_array_equal(proj.matrix, np.eye(n))

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sp = random_stacked(rng, n_pivots=int(rng.integers(1, 6)), n_classes=2)
            K, M, L = rng.normal(size=(3, sp.z, sp.z))
            lam, gam = rng.random(2)
            got = build_projection(sp, K, M, L, lam, gam).matrix
            np.testing.assert_allclose(got, padded_projection(sp, K, M, L, lam, gam),
                                       atol=1e-12)

    def test_negative_coefficient_rejected(self):
        sp = stacked([[1.0, 0.0], [0.0, 1.0]], [0, 0])
        for mmd, manifold in ((-1.0, 0.0), (0.0, -1.0)):
            with pytest.raises(DataError, match="coefficient must be >= 0"):
                build_projection(sp, np.eye(2), np.eye(2), np.eye(2), mmd, manifold)


class TestProjection:
    def test_identity_chain(self):
        # alpha[:n, n:] = M[:n, :n] = I, so P = W_s^T W_t
        rng = np.random.default_rng(11)
        n = 4
        sp = random_stacked(rng, n_pivots=n, n_classes=2)
        proj = build_projection(sp, block_swap(n), np.eye(2 * n), np.zeros((2 * n, 2 * n)),
                                mmd=1.0, manifold=0.0)
        W_s, W_t = sp.rows[:n, : sp.d_source], sp.rows[n:, sp.d_source :]
        np.testing.assert_allclose(proj.matrix, W_s.T @ W_t, atol=1e-12)

    def test_zero_alpha(self):
        rng = np.random.default_rng(13)
        sp = random_stacked(rng, n_pivots=4, n_classes=2)
        K, M, L = rng.normal(size=(3, sp.z, sp.z))
        np.testing.assert_array_equal(build_projection(sp, K, M, L, 0.0, 0.0).matrix, 0.0)

    def test_hand_product(self):
        # P = 2 * (mmd * M[0] + manifold * Lap[0]) . K[:, 1] * 3 = 2 * (2 * 2 + 0.5 * 4) * 3
        sp = stacked([[2.0, 0.0], [0.0, 3.0]], [0, 0], d_source=1)
        proj = build_projection(sp, np.array([[1.0, 2.0], [3.0, 4.0]]),
                                np.array([[1.0, 0.0], [0.0, 0.0]]),
                                np.array([[0.0, 1.0], [0.0, 0.0]]), mmd=2.0, manifold=0.5)
        np.testing.assert_array_equal(proj.matrix, [[36.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            d_s, d_t = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            n_p = int(rng.integers(1, 6))
            sp = random_stacked(rng, n_pivots=n_p, n_classes=2,
                                d_source=d_s, d_target=d_t)
            K, M, L = rng.normal(size=(3, sp.z, sp.z))
            mmd, manifold = rng.random(2)
            got = build_projection(sp, K, M, L, mmd, manifold).matrix
            expected = projection_loops(sp, K, M, L, mmd, manifold)
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_dimension_mismatch(self):
        sp = stacked([[1.0, 0.0], [0.0, 1.0]], [0, 0])
        for wrong in range(3):
            mats = [np.eye(2)] * 3
            mats[wrong] = np.eye(3)
            with pytest.raises(DataError, match="must be 2x2"):
                build_projection(sp, *mats, 1.0, 1.0)


class TestStacking:
    def test_list_inputs_stored_as_arrays(self):
        sp = StackedPivots([[1.0, 0.0], [0.0, 1.0]], [0, 0], 1, 1, ("a",))
        assert sp.z == 2
        assert sp.rows.dtype == np.float64 and sp.labels.dtype == np.int64
        np.testing.assert_array_equal(sp.rows[:, :1], [[1.0], [0.0]])

    def test_whole_float_labels_stored_as_integers(self):
        sp = StackedPivots(np.eye(2), np.array([1.0, 0.0]), 1, 1, ("a", "b"))
        assert sp.labels.dtype == np.int64
        np.testing.assert_array_equal(sp.labels, [1, 0])

    @pytest.mark.parametrize("labels", [[0.7, 0.2], [0.0, 1.5], [0.0, np.nan], [0.0, np.inf]])
    def test_fractional_labels_rejected(self, labels):
        with pytest.raises(DataError, match="whole class indices"):
            StackedPivots(np.eye(2), np.array(labels), 1, 1, ("a", "b"))

    def _bundle(self, V, W, class_names, domain_tag):
        V = np.asarray(V, dtype=np.float64)
        schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(W.shape[1]))
        return DistributionBundle(V, W, schema, class_names, domain_tag)

    def test_padding_layout(self):
        rng = np.random.default_rng(15)
        Ws = rng.normal(size=(2, 3))
        Wt = rng.normal(size=(2, 2))
        src = self._bundle([[0.5, 0.5], [0.25, 0.75]], Ws, ("a", "b"), "source")
        tgt = self._bundle([[0.5, 0.5], [0.25, 0.75]], Wt, ("a", "b"), "target")
        pivots = match_pivots(src, tgt, 0.1)
        sp = stack_pivots(pivots, src, tgt)
        n = pivots.n_pivots
        assert sp.z == 2 * n
        d_s = sp.d_source
        np.testing.assert_array_equal(sp.rows[:n, :d_s], Ws[[i for i, _, _ in pivots.pairs]])
        np.testing.assert_allclose(sp.rows[n:, :d_s], 0.0)
        np.testing.assert_array_equal(sp.rows[n:, d_s:], Wt[[k for _, k, _ in pivots.pairs]])
        np.testing.assert_allclose(sp.rows[:n, d_s:], 0.0)

    def test_labels_restricted_to_shared_classes(self):
        # source majority label "only_src" is outside the shared set; the
        # stacked label falls back to the shared argmax ("b")
        src = self._bundle([[0.5, 0.2, 0.3]], np.ones((1, 2)),
                           ("only_src", "a", "b"), "source")
        tgt = self._bundle([[0.4, 0.6]], np.ones((1, 2)), ("a", "b"), "target")
        pivots = match_pivots(src, tgt, 0.5)
        assert pivots.n_pivots == 1
        sp = stack_pivots(pivots, src, tgt)
        shared_b = sp.shared_classes.index("b")
        assert sp.labels[0] == shared_b
        assert sp.labels[1] == shared_b
