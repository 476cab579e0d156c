"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings. The sign-test exact-oracle agreement clause is strict-xfail: the
continuity-corrected z and the exact binomial tail provably disagree at the
single cell (n=17, wins=13), which the test prints in full.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from leafbridge.adaptation import (
    StackedPivots,
    _cosine_matrix,
    build_laplacian,
    build_mmd_matrix,
    build_projection,
)
from leafbridge.dataset import Dataset, SplitSpec, one_hot_encode, split_target, write_csv
from leafbridge.experiment import ExperimentSpec, PairSpec, run_experiment
from leafbridge.forest import predict_many, train_forest
from leafbridge.metrics import evaluate, sign_test
from leafbridge.pivot import _jsd_block
from leafbridge.synthetic import rotated_pair
from leafbridge.transfer import TransferConfig, run_transfer
from conftest import auto_knn_from_cos, numeric_dataset, projection_loops


def _finish(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_stacked(rng, n_pivots, n_classes, d_source=3, d_target=4):
    z = 2 * n_pivots
    rows = np.zeros((z, d_source + d_target))
    rows[:n_pivots, :d_source] = rng.normal(size=(n_pivots, d_source))
    rows[n_pivots:, d_source:] = rng.normal(size=(n_pivots, d_target))
    labels = rng.integers(0, n_classes, size=z)
    return StackedPivots(rows, labels, d_source, d_target,
                         tuple(f"c{j}" for j in range(n_classes)))


def test_c1_jsd_oracle():
    def brute_force(p, q):
        m = [(a + b) / 2.0 for a, b in zip(p, q)]
        def kl(a, b):
            return sum(x * math.log2(x / y) for x, y in zip(a, b) if x > 0)
        return 0.5 * kl(p, m) + 0.5 * kl(q, m)

    def jsd(p, q):
        # the divergence block match_pivots evaluates, for one pair
        return float(_jsd_block(np.array([p]), np.array([q]))[0, 0])

    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(c))
        q = rng.dirichlet(np.ones(c))
        worst = max(worst, abs(jsd(p, q) - brute_force(p, q)))
    exact_zero = jsd(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0
    exact_one = jsd((1.0, 0.0), (0.0, 1.0)) == 1.0
    elapsed = time.perf_counter() - start
    _finish(
        "C1 jsd oracle",
        worst <= 1e-12 and exact_zero and exact_one and elapsed < 1.0,
        f"max |diff| {worst:.2e} over 1000 pairs, exact endpoints "
        f"{exact_zero and exact_one}, {elapsed:.2f}s",
    )


def test_c2_mmd_matrix_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_row_sum = 0.0
    worst_asym = 0.0
    worst_eig = np.inf
    for _ in range(100):
        sp = _random_stacked(rng, int(rng.integers(2, 21)), int(rng.integers(2, 6)))
        m0 = build_mmd_matrix(sp, mu=0.0)
        worst_row_sum = max(worst_row_sum, float(np.abs(m0.sum(axis=1)).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(m0).min()))
        M = build_mmd_matrix(sp, mu=float(rng.random()))
        worst_asym = max(worst_asym, float(np.abs(M - M.T).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(M).min()))
    elapsed = time.perf_counter() - start
    _finish(
        "C2 MMD invariants",
        worst_row_sum < 1e-12 and worst_asym == 0.0 and worst_eig >= -1e-8
        and elapsed < 5.0,
        f"max |row sum| {worst_row_sum:.2e}, max asymmetry {worst_asym:.2e}, "
        f"min eigenvalue {worst_eig:.2e}, {elapsed:.2f}s",
    )


def test_c3_laplacian_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_asym = 0.0
    eig_low, eig_high = np.inf, -np.inf
    min_neighbors = np.inf
    label_rule_ok = True
    for _ in range(100):
        sp = _random_stacked(rng, int(rng.integers(3, 13)), int(rng.integers(2, 5)))
        _, lap = build_laplacian(sp)
        worst_asym = max(worst_asym, float(np.abs(lap - lap.T).max()))
        eig = np.linalg.eigvalsh(lap)
        eig_low = min(eig_low, float(eig.min()))
        eig_high = max(eig_high, float(eig.max()))
        i = int(rng.integers(sp.z))
        # the per-row loop of the neighbor rule build_laplacian applies
        neighbors = auto_knn_from_cos(_cosine_matrix(sp.rows), sp.labels, i)
        min_neighbors = min(min_neighbors, len(neighbors))
        if any(sp.labels[u] != sp.labels[i] for u in neighbors[4:]):
            label_rule_ok = False
    elapsed = time.perf_counter() - start
    _finish(
        "C3 Laplacian invariants",
        worst_asym == 0.0 and eig_low >= -1e-8 and eig_high <= 2.0 + 1e-8
        and min_neighbors >= 4 and label_rule_ok and elapsed < 5.0,
        f"eigenvalues in [{eig_low:.2e}, {eig_high:.6f}], min k {int(min_neighbors)}, "
        f"label rule {label_rule_ok}, {elapsed:.2f}s",
    )


def test_c4_coefficient_matrix():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        sp = _random_stacked(rng, int(rng.integers(1, 31)), 2)
        z = sp.z
        K = rng.normal(size=(z, z))
        K = K @ K.T / z
        M = rng.normal(size=(z, z))
        M = (M + M.T) / 2
        L = rng.normal(size=(z, z))
        L = (L + L.T) / 2
        mmd, manifold = 0.1, 0.1
        # the coefficient matrix between the zero-padded transforms
        gs, gt = sp.rows[:, : sp.d_source], sp.rows[:, sp.d_source :]
        padded = gs.T @ ((mmd * M + manifold * L) @ K) @ gt
        got = build_projection(sp, K, M, L, mmd, manifold).matrix
        worst = max(worst, float(np.abs(got - padded).max()))
    elapsed = time.perf_counter() - start
    _finish(
        "C4 coefficient matrix",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |diff| {worst:.2e} vs the padded product, {elapsed:.2f}s",
    )


def test_c5_projection_oracle():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        d_s, d_t = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        sp = _random_stacked(rng, int(rng.integers(1, 6)), 2, d_s, d_t)
        K, M, L = rng.normal(size=(3, sp.z, sp.z))
        mmd, manifold = rng.random(2)
        got = build_projection(sp, K, M, L, mmd, manifold).matrix
        worst = max(worst, float(np.abs(got - projection_loops(sp, K, M, L, mmd, manifold)).max()))
    _finish("C5 projection oracle", worst <= 1e-9,
            f"max |diff| {worst:.2e} vs scalar loops over 50 instances")


def test_c6_synthetic_transfer():
    start = time.perf_counter()
    tlf_acc, base_acc = [], []
    fallbacks = 0
    min_pivots = np.inf
    for seed in range(10):
        src, tgt = rotated_pair(n_source=600, n_target=600, n_classes=3,
                                n_features=10, center_spread=2.0,
                                cluster_std=2.0, seed=seed)
        tgt_train, test = split_target(tgt, SplitSpec(0.05, seed))
        assert tgt_train.n == 30 and test.n == 570
        cfg = TransferConfig(seed=seed)
        model = run_transfer(src, tgt_train, cfg)
        if model.fallback:
            fallbacks += 1
        min_pivots = min(min_pivots, model.diagnostics["n_pivots"])
        tlf_acc.append(evaluate(model, test).accuracy)
        baseline = train_forest(one_hot_encode(tgt_train), cfg.n_trees,
                                cfg.min_leaf_for(tgt_train.n), cfg.seed)
        base_acc.append(float(np.mean(predict_many(baseline, test.records)
                                      == test.labels)))
    elapsed = time.perf_counter() - start
    margin = float(np.median(tlf_acc) - np.median(base_acc))
    _finish(
        "C6 synthetic transfer",
        margin >= 0.05 and fallbacks == 0 and min_pivots >= 1 and elapsed < 60.0,
        f"median transfer {np.median(tlf_acc):.3f} vs baseline "
        f"{np.median(base_acc):.3f} (margin {margin:+.3f}), fallbacks {fallbacks}, "
        f"min pivots {int(min_pivots)}, {elapsed:.1f}s",
    )


def test_c7_fallback_bitwise():
    # cleanly separable source (pure leaves only) vs label-noise target
    rng = np.random.default_rng(107)
    X_s = np.sort(rng.normal(size=(200, 1)), axis=0)
    src = numeric_dataset(X_s, (X_s[:, 0] > 0).astype(int))
    X_t = rng.normal(size=(30, 1))
    tgt = Dataset(src.schema, X_t, np.arange(30) % 2, src.class_names, "target")
    cfg = TransferConfig(seed=7)
    model = run_transfer(src, tgt, cfg)
    baseline = train_forest(one_hot_encode(tgt), cfg.n_trees,
                            cfg.min_leaf_for(tgt.n), cfg.seed)
    probe = rng.normal(size=(500, 1))
    probe_ds = Dataset(src.schema, probe, np.zeros(500, dtype=int),
                       src.class_names, "target")
    identical = np.array_equal(model.predict_many(probe_ds),
                               predict_many(baseline, probe))
    _finish(
        "C7 fallback",
        model.fallback and model.diagnostics["n_pivots"] == 0 and identical,
        f"pivots {model.diagnostics['n_pivots']}, fallback {model.fallback}, "
        f"bitwise identical predictions {identical}",
    )


def test_c8_protocol_arithmetic():
    ds = numeric_dataset(np.arange(1000.0)[:, None], np.zeros(1000, dtype=int))
    target, test = split_target(ds, SplitSpec(0.05, 0))
    cfg = TransferConfig()
    ok = (
        target.n == 50 and test.n == 950
        and cfg.n_trees == 10
        and cfg.min_leaf_for(15000) == 50
        and cfg.min_leaf_for(10000) == 20
        and cfg.min_leaf_for(9000) == 20
        and cfg.pivot_threshold == 0.1
    )
    _finish(
        "C8 protocol arithmetic",
        ok,
        f"split {target.n}/{test.n}, trees {cfg.n_trees}, min leaf "
        f"{cfg.min_leaf_for(15000)}/{cfg.min_leaf_for(9000)} at {cfg.large_threshold}",
    )


def test_c9_statistics_hand_value():
    z = sign_test(26, 2)
    zero = sign_test(1, 0)
    _finish(
        "C9 statistics (hand values)",
        abs(z - 4.35) <= 0.01 and zero == 0.0,
        f"z(26,2) = {z:.4f}, z(1,0) = {zero}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="known approximation boundary: the continuity-corrected z and the "
    "exact binomial tail at alpha=0.025 disagree at exactly (n=17, wins=13): "
    "z = 1.9403 accepts while P(X >= 13) = 3214/131072 = 0.024521 <= 0.025 "
    "rejects",
)
def test_c9_statistics_exact_oracle_agreement():
    disagreements = []
    for n in range(1, 31):
        for wins in range(n + 1):
            z_decision = sign_test(wins, n - wins) > 1.96
            exact_decision = float(binom.sf(wins - 1, n, 0.5)) <= 0.025
            if z_decision != exact_decision:
                disagreements.append(
                    (n, wins, sign_test(wins, n - wins),
                     float(binom.sf(wins - 1, n, 0.5)))
                )
    detail = (
        "full agreement over all n <= 30"
        if not disagreements
        else "disagreements " + ", ".join(
            f"(n={n}, wins={w}: z={z:.4f}, exact p={p:.6f})"
            for n, w, z, p in disagreements
        )
    )
    _finish("C9 statistics (exact-oracle agreement)", not disagreements, detail)


def test_c10_determinism(tmp_path):
    src, tgt = rotated_pair(n_source=150, n_target=160, center_spread=2.0,
                            cluster_std=2.0, seed=10)
    src_path, tgt_path = tmp_path / "s.csv", tmp_path / "t.csv"
    write_csv(src, src_path)
    write_csv(tgt, tgt_path)
    spec = ExperimentSpec(
        pairs=(PairSpec(str(src_path), str(tgt_path)),),
        split=SplitSpec(0.2, 10),
        repeats=2,
        methods=("tlf", "target_only"),
    )
    cfg = TransferConfig(min_leaf_small=5, seed=10)
    out1 = run_experiment(spec, cfg).write(tmp_path / "r1")
    out2 = run_experiment(spec, cfg).write(tmp_path / "r2")
    csv_identical = out1[1].read_bytes() == out2[1].read_bytes()
    json_identical = out1[0].read_bytes() == out2[0].read_bytes()
    _finish(
        "C10 determinism",
        csv_identical and json_identical,
        f"byte-identical CSV {csv_identical}, byte-identical JSON {json_identical}",
    )
