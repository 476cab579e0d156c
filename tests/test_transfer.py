import json
from dataclasses import fields

import numpy as np
import pytest

from leafbridge.adaptation import ProjectionMatrix
from leafbridge.dataset import NUMERIC, AttributeSchema, Dataset, SplitSpec, one_hot_encode, split_target
from leafbridge.errors import DataError, MatchingError, MissingValueError
from leafbridge.forest import LeafRef, forest_to_json, predict_many
from leafbridge.pivot import PivotSet
from leafbridge.synthetic import rotated_pair
from leafbridge.transfer import (
    DomainForests,
    TransferConfig,
    TransferModel,
    fit_forest,
    merge_datasets,
    project_records,
    run_transfer,
    select_transferable,
)
from conftest import numeric_dataset


def pivot_set_with_source_rows(rows):
    """Minimal PivotSet whose matched source rows are the given dedup rows."""
    n = len(rows)
    return PivotSet(
        pairs=tuple((row, k, 0.0) for k, row in enumerate(rows)),
        Ws=np.zeros((n, 1)), Wt=np.zeros((n, 1)),
        Rs=np.zeros(n, dtype=np.int64), Rt=np.zeros(n, dtype=np.int64),
        Vs=np.ones((n, 1)), Vt=np.ones((n, 1)),
        source_classes=("c0",), target_classes=("c0",), shared_classes=("c0",),
        threshold=0.1,
    )


class TestSelectTransferable:
    def setup_method(self):
        self.ds = numeric_dataset(np.arange(6.0)[:, None], [0] * 6, n_classes=1)
        self.leaves = [
            LeafRef(0, 0, (0, 1)),
            LeafRef(0, 1, (2, 3)),
            LeafRef(1, 0, (1, 4)),
        ]
        self.dedup_map = np.array([0, 1, 2])

    def test_empty_pivots_empty_selection(self):
        selected = select_transferable(self.ds, self.leaves,
                                       pivot_set_with_source_rows([]), self.dedup_map)
        assert selected is None

    def test_every_leaf_matched_selects_all_members(self):
        selected = select_transferable(self.ds, self.leaves,
                                       pivot_set_with_source_rows([0, 1, 2]), self.dedup_map)
        np.testing.assert_array_equal(selected.records[:, 0], [0, 1, 2, 3, 4])

    def test_record_in_two_leaves_selected_once(self):
        # record 1 is in leaves 0 and 2; only leaf 2's row is matched
        selected = select_transferable(self.ds, self.leaves,
                                       pivot_set_with_source_rows([2]), self.dedup_map)
        np.testing.assert_array_equal(selected.records[:, 0], [1, 4])

    def test_dedup_rows_shared_by_leaves(self):
        # leaves 0 and 1 share a dedup row; matching it selects both leaves
        dedup_map = np.array([0, 0, 1])
        selected = select_transferable(self.ds, self.leaves,
                                       pivot_set_with_source_rows([0]), dedup_map)
        np.testing.assert_array_equal(selected.records[:, 0], [0, 1, 2, 3])

    def test_map_must_cover_leaves(self):
        with pytest.raises(DataError):
            select_transferable(self.ds, self.leaves,
                                pivot_set_with_source_rows([0]), np.array([0]))


class TestProjectRecords:
    def setup_method(self):
        self.schema_t = (AttributeSchema("t0", NUMERIC), AttributeSchema("t1", NUMERIC))

    def test_identity(self):
        ds = numeric_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        out = project_records(ds, ProjectionMatrix(np.eye(2)), self.schema_t, ("c0", "c1"))
        np.testing.assert_array_equal(out.records, ds.records)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_zero_projection_keeps_labels(self):
        ds = numeric_dataset([[1.0, 2.0]], [0])
        out = project_records(ds, ProjectionMatrix(np.zeros((2, 2))), self.schema_t, ("c0",))
        np.testing.assert_array_equal(out.records, [[0.0, 0.0]])
        np.testing.assert_array_equal(out.labels, [0])

    def test_hand_product(self):
        ds = numeric_dataset([[1.0, 2.0]], [0])
        P = ProjectionMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        out = project_records(ds, P, self.schema_t, ("c0",))
        np.testing.assert_array_equal(out.records, [[1.0, 4.0]])

    def test_non_shared_labels_dropped(self):
        ds = numeric_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])  # classes c0, c1
        out = project_records(ds, ProjectionMatrix(np.eye(2)), self.schema_t, ("c1",))
        assert out.n == 1
        assert out.class_names == ("c1",)
        np.testing.assert_array_equal(out.labels, [0])

    def test_all_labels_dropped_returns_none(self):
        ds = numeric_dataset([[1.0, 2.0]], [0])
        assert project_records(ds, ProjectionMatrix(np.eye(2)), self.schema_t, ("zz",)) is None

    def test_label_mapping_by_name(self):
        schema_src = (AttributeSchema("s0", NUMERIC),)
        ds = Dataset(schema_src, [[1.0], [2.0]], [0, 1], ("b", "a"))
        out = project_records(ds, ProjectionMatrix(np.eye(1)),
                              (AttributeSchema("t0", NUMERIC),), ("a", "b"))
        np.testing.assert_array_equal(out.labels, [1, 0])


class TestRunTransfer:
    def test_self_transfer_sanity(self):
        # identical domains with cleanly separated clusters: pivots must
        # exist and transferring cannot hurt the training-set fit
        rng = np.random.default_rng(0)
        a = rng.normal(size=(60, 4)) * 0.5 + np.array([5.0, 0, 0, 0])
        b = rng.normal(size=(60, 4)) * 0.5 + np.array([-5.0, 0, 0, 0])
        X = np.vstack([a, b])
        y = np.array([0] * 60 + [1] * 60)
        ds = numeric_dataset(X, y)
        tgt = Dataset(ds.schema, X, y, ds.class_names, "target")
        cfg = TransferConfig(min_leaf_small=5, seed=0)
        model = run_transfer(ds, tgt, cfg)
        assert model.diagnostics["n_pivots"] >= 1
        target_forest = fit_forest(one_hot_encode(tgt), cfg)
        acc_model = np.mean(model.predict_many(tgt) == y)
        acc_base = np.mean(predict_many(target_forest, X) == y)
        assert acc_model >= acc_base

    def test_disjoint_label_sets_error_names_matching(self):
        src = numeric_dataset([[0.0], [1.0]], [0, 1])
        schema = src.schema
        tgt = Dataset(schema, [[0.0], [1.0]], [0, 1], ("x", "y"), "target")
        with pytest.raises(MatchingError, match="pivot matching"):
            run_transfer(src, tgt, TransferConfig())

    def test_missing_cells_rejected(self):
        src = numeric_dataset([[np.nan]], [0])
        tgt = numeric_dataset([[1.0]], [0], domain_tag="target")
        with pytest.raises(MissingValueError):
            run_transfer(src, tgt, TransferConfig())

    def test_rotated_pair_transfers(self):
        src, tgt = rotated_pair(center_spread=2.0, cluster_std=2.0, seed=1)
        tgt_train, _ = split_target(tgt, SplitSpec(0.05, 1))
        model = run_transfer(src, tgt_train, TransferConfig(seed=1))
        assert not model.fallback
        assert model.diagnostics["n_pivots"] >= 1
        assert model.projection is not None
        assert model.projection.matrix.shape == (10, 10)

    def test_merge_size_invariant(self):
        src, tgt = rotated_pair(center_spread=2.0, cluster_std=2.0, seed=2)
        tgt_train, _ = split_target(tgt, SplitSpec(0.05, 2))
        model = run_transfer(src, tgt_train, TransferConfig(seed=2))
        d = model.diagnostics
        # merged forest trained on |selected| - |dropped| + |target| records
        merged_n = d["n_selected"] - d["n_dropped_labels"] + tgt_train.n
        assert d["n_selected"] >= 1
        leaf_members = set()
        for root in model.forest.trees:
            stack = [root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    leaf_members.update(int(i) for i in node.members)
                else:
                    stack.extend((node.left, node.right))
        assert max(leaf_members) < merged_n

    def test_categorical_pipeline(self):
        # mixed categorical/numeric schemas flow through encoding,
        # projection, merge and prediction
        rng = np.random.default_rng(0)

        def make(n, tag, rot=None):
            cats = rng.integers(0, 3, n).astype(float)
            x = rng.normal(size=(n, 2)) + cats[:, None]
            y = ((cats == 2) | (x[:, 0] > 1.5)).astype(int)
            if rot is not None:
                x = x @ rot
            schema = (
                AttributeSchema("g", "categorical", ("a", "b", "c")),
                AttributeSchema("u", NUMERIC),
                AttributeSchema("v", NUMERIC),
            )
            return Dataset(schema, np.column_stack([cats, x]), y, ("no", "yes"), tag)

        rot = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        src = make(400, "source", rot)
        tgt_full = make(400, "target")
        tgt, test = split_target(tgt_full, SplitSpec(0.1, 0))
        model = run_transfer(src, tgt, TransferConfig(min_leaf_small=10, seed=0))
        assert not model.fallback
        assert model.projection.matrix.shape == (5, 5)  # 3 one-hot + 2 numeric
        preds = model.predict_many(test)
        assert preds.shape == (test.n,)
        assert np.mean(preds == test.labels) > 0.5

    def test_determinism_bitwise(self):
        src, tgt = rotated_pair(center_spread=2.0, cluster_std=2.0, seed=3)
        tgt_train, test = split_target(tgt, SplitSpec(0.05, 3))
        cfg = TransferConfig(seed=3)
        m1 = run_transfer(src, tgt_train, cfg)
        m2 = run_transfer(src, tgt_train, cfg)
        assert np.array_equal(m1.projection.matrix, m2.projection.matrix)
        np.testing.assert_array_equal(m1.predict_many(test), m2.predict_many(test))

    def test_fallback_equals_target_only(self):
        # source labels perfectly separable (pure leaves), target labels noise
        rng = np.random.default_rng(4)
        X_s = np.sort(rng.normal(size=(200, 1)), axis=0)
        y_s = (X_s[:, 0] > 0).astype(int)
        src = numeric_dataset(X_s, y_s)
        X_t = rng.normal(size=(30, 1))
        y_t = np.arange(30) % 2
        tgt = Dataset(src.schema, X_t, y_t, src.class_names, "target")
        cfg = TransferConfig(seed=4)
        model = run_transfer(src, tgt, cfg)
        assert model.fallback
        assert model.projection is None
        baseline = fit_forest(one_hot_encode(tgt), cfg)
        probe = rng.normal(size=(100, 1))
        probe_ds = Dataset(src.schema, probe, np.zeros(100, dtype=int),
                           src.class_names, "target")
        np.testing.assert_array_equal(model.predict_many(probe_ds),
                                      predict_many(baseline, probe))


class TestDomainForests:
    @staticmethod
    def pair():
        src, tgt = rotated_pair(n_source=300, n_target=300, center_spread=2.0,
                                cluster_std=2.0, seed=7)
        tgt_train, _ = split_target(tgt, SplitSpec(0.2, 7))
        return src, tgt_train, TransferConfig(min_leaf_small=5, seed=7)

    def test_holder_filled_and_reused(self):
        src, tgt, cfg = self.pair()
        forests = DomainForests()
        fresh = run_transfer(src, tgt, cfg)
        shared = run_transfer(src, tgt, cfg, forests)
        assert forests.source is not None and forests.target is not None
        held = (forests.source, forests.target)
        again = run_transfer(src, tgt, cfg, forests)
        assert (forests.source, forests.target) == held
        for model in (shared, again):
            assert json.dumps(model.to_dict()) == json.dumps(fresh.to_dict())
        assert forest_to_json(forests.source) == forest_to_json(fit_forest(one_hot_encode(src), cfg))
        assert forest_to_json(forests.target) == forest_to_json(fit_forest(one_hot_encode(tgt), cfg))

    def test_forest_of_another_schema_rejected(self):
        src, tgt, cfg = self.pair()
        # a target forest in the source slot: same width, other column names
        wrong = fit_forest(one_hot_encode(tgt), cfg)
        with pytest.raises(DataError, match="source forest .* schema"):
            run_transfer(src, tgt, cfg, DomainForests(source=wrong))

    def test_forest_of_other_classes_rejected(self):
        src, tgt, cfg = self.pair()
        relabeled = Dataset(tgt.schema, tgt.records, tgt.labels, ("x", "y", "z"), "target")
        wrong = fit_forest(one_hot_encode(relabeled), cfg)
        with pytest.raises(DataError, match="target forest .* class"):
            run_transfer(src, tgt, cfg, DomainForests(target=wrong))

    def test_checks_run_before_training(self):
        src = numeric_dataset([[0.0], [1.0]], [0, 1])
        tgt = Dataset(src.schema, [[0.0], [1.0]], [0, 1], ("x", "y"), "target")
        forests = DomainForests()
        with pytest.raises(MatchingError, match="share no class labels"):
            run_transfer(src, tgt, TransferConfig(), forests)
        assert forests.source is None and forests.target is None


class TestModelSerialization:
    def test_save_load_round_trip(self, tmp_path):
        src, tgt = rotated_pair(center_spread=2.0, cluster_std=2.0, seed=5)
        tgt_train, test = split_target(tgt, SplitSpec(0.05, 5))
        model = run_transfer(src, tgt_train, TransferConfig(seed=5))
        path = tmp_path / "model.json"
        model.save(path)
        again = TransferModel.load(path)
        assert again.fallback == model.fallback
        np.testing.assert_array_equal(again.projection.matrix, model.projection.matrix)
        np.testing.assert_array_equal(again.predict_many(test), model.predict_many(test))

    def test_fallback_save_load(self, tmp_path):
        rng = np.random.default_rng(6)
        X = np.sort(rng.normal(size=(100, 1)), axis=0)
        src = numeric_dataset(X, (X[:, 0] > 0).astype(int))
        tgt = Dataset(src.schema, rng.normal(size=(20, 1)),
                      np.arange(20) % 2, src.class_names, "target")
        model = run_transfer(src, tgt, TransferConfig(seed=6))
        assert model.fallback
        path = tmp_path / "fallback.json"
        model.save(path)
        again = TransferModel.load(path)
        assert again.projection is None and again.fallback

    def test_config_keys_are_the_dataclass_fields(self, tmp_path):
        src, tgt = rotated_pair(n_source=200, n_target=200, center_spread=2.0,
                                cluster_std=2.0, seed=8)
        model = run_transfer(src, tgt, TransferConfig(min_leaf_small=5, seed=8))
        path = tmp_path / "model.json"
        model.save(path)
        saved = json.loads(path.read_text(encoding="utf-8"))["config"]
        assert list(saved) == [f.name for f in fields(TransferConfig)]

    def test_non_default_config_round_trips(self, tmp_path):
        cfg = TransferConfig(n_trees=3, min_leaf_small=4, min_leaf_large=30,
                             large_threshold=5000, pivot_threshold=0.25, ridge=0.5,
                             mmd=2.0, manifold=0.125, kernel="linear",
                             alpha_mode="inverse", mmd_cross_term="squared", seed=11)
        assert all(getattr(cfg, f.name) != f.default for f in fields(TransferConfig))
        tgt = numeric_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1], domain_tag="target")
        model = TransferModel(
            forest=fit_forest(one_hot_encode(tgt), cfg), projection=None, fallback=True,
            diagnostics={}, raw_schema=tgt.schema, class_names=tgt.class_names, config=cfg,
        )
        path = tmp_path / "model.json"
        model.save(path)
        again = TransferModel.load(path)
        assert again.config == cfg
        assert json.dumps(again.to_dict()) == json.dumps(model.to_dict())


class TestConfig:
    def test_defaults_follow_protocol(self):
        cfg = TransferConfig()
        assert cfg.n_trees == 10
        assert cfg.min_leaf_small == 20
        assert cfg.min_leaf_large == 50
        assert cfg.large_threshold == 10000
        assert cfg.pivot_threshold == 0.1
        assert cfg.ridge == 0.001
        assert cfg.mmd == 5.0
        assert cfg.manifold == 0.01

    def test_min_leaf_sizing_rule(self):
        cfg = TransferConfig()
        assert cfg.min_leaf_for(15000) == 50
        assert cfg.min_leaf_for(10000) == 20
        assert cfg.min_leaf_for(9000) == 20

    def test_validation(self):
        with pytest.raises(DataError):
            TransferConfig(n_trees=0)
        with pytest.raises(DataError):
            TransferConfig(pivot_threshold=1.5)
        with pytest.raises(DataError):
            TransferConfig(ridge=-0.1)
        with pytest.raises(DataError, match="mmd_cross_term"):
            TransferConfig(mmd_cross_term="cubed")


class TestMerge:
    def test_merge_concatenates(self):
        a = numeric_dataset([[1.0]], [0], n_classes=2, domain_tag="target")
        b = numeric_dataset([[2.0], [3.0]], [1, 0], domain_tag="target")
        merged = merge_datasets(a, b)
        assert merged.n == 3
        np.testing.assert_array_equal(merged.records[:, 0], [1.0, 2.0, 3.0])

    def test_merge_schema_mismatch(self):
        a = numeric_dataset([[1.0]], [0])
        b = numeric_dataset([[1.0, 2.0]], [0])
        with pytest.raises(DataError):
            merge_datasets(a, b)
