import csv
import json
import os
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafbridge import experiment, transfer
from leafbridge import forest as forest_module
from leafbridge.dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    Dataset,
    SplitSpec,
    encode_records,
    inject_missing,
    load_csv,
    one_hot_encode,
    write_csv,
)
from leafbridge.errors import DataError
from leafbridge.experiment import (
    METHODS,
    EvaluationReport,
    ExperimentSpec,
    PairSpec,
    parse_config,
    parse_transfer_config,
    run_experiment,
)
from leafbridge.forest import predict_many, train_forest
from leafbridge.metrics import EvalMetrics
from leafbridge.synthetic import rotated_pair
from leafbridge.transfer import TransferConfig, TransferModel, run_transfer
from conftest import assert_no_children


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pairs")
    src, tgt = rotated_pair(n_source=150, n_target=160, center_spread=2.0,
                            cluster_std=2.0, seed=0)
    src_path, tgt_path = root / "blob_src.csv", root / "blob_tgt.csv"
    write_csv(src, src_path)
    write_csv(tgt, tgt_path)
    return str(src_path), str(tgt_path)


def small_cfg(seed=0):
    return TransferConfig(min_leaf_small=5, seed=seed)


class TestRunExperiment:
    def test_single_cell(self, pair_files):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files),),
            split=SplitSpec(0.2, 0),
            repeats=1,
            methods=("target_only",),
        )
        report = run_experiment(spec, small_cfg())
        assert len(report.pairs) == 1
        cell = report.pairs[0]["methods"]["target_only"]
        assert 0.0 <= cell["accuracy"] <= 1.0
        assert cell["runs"] == 1

    def test_repeats_average(self, pair_files):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files),),
            split=SplitSpec(0.2, 0),
            repeats=3,
            methods=("target_only",),
        )
        report = run_experiment(spec, small_cfg())
        cell = report.pairs[0]["methods"]["target_only"]
        assert cell["runs"] == 3

    def test_missing_file_isolated(self, pair_files):
        spec = ExperimentSpec(
            pairs=(PairSpec("no_such_file.csv", pair_files[1]),
                   PairSpec(*pair_files)),
            split=SplitSpec(0.2, 0),
            methods=("target_only",),
        )
        report = run_experiment(spec, small_cfg())
        assert "error" in report.pairs[0]
        assert "methods" in report.pairs[1]
        assert not report.all_failed

    def test_aggregates_recomputable(self, pair_files):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files), PairSpec(pair_files[1], pair_files[0])),
            split=SplitSpec(0.2, 0),
            methods=("tlf", "target_only"),
        )
        report = run_experiment(spec, small_cfg())
        for method in spec.methods:
            cells = [p["methods"][method]["accuracy"] for p in report.pairs
                     if "methods" in p and "accuracy" in p["methods"][method]]
            assert report.aggregates[method]["mean_accuracy"] == float(np.mean(cells))

    def test_sign_test_blocks_present(self, pair_files):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files, group="g1"),
                   PairSpec(pair_files[1], pair_files[0], group="g1")),
            split=SplitSpec(0.2, 0),
            methods=("tlf", "target_only"),
        )
        report = run_experiment(spec, small_cfg())
        for level in ("pair", "group"):
            block = report.significance["sign_test"][level]
            entry = block["tlf_vs_target_only"]
            assert entry["wins"] + entry["losses"] + entry["ties"] >= 1

    def test_missing_value_protocol(self, pair_files):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files),),
            split=SplitSpec(0.2, 0),
            methods=("target_only",),
            missing_mode="impute",
            inject_ratios=(0.2,),
        )
        report = run_experiment(spec, small_cfg())
        ratios = report.pairs[0]["by_ratio"]
        assert ratios[0]["inject_ratio"] == 0.2
        assert "accuracy" in ratios[0]["methods"]["target_only"]

    def test_diagnostics_recorded(self, pair_files):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files),),
            split=SplitSpec(0.2, 0),
            methods=("tlf",),
        )
        report = run_experiment(spec, small_cfg())
        diag = report.pairs[0]["diagnostics"]
        assert diag["n_pivots"] is not None
        assert "fallback_runs" in diag

    def test_config_written_once(self, pair_files):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files),),
            split=SplitSpec(0.2, 0),
            methods=("tlf",),
        )
        cfg = small_cfg()
        doc = json.loads(json.dumps(run_experiment(spec, cfg).to_dict()))
        assert doc["config"] == asdict(cfg)
        pairs = json.dumps(doc["pairs"])
        for key in asdict(cfg):
            assert f'"{key}"' not in pairs, key
        # the pivot count and mu are stated once, beside the fallback count
        diagnostics = doc["pairs"][0]["diagnostics"]
        assert diagnostics["n_pivots"] > 0 and diagnostics["mu"] is not None
        assert list(diagnostics) == ["n_pivots", "mu", "fallback_runs"]


def _pair_files(root, src, tgt):
    """Write a source/target CSV pair; the source takes the target's column
    names, so that source_only can score the target's test part."""
    src_path, tgt_path = root / "src.csv", root / "tgt.csv"
    write_csv(Dataset(tgt.schema, src.records, src.labels, src.class_names), src_path)
    write_csv(tgt, tgt_path)
    return str(src_path), str(tgt_path)


@pytest.fixture(scope="module")
def native_missing_files(tmp_path_factory):
    """A 400-row pair whose target CSV carries native `?` cells."""
    src, tgt = rotated_pair(n_source=400, n_target=400, center_spread=2.0,
                            cluster_std=2.0, seed=1)
    root = tmp_path_factory.mktemp("native")
    files = _pair_files(root, src, inject_missing(tgt, 0.3, seed=2))
    assert "?" in (root / "tgt.csv").read_text(encoding="utf-8")
    return files


class TestNativeMissingTarget:
    @pytest.mark.parametrize("mode", ["srd", "impute"])
    def test_every_method_scores(self, native_missing_files, mode):
        spec = ExperimentSpec(
            pairs=(PairSpec(*native_missing_files),),
            split=SplitSpec(0.1, 0),
            missing_mode=mode,
        )
        report = run_experiment(spec, small_cfg())
        methods = report.pairs[0]["methods"]
        for method in spec.methods:
            assert "accuracy" in methods[method], methods[method]
            assert "failed_runs" not in methods[method]

    def test_mode_none_fails_the_pair_early(self, native_missing_files):
        spec = ExperimentSpec(pairs=(PairSpec(*native_missing_files),),
                              split=SplitSpec(0.1, 0))
        report = run_experiment(spec, small_cfg())
        assert "set missing_mode" in report.pairs[0]["error"]


def _binned(ds, n_categorical):
    """ds with its last n_categorical columns binned into three string levels."""
    X = np.array(ds.records)
    schema = list(ds.schema)
    for j in range(ds.d - n_categorical, ds.d):
        X[:, j] = np.digitize(X[:, j], np.quantile(X[:, j], [1 / 3, 2 / 3]))
        schema[j] = AttributeSchema(ds.schema[j].name, CATEGORICAL, ("lo", "mid", "hi"))
    return Dataset(tuple(schema), X, ds.labels, ds.class_names, ds.domain_tag)


@pytest.fixture(scope="module")
def numeric_pair(tmp_path_factory):
    src, tgt = rotated_pair(n_source=300, n_target=300, center_spread=2.0,
                            cluster_std=2.0, seed=4)
    return _pair_files(tmp_path_factory.mktemp("numeric"), src, tgt)


@pytest.fixture(scope="module")
def categorical_pair(tmp_path_factory):
    src, tgt = rotated_pair(n_source=300, n_target=300, n_features=6, center_spread=2.0,
                            cluster_std=1.5, seed=5)
    files = _pair_files(tmp_path_factory.mktemp("categorical"),
                        _binned(src, 3), _binned(tgt, 3))
    schemas = [load_csv(path, "label").schema for path in files]
    assert schemas[0][-1].kind == CATEGORICAL and schemas[0] != schemas[1]
    return files


@pytest.fixture(scope="module")
def no_shared_class_pair(tmp_path_factory):
    src, tgt = rotated_pair(n_source=200, n_target=200, center_spread=2.0,
                            cluster_std=2.0, seed=6)
    src = Dataset(src.schema, src.records, src.labels, ("s0", "s1", "s2"))
    return _pair_files(tmp_path_factory.mktemp("disjoint"), src, tgt)


@pytest.fixture(scope="module")
def one_record_target_pair(pair_files, tmp_path_factory):
    """pair_files' source with a target CSV of one record, which no split divides."""
    path = tmp_path_factory.mktemp("one_record") / "tgt.csv"
    write_csv(load_csv(pair_files[1], "label").subset([0]), path)
    return pair_files[0], str(path)


def baseline_model(forest, ds, cfg=TransferConfig()):
    """A plain forest as a model of the raw schema and classes of ds."""
    return TransferModel(forest=forest, fallback=False, diagnostics={},
                         raw_schema=ds.schema, config=cfg)


def per_method_train(method, src, tgt, cfg):
    """Reference: every method trains its own forests, five in a cell with
    all three methods."""
    if method == "tlf":
        return run_transfer(src, tgt, cfg)
    if method == "target_only":
        encoded = one_hot_encode(tgt)
        forest = train_forest(encoded, cfg.n_trees, cfg.min_leaf_for(encoded.n), cfg.seed)
        return baseline_model(forest, tgt, cfg)
    if method == "source_only":
        encoded = one_hot_encode(src)
        forest = train_forest(encoded, cfg.n_trees, cfg.min_leaf_for(encoded.n), cfg.seed)
        return baseline_model(forest, src, cfg)
    raise DataError(f"unknown method {method!r}")


@pytest.fixture
def trained(monkeypatch):
    """Domain tags of the datasets the pipeline trains forests on, in order."""
    tags = []
    real = transfer.train_forest

    def counting(ds, *args, **kwargs):
        tags.append(ds.domain_tag)
        return real(ds, *args, **kwargs)

    monkeypatch.setattr(transfer, "train_forest", counting)
    return tags


class TestSharedDomainForests:
    @staticmethod
    def spec(files, methods, **kwargs):
        return ExperimentSpec(pairs=(PairSpec(*files),), split=SplitSpec(0.2, 0),
                              methods=methods, **kwargs)

    @pytest.mark.parametrize("methods, forests", [
        (METHODS, ["source", "target", "target"]),
        (METHODS[::-1], ["target", "source", "target"]),
        (("source_only", "target_only"), ["source", "target"]),
        (("tlf",), ["source", "target", "target"]),
    ])
    def test_forests_trained_per_cell(self, numeric_pair, trained, methods, forests):
        report = run_experiment(self.spec(numeric_pair, methods), small_cfg())
        cells = report.pairs[0]["methods"]
        assert all("accuracy" in cells[m] for m in methods), cells
        if "tlf" in methods:
            assert report.pairs[0]["diagnostics"]["fallback_runs"] == 0
        # the final forest is trained on merged records, tagged "target"
        assert trained == forests

    @pytest.mark.parametrize("pair", ["numeric_pair", "categorical_pair"])
    @pytest.mark.parametrize("methods", [METHODS, METHODS[::-1]])
    def test_report_matches_per_method_training(self, request, monkeypatch, pair, methods):
        spec = self.spec(request.getfixturevalue(pair), methods, repeats=2,
                         missing_mode="impute", inject_ratios=(0.1, 0.3))
        shared = run_experiment(spec, small_cfg())
        for block in shared.pairs[0]["by_ratio"]:
            assert all(block["methods"][m]["runs"] == 2 for m in methods), block
        monkeypatch.setattr(experiment, "_train_method",
                            lambda method, src, tgt, cfg, forests:
                            per_method_train(method, src, tgt, cfg))
        reference = run_experiment(spec, small_cfg())
        assert json.dumps(shared.to_dict()) == json.dumps(reference.to_dict())
        assert shared.to_csv() == reference.to_csv()

    @pytest.mark.parametrize("methods, encodings", [
        (METHODS, 2),
        # the baselines train (and encode) first; run_transfer reuses that
        (METHODS[::-1], 2),
        (("source_only", "target_only"), 2),
        (("tlf",), 2),
        (("target_only",), 1),
    ])
    def test_one_hot_encodings_per_cell(self, categorical_pair, monkeypatch,
                                        methods, encodings):
        # a baseline whose forest the cell already holds encodes nothing
        calls = []
        real = transfer.one_hot_encode

        def counting(ds):
            calls.append(ds.domain_tag)
            return real(ds)

        for module in (transfer, experiment):
            monkeypatch.setattr(module, "one_hot_encode", counting, raising=False)
        report = run_experiment(self.spec(categorical_pair, methods), small_cfg())
        assert all("accuracy" in cell for cell in report.pairs[0]["methods"].values())
        assert len(calls) == encodings

    def test_no_shared_class_fails_tlf_only(self, no_shared_class_pair, trained):
        report = run_experiment(self.spec(no_shared_class_pair, METHODS), small_cfg())
        cells = report.pairs[0]["methods"]
        assert cells["tlf"] == {"error": "MatchingError: pivot matching: "
                                         "source and target share no class labels"}
        assert cells["source_only"]["accuracy"] == 0.0
        assert cells["target_only"]["runs"] == 1
        assert trained == ["source", "target"]


#: (inject ratios, repeats) of experiments of 1 to 5 cells
CELL_LAYOUTS = [((), 1), ((), 2), ((0.1,), 3), ((0.1, 0.3), 2), ((0.2,), 5)]


# Cells run in forked workers: the child's view of the test process ends in
# os._exit, so only the parent reports.
@pytest.mark.skipif(not hasattr(os, "fork"), reason="cells run in forked workers")
class TestForkedCells:
    @staticmethod
    def spec(pairs, ratios=(), repeats=1, methods=METHODS):
        return ExperimentSpec(pairs=tuple(PairSpec(*files) for files in pairs),
                              split=SplitSpec(0.2, 1), repeats=repeats, methods=methods,
                              missing_mode="impute" if ratios else "none",
                              inject_ratios=ratios)

    @staticmethod
    def cfg():
        return TransferConfig(n_trees=3, min_leaf_small=5, seed=2)

    # case k runs k + 1 pairs on layout k mod 5; the pairs cycle through four
    # kinds: one that scores, one whose tlf fails in every cell, one whose
    # CSV fails to load and one whose split fails in every cell
    @pytest.mark.parametrize("case", range(8))
    def test_report_bytes_equal_serial(self, pair_files, no_shared_class_pair,
                                       one_record_target_pair, fork_in, case):
        n_pairs, (ratios, repeats) = case + 1, CELL_LAYOUTS[case % len(CELL_LAYOUTS)]
        kinds = [pair_files, no_shared_class_pair, ("no_such_file.csv", "x.csv"),
                 one_record_target_pair]
        spec = self.spec([kinds[k % 4] for k in range(n_pairs)], ratios, repeats)
        n_items = sum(k % 4 != 2 for k in range(n_pairs)) * max(1, len(ratios)) * repeats
        fork_in(1)
        serial = json.dumps(run_experiment(spec, self.cfg()).to_dict())
        for error in ("MatchingError", "FileNotFoundError", "EmptyDatasetError")[:n_pairs - 1]:
            assert error in serial
        for workers in (1, 2, 3):
            forks = fork_in(workers)
            report = json.dumps(run_experiment(spec, self.cfg()).to_dict())
            # one map over every loaded pair's cells forks a child for each
            # share but the first (no cell here outweighs an even share); a
            # lone cell runs here and forks its forests
            if n_items > 1 or workers == 1:
                assert len(forks()) == min(n_items, workers) - 1
            assert report == serial
            assert_no_children()

    def test_one_map_in_cell_major_order(self, pair_files, no_shared_class_pair, monkeypatch):
        maps, fork_map = [], experiment.fork_map

        def recording(fn, items, work, what):
            maps.append(([(src.n, cell) for (src, _), cell in items], work))
            return fork_map(fn, items, work, what)

        monkeypatch.setattr(experiment, "fork_map", recording)
        spec = self.spec([pair_files, ("no_such_file.csv", "x.csv"), no_shared_class_pair],
                         (0.1, 0.3), 2)
        run_experiment(spec, self.cfg())
        cells = [(0.1, 0), (0.1, 1), (0.3, 0), (0.3, 1)]
        # 150 and 200 source records; 32 and 40 labeled target records
        assert maps == [([(n, cell) for cell in cells for n in (150, 200)],
                         [2 * 3 * (150 + 32), 2 * 3 * (200 + 40)] * 4)]

    def test_no_nested_fork(self, pair_files, fork_in):
        # with the gate at zero, every cell's forests would fork too
        forks = fork_in(2)
        report = run_experiment(self.spec([pair_files], repeats=2), self.cfg())
        assert report.pairs[0]["methods"]["tlf"]["runs"] == 2
        assert forks() == [os.getpid()]
        # the caller is a worker only while it runs its own share
        run_experiment(self.spec([pair_files]), self.cfg())
        assert len(forks()) == 1 + 3 and set(forks()) == {os.getpid()}
        assert_no_children()

    def test_child_exception_raised_in_parent(self, pair_files, monkeypatch, fork_in):
        fork_in(3)
        parent, run_cell = os.getpid(), experiment._run_cell

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("cell failed")
            return run_cell(*args)

        monkeypatch.setattr(experiment, "_run_cell", failing)
        with pytest.raises(RuntimeError, match="cell failed"):
            run_experiment(self.spec([pair_files], repeats=3), self.cfg())
        assert_no_children()

    def test_fold_keeps_cell_order(self):
        spec = self.spec([("s.csv", "t.csv")], methods=("tlf", "target_only"))
        scores = [EvalMetrics(acc, (acc,), (acc,), (acc,), acc, ("a",)) for acc in (0.5, 0.75)]
        cells = [({"tlf": "MatchingError: none", "target_only": scores[0]}, None),
                 ({"tlf": scores[0], "target_only": "DataError: x"},
                  {"n_pivots": 0, "mu": None, "fallback": True}),
                 ({"tlf": scores[1], "target_only": scores[1]},
                  {"n_pivots": 4, "mu": 0.25, "fallback": False}),
                 ({"tlf": scores[1], "target_only": scores[0]},
                  {"n_pivots": 2, "mu": 0.75, "fallback": False})]
        block = experiment._fold_cells(spec, 0.1, cells)
        for method in spec.methods:
            assert block["methods"][method]["runs"] == 3
            assert block["methods"][method]["failed_runs"] == 1
        # mu only from adapted cells
        assert block["diagnostics"] == {"n_pivots": 2.0, "mu": 0.5, "fallback_runs": 1}

    def test_cell_data_error_fails_the_pair(self, pair_files, monkeypatch, fork_in):
        fork_in(2)
        parent, inject = os.getpid(), experiment.inject_missing

        def failing(ds, ratio, seed):
            if os.getpid() != parent:
                raise DataError("injection failed")
            return inject(ds, ratio, seed)

        monkeypatch.setattr(experiment, "inject_missing", failing)
        spec = self.spec([pair_files, pair_files], ratios=(0.1, 0.2))
        report = run_experiment(spec, self.cfg())
        assert [p.get("error") for p in report.pairs] == ["DataError: injection failed"] * 2
        assert_no_children()

    def test_failed_fork_fails_every_loaded_pair(self, pair_files, monkeypatch, fork_in,
                                                 tmp_path):
        fork_in(2)

        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        spec = self.spec([pair_files, ("no_such_file.csv", "x.csv"), pair_files], repeats=2)
        report = run_experiment(spec, self.cfg())
        errors = [p["error"] for p in report.pairs]
        assert errors[0] == errors[2] == ("BlockingIOError: [Errno 11] Resource temporarily "
                                          "unavailable")
        assert errors[1].startswith("FileNotFoundError")
        assert all(path.exists() for path in report.write(tmp_path / "report"))
        assert_no_children()

    def test_dead_cell_worker_fails_every_loaded_pair(self, pair_files, no_shared_class_pair,
                                                      monkeypatch, fork_in):
        forks = fork_in(2)
        parent, run_cell = os.getpid(), experiment._run_cell

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run_cell(*args)

        monkeypatch.setattr(experiment, "_run_cell", dying)
        spec = self.spec([pair_files, no_shared_class_pair], repeats=2)
        report = run_experiment(spec, self.cfg())
        assert len(forks()) == 1
        for pair in report.pairs:
            assert re.fullmatch(r"ChildProcessError: worker \d+ ended with exit code 3 before "
                                r"sending its cells", pair["error"])
        assert_no_children()

    def test_dead_forest_worker_fails_its_pair(self, pair_files, no_shared_class_pair,
                                               monkeypatch, fork_in):
        # one cell each, of unequal work: each runs here as no worker, and its
        # forests fork; a worker growing the 150-record source forest dies
        fork_in(2)
        parent, grow_tree = os.getpid(), forest_module._grow_tree

        def dying(X, *args):
            if os.getpid() != parent and X.shape[0] == 150:
                os._exit(3)
            return grow_tree(X, *args)

        monkeypatch.setattr(forest_module, "_grow_tree", dying)
        report = run_experiment(self.spec([pair_files, no_shared_class_pair]), self.cfg())
        assert re.fullmatch(r"ChildProcessError: worker \d+ ended with exit code 3 before "
                            r"sending its trees", report.pairs[0]["error"])
        assert report.pairs[1]["methods"]["tlf"]["error"].startswith("MatchingError")
        assert report.pairs[1]["methods"]["source_only"]["runs"] == 1
        assert_no_children()

    def test_unequal_one_cell_pairs_fork_as_alone(self, pair_files, no_shared_class_pair,
                                                  fork_in):
        # a cell heavier than an even share runs here as no worker, so its
        # forests fork as when its pair runs alone; the lighter one follows
        pairs = [pair_files, no_shared_class_pair]
        alone = []
        for files in pairs:
            forks = fork_in(2)
            run_experiment(self.spec([files]), self.cfg())
            alone.append(len(forks()))
        forks = fork_in(2)
        run_experiment(self.spec(pairs), self.cfg())
        assert len(forks()) == sum(alone) > 0
        assert set(forks()) == {os.getpid()}
        assert_no_children()

    def test_each_file_loads_once_per_domain(self, pair_files, monkeypatch):
        loads, load_csv = [], experiment.load_csv

        def counting(path, label_column, domain_tag):
            loads.append((path, domain_tag))
            return load_csv(path, label_column, domain_tag=domain_tag)

        monkeypatch.setattr(experiment, "load_csv", counting)
        a, b = pair_files
        report = run_experiment(self.spec([(a, b), (b, a), (a, b)]), self.cfg())
        assert loads == [(a, "source"), (b, "target"), (b, "source"), (a, "target")]
        assert report.pairs[0] == report.pairs[2]


def loop_forest_predict(predictor, ds):
    """Reference: remap categories and class names one record at a time."""
    raw = np.array(ds.records)
    for j, (a, b) in enumerate(zip(ds.schema, predictor.raw_schema)):
        if a.kind != CATEGORICAL:
            continue
        lookup = {name: i for i, name in enumerate(b.categories)}
        for i in range(ds.n):
            name = a.categories[int(ds.records[i, j])]
            if name not in lookup:
                raise DataError(f"category {name!r} of column {a.name!r} unknown to the model")
            raw[i, j] = lookup[name]
    schema = predictor.raw_schema
    preds = predict_many(predictor.forest, encode_records(raw, schema, schema))
    mapping = {name: i for i, name in enumerate(ds.class_names)}
    return np.array([mapping.get(predictor.class_names[p], -1) for p in preds])


class TestBaselineModel:
    """A baseline model (a plain forest) scores a dataset that lists its
    categories and classes in another order."""

    @staticmethod
    def predictor(rng):
        schema = (AttributeSchema("a", NUMERIC), AttributeSchema("b", CATEGORICAL, ("x", "y", "z")),
                  AttributeSchema("c", CATEGORICAL, ("u", "v")))
        X = np.column_stack([rng.normal(size=300), rng.integers(0, 3, 300),
                             rng.integers(0, 2, 300)])
        y = (X[:, 0] + (X[:, 1] == 1) - (X[:, 2] == 0) > 0).astype(int) + (X[:, 1] == 2)
        train = Dataset(schema, X, y, ("lo", "mid", "hi"))
        encoded = Dataset(
            tuple(AttributeSchema(f"e{k}", NUMERIC) for k in range(6)),
            encode_records(X, schema, schema), y, train.class_names,
        )
        forest = train_forest(encoded, n_trees=5, min_leaf_size=5, seed=0)
        return baseline_model(forest, train)

    def test_matches_loop_on_reordered_categories(self):
        rng = np.random.default_rng(6)
        predictor = self.predictor(rng)
        # another file: categories and classes in another order, one class unknown
        schema = (AttributeSchema("a", NUMERIC), AttributeSchema("b", CATEGORICAL, ("z", "x", "y")),
                  AttributeSchema("c", CATEGORICAL, ("v", "u")))
        X = np.column_stack([rng.normal(size=500), rng.integers(0, 3, 500),
                             rng.integers(0, 2, 500)])
        ds = Dataset(schema, X, rng.integers(0, 3, 500), ("hi", "other", "lo"))
        got = predictor.predict_many(ds)
        want = loop_forest_predict(predictor, ds)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert set(np.unique(got)) >= {-1, 0, 2}

    def test_unknown_category_message_unchanged(self):
        rng = np.random.default_rng(7)
        predictor = self.predictor(rng)
        schema = (AttributeSchema("a", NUMERIC), AttributeSchema("b", CATEGORICAL, ("x", "q", "w")),
                  AttributeSchema("c", CATEGORICAL, ("u", "v")))
        ds = Dataset(schema, [[0.0, 0.0, 0.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]],
                     [0, 0, 0], ("lo",))
        with pytest.raises(DataError) as got:
            predictor.predict_many(ds)
        with pytest.raises(DataError) as want:
            loop_forest_predict(predictor, ds)
        assert str(got.value) == str(want.value) == \
            "category 'w' of column 'b' unknown to the model"


class TestReports:
    def _report(self, pair_files, tmp_path):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files),),
            split=SplitSpec(0.2, 0),
            methods=("tlf", "target_only"),
            output=str(tmp_path / "report"),
        )
        return spec, run_experiment(spec, small_cfg())

    def test_csv_round_trip_six_decimals(self, pair_files, tmp_path):
        spec, report = self._report(pair_files, tmp_path)
        json_path, csv_path = report.write(spec.output)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        payload = json.loads(json_path.read_text())
        data_row = rows[0]
        for method in spec.methods:
            stored = payload["pairs"][0]["methods"][method]["accuracy"]
            assert abs(float(data_row[method]) - stored) < 5e-7

    def test_csv_has_average_row(self, pair_files, tmp_path):
        spec, report = self._report(pair_files, tmp_path)
        text = report.to_csv()
        assert text.splitlines()[-1].startswith("Average,")

    def test_byte_identical_reports(self, pair_files, tmp_path):
        spec = ExperimentSpec(
            pairs=(PairSpec(*pair_files),),
            split=SplitSpec(0.2, 3),
            repeats=2,
            methods=("tlf", "target_only"),
        )
        r1 = run_experiment(spec, small_cfg(seed=3))
        r2 = run_experiment(spec, small_cfg(seed=3))
        assert r1.to_csv() == r2.to_csv()
        assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())

    def test_pairs_sharing_a_name_stay_apart(self):
        # both pairs are named "train->test"; each is its own row and group
        spec = ExperimentSpec(pairs=(PairSpec("a/train.csv", "a/test.csv"),
                                     PairSpec("b/train.csv", "b/test.csv")),
                              methods=("tlf", "target_only"))
        results = [
            {"pair": p.name, "source": p.source, "target": p.target, "group": p.group,
             "methods": {"tlf": {"accuracy": acc}, "target_only": {"accuracy": 0.9}}}
            for p, acc in zip(spec.pairs, (0.5, 0.6))
        ]
        report = EvaluationReport.assemble(spec, TransferConfig(), results)
        assert report.aggregates["tlf"] == {"mean_accuracy": 0.55, "pairs": 2}
        for level in ("pair", "group"):
            entry = report.significance["sign_test"][level]["tlf_vs_target_only"]
            assert (entry["wins"], entry["losses"], entry["ties"]) == (0, 2, 0)
        assert report.significance["nemenyi"]["datasets"] == 2


    def test_csv_quotes_names_that_hold_commas_and_quotes(self):
        # a config line `s.csv :: t.csv :: g,1` names a group holding a comma
        spec = ExperimentSpec(pairs=(PairSpec('s,"1".csv', "t.csv", "g,1"),
                                     PairSpec("s.csv", 't"2".csv', 'say "hi"')),
                              methods=("tlf", "target_only"))
        results = [
            {"pair": p.name, **asdict(p),
             "methods": {"tlf": {"accuracy": 0.5}, "target_only": {"accuracy": 0.25}}}
            for p in spec.pairs
        ]
        text = EvaluationReport.assemble(spec, TransferConfig(), results).to_csv()
        rows = list(csv.reader(text.splitlines(keepends=True)))
        assert [len(row) for row in rows] == [4] * 4
        assert rows == [["pair", "group", "tlf", "target_only"],
                        ['s,"1"->t', "g,1", "0.500000", "0.250000"],
                        ['s->t"2"', 'say "hi"', "0.500000", "0.250000"],
                        ["Average", "", "0.500000", "0.250000"]]

    def test_csv_row_per_inject_ratio(self):
        # the accuracies of such a pair sit under by_ratio; each ratio gets
        # its row, and the Average row mirrors the aggregates, which count
        # only pairs scored without inject ratios
        spec = ExperimentSpec(pairs=(PairSpec("s.csv", "t.csv", "g"),),
                              methods=("tlf", "target_only"), missing_mode="impute",
                              inject_ratios=(0.1, 0.3))
        blocks = [(0.1, {"tlf": {"accuracy": 0.5}, "target_only": {"accuracy": 0.25}}),
                  (0.3, {"tlf": {"accuracy": 0.75}, "target_only": {"error": "DataError: x"}})]
        results = [{"pair": "s->t", **asdict(spec.pairs[0]),
                    "by_ratio": [{"inject_ratio": ratio, "methods": methods}
                                 for ratio, methods in blocks]}]
        report = EvaluationReport.assemble(spec, TransferConfig(), results)
        rows = list(csv.reader(report.to_csv().splitlines(keepends=True)))
        assert rows == [["pair", "group", "tlf", "target_only"],
                        ["s->t inject=0.1", "g", "0.500000", "0.250000"],
                        ["s->t inject=0.3", "g", "0.750000", ""],
                        ["Average", "", "", ""]]
        assert all(entry["mean_accuracy"] is None for entry in report.aggregates.values())


class TestSpecValidation:
    def test_needs_pairs(self):
        with pytest.raises(DataError):
            ExperimentSpec(pairs=())

    def test_unknown_method(self):
        with pytest.raises(DataError):
            ExperimentSpec(pairs=(PairSpec("a", "b"),), methods=("nope",))

    def test_duplicate_method(self):
        with pytest.raises(DataError, match=r"\['target_only'\] listed more than once"):
            ExperimentSpec(pairs=(PairSpec("a", "b"),),
                           methods=("target_only", "target_only"), repeats=2)

    def test_inject_needs_repair_mode(self):
        with pytest.raises(DataError):
            ExperimentSpec(pairs=(PairSpec("a", "b"),), inject_ratios=(0.1,))

    @pytest.mark.parametrize("ratios", [(0.7,), (0.1, -0.1), (0.5, 0.51)])
    def test_inject_ratio_outside_half_rejected(self, ratios):
        with pytest.raises(DataError, match=r"inject_ratios \[.*\] must be in \[0, 0.5\]"):
            ExperimentSpec(pairs=(PairSpec("a", "b"),), missing_mode="impute",
                           inject_ratios=ratios)

    def test_inject_ratio_bounds_accepted(self):
        spec = ExperimentSpec(pairs=(PairSpec("a", "b"),), missing_mode="srd",
                              inject_ratios=(0.0, 0.5))
        assert spec.inject_ratios == (0.0, 0.5)

    @pytest.mark.parametrize("field, value, rule", [
        ("repeats", 2.5, "of type int"),
        ("repeats", True, "of type int"),
        ("split", (0.2, 1), "of type SplitSpec"),
        ("inject_ratios", 0.1, "of type tuple[float, ...]"),
        ("inject_ratios", [0.1], "of type tuple[float, ...]"),
        ("inject_ratios", (0.1, float("nan")), "of type tuple[float, ...]"),
        ("inject_ratios", (True,), "of type tuple[float, ...]"),
        ("methods", ["tlf"], "of type tuple[str, ...]"),
        ("methods", ("tlf", None), "of type tuple[str, ...]"),
        ("pairs", [PairSpec("a", "b")], "of type tuple[PairSpec, ...]"),
        ("pairs", (("a", "b"),), "of type tuple[PairSpec, ...]"),
        ("label_column", None, "of type str"),
        ("output", Path("report"), "of type str"),
    ])
    def test_field_of_another_type_named(self, field, value, rule):
        fields = {"pairs": (PairSpec("a", "b"),), "missing_mode": "impute", field: value}
        with pytest.raises(DataError, match=f"^ExperimentSpec field '{field}' = .* is not "
                                            f"{re.escape(rule)}$"):
            ExperimentSpec(**fields)

    @pytest.mark.parametrize("field", ["source", "target", "group"])
    def test_pair_field_of_another_type_named(self, field):
        fields = {"source": "a.csv", "target": "b.csv", field: Path("c.csv")}
        with pytest.raises(DataError, match=f"^PairSpec field '{field}' = .*Path.* is not "
                                            f"of type str$"):
            PairSpec(**fields)

    def test_path_pair_rejected_before_any_report(self, pair_files, tmp_path):
        # a Path pair would run every cell, then fail to write the report
        # and leave a truncated JSON file behind
        output = tmp_path / "report"
        with pytest.raises(DataError, match="PairSpec field 'source'"):
            spec = ExperimentSpec(pairs=(PairSpec(*map(Path, pair_files)),), output=str(output))
            run_experiment(spec, small_cfg()).write(spec.output)
        assert list(tmp_path.iterdir()) == []


#: Odd values a config file may give any key: numbers of every kind
#: (non-finite, beyond the float range, fractional for an int key) and
#: nothing, then words, lists, pair lines and interpolations.
ODD_NUMBERS = ("nan", "-inf", "inf", "1e400", "-1e400", "NaN", "1.5", "-2", "1" * 400, "true",
               "")
ODD_WORDS = ("rbf", "literal", "tlf", "tlf, tlf", "0.1, 0.7", "0.1, nan", "srd",
             "s.csv :: t.csv :: g", "s.csv", "%(seed)s", "%(trees)s", "50%")

#: A value that each key reads without an error, so that a drawn file often
#: holds one odd value among sound ones.
SOUND_VALUES = {"pairs": "s.csv :: t.csv", "label_column": "label", "split_fraction": "0.2",
                "seed": "4", "repeats": "2", "methods": "tlf", "missing_mode": "impute",
                "inject_ratios": "0.1", "output": "report", "trees": "3", "min_leaf_small": "5",
                "min_leaf_large": "40", "large_threshold": "5000", "divergence_threshold": "0.2",
                "mmd": "2", "manifold": "0.25", "kernel": "linear", "tress": "3", "depth": "3"}


@st.composite
def config_texts(draw):
    """Ini text that sets drawn keys to drawn values: each key the config
    reads in its own section or in [DEFAULT], a few unknown or misplaced
    keys, often a pair line, mostly sound values with some odd ones, and
    sometimes a repeated line or a key before any section."""
    known = [(section, key) for section, key, _, _ in experiment._CONFIG_KEYS]
    places = sorted({*known, *(("DEFAULT", key) for _, key in known),
                     ("forest", "tress"), ("adapt", "pairs"), ("extra", "depth")})
    odd = {"number": st.sampled_from(ODD_NUMBERS), "word": st.sampled_from(ODD_WORDS),
           "text": st.text(st.characters(blacklist_categories=("Cs",),
                                         blacklist_characters="\n\r"), max_size=6)}
    chosen = draw(st.lists(st.sampled_from(places), unique=True, max_size=8))
    if all(key != "pairs" for _, key in chosen) and draw(st.booleans()):
        chosen.append(("experiment", "pairs"))
    lines = []
    for section in dict.fromkeys(section for section, _ in chosen):
        lines.append(f"[{section}]")
        for key in [key for s, key in chosen if s == section]:
            kind = draw(st.sampled_from(["sound"] * 4 + list(odd)))
            lines.append(f"{key} = {SOUND_VALUES[key] if kind == 'sound' else draw(odd[kind])}")
    flaw = draw(st.sampled_from(["none"] * 6 + ["repeat", "no section"]))
    if flaw == "repeat" and lines:
        lines.append(lines[-1])
    elif flaw == "no section":
        lines.insert(0, "trees = 3")
    return "\n".join(lines) + "\n"


class TestConfigFile:
    def test_parse_round_trip(self, tmp_path):
        text = """
[experiment]
pairs =
    s1.csv :: t1.csv :: groupA
    s2.csv :: t2.csv
label_column = klass
split_fraction = 0.1
seed = 5
repeats = 2
methods = tlf, target_only
missing_mode = impute
inject_ratios = 0.1, 0.3
output = out/rep

[forest]
trees = 7
min_leaf_small = 4
min_leaf_large = 40
large_threshold = 5000

[pivot]
divergence_threshold = 0.2

[adapt]
mmd = 2.0
manifold = 0.25
kernel = linear
"""
        path = tmp_path / "spec.ini"
        path.write_text(text, encoding="utf-8")
        spec, cfg = parse_config(path)
        assert spec.pairs == (PairSpec("s1.csv", "t1.csv", "groupA"),
                              PairSpec("s2.csv", "t2.csv"))
        assert spec.label_column == "klass"
        assert spec.split == SplitSpec(0.1, 5)
        assert spec.repeats == 2
        assert spec.methods == ("tlf", "target_only")
        assert spec.inject_ratios == (0.1, 0.3)
        assert cfg.n_trees == 7
        assert cfg.min_leaf_small == 4
        assert cfg.pivot_threshold == 0.2
        assert cfg.mmd == 2.0 and cfg.manifold == 0.25
        assert cfg.kernel == "linear"
        assert cfg.seed == 5

    def test_byte_order_mark_skipped(self, tmp_path):
        text = "[experiment]\npairs = a.csv :: b.csv\nrepeats = 2\n[forest]\ntrees = 3\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert parse_config(marked) == parse_config(plain)
        assert parse_transfer_config(marked) == TransferConfig(n_trees=3)

    def test_inject_ratio_outside_half_rejected(self, tmp_path):
        path = tmp_path / "spec.ini"
        path.write_text("[experiment]\npairs = s.csv :: t.csv\nmissing_mode = impute\n"
                        "inject_ratios = 0.1, 0.7\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"inject_ratios \[0.7\] must be in \[0, 0.5\]"):
            parse_config(path)

    def test_defaults_when_sections_missing(self, tmp_path):
        path = tmp_path / "mini.ini"
        path.write_text("[experiment]\npairs = a.csv :: b.csv\n", encoding="utf-8")
        spec, cfg = parse_config(path)
        assert spec.split == SplitSpec(0.05, 0)
        assert spec == ExperimentSpec(pairs=(PairSpec("a.csv", "b.csv"),))
        assert spec.methods == METHODS
        assert cfg == TransferConfig()

    def test_default_section_key_taken_by_a_section(self, tmp_path):
        # configparser copies [DEFAULT] keys into every section; `seed` is
        # an [experiment] key, so it is accepted and reaches the seeds
        path = tmp_path / "defaults.ini"
        path.write_text("[DEFAULT]\nseed = 4\n[experiment]\npairs = a.csv :: b.csv\n"
                        "[forest]\ntrees = 3\n", encoding="utf-8")
        spec, cfg = parse_config(path)
        assert spec.split.seed == 4 and cfg.seed == 4 and cfg.n_trees == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_config(tmp_path / "absent.ini")

    @settings(max_examples=300)
    @given(text=config_texts())
    def test_drawn_file_parses_or_is_data_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "drawn.ini"
        path.write_text(text, encoding="utf-8")
        for parse in (parse_config, parse_transfer_config):
            try:
                parsed = parse(path)
            except DataError:
                continue
            if parse is parse_config:
                spec, cfg = parsed
                assert isinstance(spec, ExperimentSpec)
            else:
                cfg = parsed
            assert isinstance(cfg, TransferConfig)
            assert all(np.isfinite([cfg.pivot_threshold, cfg.mmd, cfg.manifold]))
