"""A Dataset's cell facts, `has_missing()` and `is_finite()`: each dataset,
derived or not, scans its records once, and every consumer that reads the
facts raises what a fresh scan would make it raise."""

import csv
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafbridge import experiment
from leafbridge.adaptation import ProjectionMatrix
from leafbridge.dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    Dataset,
    SplitSpec,
    inject_missing,
    one_hot_encode,
    repair_missing,
    split_target,
)
from leafbridge.errors import DataError, EmptyDatasetError, MissingValueError
from leafbridge.experiment import ExperimentSpec, PairSpec, run_experiment
from leafbridge.forest import LeafTable, train_forest
from leafbridge.metrics import evaluate
from leafbridge.pivot import PivotSet
from leafbridge.synthetic import rotated_pair
from leafbridge.transfer import (
    TransferConfig,
    TransferModel,
    fit_forest,
    merge_datasets,
    project_records,
    run_transfer,
    select_transferable,
)
from conftest import assert_owns_its_arrays, drawn_rng, record_cell_reads, record_scans

#: Cells of the drawn numeric columns, then the non-finite ones placed among them.
PLAIN = (0.0, -0.0, 1.5, -2.0, 3.0)
SPECIAL = (np.nan, np.inf, -np.inf)
CODED = AttributeSchema("k", CATEGORICAL, ("a", "b", "c"))


def fresh_facts(ds):
    return {"missing": bool(np.isnan(ds.records).any()),
            "finite": bool(np.isfinite(ds.records).all())}


def assert_true_facts(ds):
    """The facts ds has recorded so far equal a fresh scan, and so do the ones
    it works out now."""
    fresh = fresh_facts(ds)
    for name, value in ds._facts.items():
        assert value == fresh[name], name
    assert (ds.has_missing(), ds.is_finite()) == (fresh["missing"], fresh["finite"])


@st.composite
def fact_datasets(draw, d=None, categorical=None):
    """A small dataset of d numeric columns (drawn when None) whose cells mix
    PLAIN values with up to three NaN or infinite ones, with or without (or
    drawn when None) a last categorical column of codes and maybe a NaN,
    and whose facts are known beforehand or not."""
    rng = drawn_rng(draw)
    n, d = draw(st.integers(2, 10)), d or draw(st.integers(1, 4))
    records = rng.choice(PLAIN, size=(n, d))
    for _ in range(draw(st.integers(0, 3))):
        records[rng.integers(n), rng.integers(d)] = draw(st.sampled_from(SPECIAL))
    schema = tuple(AttributeSchema(f"x{j}", NUMERIC) for j in range(d))
    if draw(st.booleans()) if categorical is None else categorical:
        codes = rng.integers(0, 3, n).astype(np.float64)
        if draw(st.booleans()):
            codes[rng.integers(n)] = np.nan
        records, schema = np.column_stack([records, codes]), schema + (CODED,)
    ds = Dataset(schema, records, rng.integers(0, 2, n), ("p", "q"), "target")
    if draw(st.booleans()):
        ds.has_missing()
    return ds


def derivations(ds, rng):
    """(name, derived dataset) for each derivation of ds that applies."""
    out = [("subset", ds.subset(rng.choice(ds.n, size=rng.integers(1, ds.n + 1)))),
           ("inject_missing", inject_missing(ds, 0.5, seed=int(rng.integers(100))))]
    if ds.n > 1:
        out += zip(("split target", "split test"),
                   split_target(ds, SplitSpec(0.5, int(rng.integers(100)))))
    for mode in ("srd", "impute"):
        # a mean over both infinities is NaN, which stays a missing cell
        with np.errstate(invalid="ignore", over="ignore"):
            try:
                out.append((mode, repair_missing(ds, mode)))
            except (EmptyDatasetError, DataError):
                pass
    if not ds.has_missing():
        out.append(("one_hot_encode", one_hot_encode(ds)))
    if all(a.kind == NUMERIC for a in ds.schema):
        leaves = LeafTable(rng.permutation(ds.n), np.array([0, ds.n // 2, ds.n]))
        out.append(("select_transferable", select_transferable(
            ds, leaves, PivotSet(((1, 0, 0.0),), ("p",), 0.1), np.array([0, 1]))))
        target = tuple(AttributeSchema(f"t{j}", NUMERIC) for j in range(2))
        matrix = rng.choice(PLAIN, size=(ds.d, 2))
        with np.errstate(invalid="ignore", over="ignore"):
            projected = project_records(ds, ProjectionMatrix(matrix), target, ("p", "q"))
        out += [("project_records", projected),
                ("merge_datasets", merge_datasets(projected, replace(projected)))]
    return out


@settings(max_examples=300)
@given(fact_datasets(), st.integers(0, 2**32 - 1))
def test_facts_equal_a_fresh_scan_after_every_derivation(ds, seed):
    rng = np.random.default_rng(seed)
    for _, derived in derivations(ds, rng):
        assert_true_facts(derived)
        # and derived again from a dataset whose facts are now known
        for _, again in derivations(derived, rng):
            assert_true_facts(again)
    assert_true_facts(ds)


def test_a_fact_is_worked_out_once_and_not_a_field(monkeypatch):
    ds = Dataset((AttributeSchema("x", NUMERIC),), [[1.0], [np.inf]], [0, 1], ("p", "q"))
    twin = Dataset(ds.schema, [[1.0], [np.inf]], [0, 1], ("p", "q"))
    scanned = record_scans(monkeypatch)
    for _ in range(3):
        assert (ds.has_missing(), ds.is_finite()) == (False, False)
    assert len(scanned) == 1
    # replace, equals and the repr ignore the facts
    assert ds.equals(twin) and repr(ds) == repr(twin)
    assert replace(ds)._facts == {}


@pytest.mark.parametrize("records", [[[1.0, 0.0], [np.nan, 2.0]], [[np.inf, 1.0], [3.0, 2.0]]])
def test_unpickled_dataset_is_rebuilt_read_only(records):
    schema = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("a", "b", "c")))
    ds = Dataset(schema, records, [0, 1], ("p", "q"))
    facts = (ds.has_missing(), ds.is_finite())
    again = pickle.loads(pickle.dumps(ds))
    assert again.equals(ds)
    assert_owns_its_arrays(again, ds)
    # the facts are worked out afresh, not carried along
    assert again._facts == {}
    assert (again.has_missing(), again.is_finite()) == facts


#: The parent's outcome of each consumer on a part whose only non-finite cells
#: are those listed: MissingValueError with the consumer's text for a NaN
#: cell, else an infinite cell passes, except train_forest's DataError.
MISSING_TEXT = {
    "predict numeric": "cannot predict records with missing cells",
    "predict categorical": "cannot encode records with missing cells",
    "one_hot_encode numeric": "one_hot_encode requires a dataset without missing cells",
    "one_hot_encode categorical": "cannot encode records with missing cells",
    "train_forest": "train_forest requires a dataset without missing cells",
    "run_transfer": "run_transfer requires repaired datasets (no missing cells)",
}


def expected(consumer, part):
    """(error type, text) the parent raised, or None."""
    if np.isnan(part.records).any():
        return MissingValueError, MISSING_TEXT[consumer]
    if consumer in ("train_forest", "run_transfer") and np.isinf(part.records).any():
        i, j = (int(v) for v in np.argwhere(np.isinf(part.records))[0])
        return DataError, (f"train_forest requires finite cells, but record {i} attribute "
                           f"{part.schema[j].name!r} is {float(part.records[i, j])!r}")
    return None


def outcome(call, *args):
    try:
        call(*args)
    except (MissingValueError, DataError) as exc:
        return type(exc), str(exc)
    return None


def _model(categorical: bool) -> TransferModel:
    rng = np.random.default_rng(3)
    X = rng.choice(PLAIN, size=(40, 3))
    schema = tuple(AttributeSchema(f"x{j}", NUMERIC) for j in range(3))
    if categorical:
        X, schema = np.column_stack([X, rng.integers(0, 3, 40)]), schema + (CODED,)
    ds = Dataset(schema, X, rng.integers(0, 2, 40), ("p", "q"), "target")
    cfg = TransferConfig(n_trees=3, min_leaf_small=2)
    return TransferModel(forest=fit_forest(one_hot_encode(ds), cfg), fallback=True,
                         diagnostics={}, raw_schema=schema, config=cfg)


MODELS = {kind: _model(kind == "categorical") for kind in ("numeric", "categorical")}


@settings(max_examples=200)
@given(st.booleans().flatmap(lambda categorical: fact_datasets(3, categorical)))
def test_consumers_raise_the_parent_error(part):
    """part has the models' columns: three numeric ones, maybe a categorical one."""
    kind = "categorical" if part.schema[-1].kind == CATEGORICAL else "numeric"
    model = MODELS[kind]
    for call in (model.predict_many, lambda ds: evaluate(model, ds)):
        assert outcome(call, part) == expected(f"predict {kind}", part)
    assert outcome(one_hot_encode, part) == expected(f"one_hot_encode {kind}", part)
    if kind == "numeric":
        assert outcome(train_forest, part, 2, 1, 0) == expected("train_forest", part)
        clean = Dataset(part.schema, np.ones((4, 3)), [0, 1, 0, 1], ("p", "q"))
        for src, tgt in ((part, clean), (clean, part)) if expected("run_transfer", part) else ():
            assert outcome(run_transfer, src, tgt, TransferConfig(n_trees=2)) == expected(
                "run_transfer", part)


@pytest.mark.parametrize("kind", ["numeric", "categorical"])
def test_inject_missing_part_of_a_predicted_dataset_raises(kind):
    model = MODELS[kind]
    rng = np.random.default_rng(8)
    records = rng.choice(PLAIN, size=(30, len(model.raw_schema)))
    if kind == "categorical":
        records[:, -1] = rng.integers(0, 3, 30)
    test = Dataset(model.raw_schema, records, np.zeros(30, dtype=int), ("p", "q"), "target")
    model.predict_many(test)  # test is now known to be complete
    for part in (inject_missing(test, 0.1, seed=4), inject_missing(test, 0.1, seed=4).subset(
            np.arange(30))):
        for call in (model.predict_many, lambda ds: evaluate(model, ds)):
            assert outcome(call, part) == expected(f"predict {kind}", part)


def test_run_transfer_scans_each_matrix_once(monkeypatch):
    src, tgt = rotated_pair(n_source=300, n_target=200, center_spread=4.0, seed=1)
    cfg = TransferConfig(n_trees=3, min_leaf_small=5)
    scanned = record_scans(monkeypatch)
    model = run_transfer(src, tgt, cfg)
    assert not model.fallback
    # the source, the target and the merged training set of the final forest;
    # nothing asks about the selected source records until they are merged
    assert len(scanned) == 3 and scanned[0] is src.records and scanned[1] is tgt.records
    assert len({id(records) for records in scanned}) == len(scanned)
    run_transfer(src, tgt, cfg)
    assert len(scanned) == 4  # only the new merged set


def write_pair(root, categorical: bool) -> tuple[str, str]:
    """A source/target CSV pair of the same three columns, the last one
    categorical or numeric."""
    paths = []
    for k, ds in enumerate(rotated_pair(n_source=150, n_target=160, center_spread=2.0,
                                        cluster_std=2.0, seed=3)):
        path = root / f"d{k}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "x1", "k", "label"])
            for row, label in zip(ds.records, ds.labels):
                last = "ab"[int(row[2] > 0)] if categorical else row[2]
                writer.writerow([row[0], row[1], last, ds.class_names[label]])
        paths.append(str(path))
    return tuple(paths)


@pytest.mark.parametrize("mode", ["none", "impute"])
@pytest.mark.parametrize("categorical", [False, True], ids=["numeric", "categorical"])
def test_experiment_cell_scans_its_test_part_once(monkeypatch, fork_in, tmp_path, mode,
                                                  categorical):
    pair = write_pair(tmp_path, categorical)
    spec = ExperimentSpec(pairs=(PairSpec(*pair),), missing_mode=mode,
                          inject_ratios=(0.1,) if mode != "none" else ())
    fork_in(1)
    tests, split = [], experiment.split_target

    def recording_split(ds, split_spec):
        parts = split(ds, split_spec)
        tests.append(parts[1])
        return parts

    monkeypatch.setattr(experiment, "split_target", recording_split)
    scanned, read = record_scans(monkeypatch), record_cell_reads(monkeypatch)
    (result,) = run_experiment(spec, TransferConfig(n_trees=3, min_leaf_small=5)).to_dict()[
        "pairs"]
    assert all("error" not in cell for block in result.get("by_ratio", [result])
               for cell in block["methods"].values())
    (test,) = tests
    # scored by three methods, the test part's facts are worked out once: by
    # its repair (or the check that it needs none), never by a prediction;
    # encode_records reads a raw categorical part each time it encodes it
    assert sum(records is test.records for records in scanned) == 1
    encodes = len(spec.methods) if categorical else 0
    assert sum(np.shape(x) == test.records.shape for x in read) == 1 + encodes
