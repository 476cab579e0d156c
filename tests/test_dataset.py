import re

import numpy as np
import pytest

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
    read_schema_sidecar,
    repair_missing,
    split_target,
    write_csv,
)
from leafbridge.errors import (
    DataError,
    EmptyDatasetError,
    MissingValueError,
    ParseError,
    SchemaError,
)
from conftest import numeric_dataset


class TestLoadCsv:
    def test_basic_inference(self, mixed_csv):
        ds = load_csv(mixed_csv, "label")
        assert ds.n == 3 and ds.d == 2
        assert ds.schema[0] == AttributeSchema("a", NUMERIC)
        assert ds.schema[1] == AttributeSchema("b", CATEGORICAL, ("x", "y"))
        assert ds.class_names == ("yes", "no")
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_allclose(ds.records[:, 0], [1.5, 2.5, 3.5])

    def test_numeric_with_missing_stays_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,label\n1,p\n2,p\n?,q\n", encoding="utf-8")
        ds = load_csv(path, "label")
        assert ds.schema[0].kind == NUMERIC
        assert np.isnan(ds.records[2, 0])
        assert ds.missing_mask().sum() == 1

    def test_wrong_arity_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,x,p\n2,q\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, "label")

    def test_unknown_label_column(self, mixed_csv):
        with pytest.raises(SchemaError, match="target"):
            load_csv(mixed_csv, "target")

    def test_schema_hint_pins_kind(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,label\n1,p\n2,q\n", encoding="utf-8")
        ds = load_csv(path, "label", schema_hint={"a": CATEGORICAL})
        assert ds.schema[0].kind == CATEGORICAL
        assert ds.schema[0].categories == ("1", "2")

    def test_round_trip(self, tmp_path, mixed_csv):
        ds = load_csv(mixed_csv, "label")
        out = tmp_path / "copy.csv"
        write_csv(ds, out, label_column="label")
        again = load_csv(out, "label")
        assert ds.equals(again)

    def test_round_trip_with_missing(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,label\n1,x,p\n?,y,q\n3,?,p\n", encoding="utf-8")
        ds = load_csv(path, "label")
        out = tmp_path / "copy.csv"
        write_csv(ds, out)
        assert ds.equals(load_csv(out, "label"))

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "inf", "-inf", "+INF",
                                       "Infinity", "-infinity"])
    def test_non_finite_token_rejected(self, tmp_path, token):
        path = tmp_path / "nf.csv"
        path.write_text(f"a,b,label\n1,2,p\n3,{token},q\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"nf.csv: line 3: .*{re.escape(repr(token))}.*column 'b'"):
            load_csv(path, "label")

    def test_non_finite_token_listed_as_missing(self, tmp_path):
        path = tmp_path / "nf.csv"
        path.write_text("a,label\n1,p\nnan,q\n?,q\n", encoding="utf-8")
        ds = load_csv(path, "label", missing_tokens=("?", "nan"))
        assert ds.schema[0].kind == NUMERIC
        assert np.isnan(ds.records[1:, 0]).all()

    def test_non_finite_token_in_hinted_numeric_column(self, tmp_path):
        path = tmp_path / "nf.csv"
        path.write_text("a,label\nx,p\ninf,q\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: non-numeric"):
            load_csv(path, "label", schema_hint={"a": NUMERIC})
        path.write_text("a,label\n1,p\ninf,q\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            load_csv(path, "label", schema_hint={"a": NUMERIC})
        # the first offending cell is reported, whichever kind of fault it has
        path.write_text("a,label\n1,p\ninf,q\nx,q\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            load_csv(path, "label", schema_hint={"a": NUMERIC})

    def test_underscore_cell_is_not_a_number(self, tmp_path):
        # float() reads "1_000" as 1000.0; a CSV column holding it is text
        path = tmp_path / "u.csv"
        path.write_text("a,b,label\n1_000,1,p\n 2 ,2,q\n3,3,p\n", encoding="utf-8")
        ds = load_csv(path, "label")
        assert ds.schema[0] == AttributeSchema("a", CATEGORICAL, ("1_000", " 2 ", "3"))
        assert ds.schema[1].kind == NUMERIC

    def test_underscore_cell_in_hinted_numeric_column(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("a,label\n1,p\n2_5,q\n", encoding="utf-8")
        with pytest.raises(ParseError,
                           match=r"u.csv: line 3: non-numeric value '2_5' in numeric column 'a'"):
            load_csv(path, "label", schema_hint={"a": NUMERIC})

    def test_spaces_around_a_number_are_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,label\n 2 ,p\n3,q\n", encoding="utf-8")
        ds = load_csv(path, "label")
        assert ds.schema[0].kind == NUMERIC
        np.testing.assert_array_equal(ds.records[:, 0], [2.0, 3.0])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_write_rejects_infinite_cell(self, tmp_path, value):
        ds = numeric_dataset([[1.0, 2.0], [3.0, value]], [0, 1])
        out = tmp_path / "inf.csv"
        with pytest.raises(DataError, match=r"record 1: attribute .*inf"):
            write_csv(ds, out)
        assert not out.exists()

    def test_nan_word_in_text_column_is_a_category(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,label\nx,p\nnan,q\n", encoding="utf-8")
        ds = load_csv(path, "label")
        assert ds.schema[0] == AttributeSchema("a", CATEGORICAL, ("x", "nan"))

    def test_sidecar(self, tmp_path):
        side = tmp_path / "schema.txt"
        side.write_text("# kinds\na: categorical\n", encoding="utf-8")
        assert read_schema_sidecar(side) == {"a": CATEGORICAL}


class TestOneHot:
    def test_single_categorical(self):
        schema = (AttributeSchema("b", CATEGORICAL, ("x", "y")),)
        ds = Dataset(schema, [[0.0], [1.0]], [0, 1], ("p", "q"))
        enc = one_hot_encode(ds)
        assert [a.name for a in enc.schema] == ["b=x", "b=y"]
        np.testing.assert_array_equal(enc.records, [[1, 0], [0, 1]])

    def test_all_numeric_identity(self):
        ds = numeric_dataset([[1.0, 2.0]], [0])
        assert one_hot_encode(ds) is ds

    def test_column_arithmetic(self):
        schema = (
            AttributeSchema("a", CATEGORICAL, ("u", "v")),
            AttributeSchema("b", CATEGORICAL, ("x", "y", "z")),
        )
        ds = Dataset(schema, [[0.0, 2.0]], [0], ("p",))
        enc = one_hot_encode(ds)
        assert enc.d == 5
        assert enc.n == ds.n

    def test_preserves_n_and_net_new_columns(self):
        schema = (
            AttributeSchema("num", NUMERIC),
            AttributeSchema("c1", CATEGORICAL, ("a", "b", "c")),
            AttributeSchema("c2", CATEGORICAL, ("x", "y")),
        )
        rng = np.random.default_rng(0)
        records = np.column_stack([
            rng.normal(size=20), rng.integers(0, 3, 20), rng.integers(0, 2, 20),
        ]).astype(float)
        ds = Dataset(schema, records, rng.integers(0, 2, 20), ("p", "q"))
        enc = one_hot_encode(ds)
        assert enc.n == ds.n
        assert enc.d - ds.d == (3 + 2) - 2

    def test_missing_fails(self):
        schema = (AttributeSchema("b", CATEGORICAL, ("x",)),)
        ds = Dataset(schema, [[np.nan]], [0], ("p",))
        with pytest.raises(MissingValueError):
            one_hot_encode(ds)


class TestSplit:
    def test_protocol_ratio(self):
        ds = numeric_dataset(np.arange(1000.0)[:, None], np.zeros(1000, dtype=int))
        target, test = split_target(ds, SplitSpec(0.05, 7))
        assert target.n == 50 and test.n == 950

    def test_minimum_clamp(self):
        ds = numeric_dataset(np.arange(10.0)[:, None], np.zeros(10, dtype=int))
        target, test = split_target(ds, SplitSpec(0.05, 7))
        assert target.n == 1 and test.n == 9

    def test_deterministic(self):
        ds = numeric_dataset(np.arange(100.0)[:, None], np.zeros(100, dtype=int))
        a1, b1 = split_target(ds, SplitSpec(0.2, 3))
        a2, b2 = split_target(ds, SplitSpec(0.2, 3))
        assert a1.equals(a2) and b1.equals(b2)

    def test_partition(self):
        ds = numeric_dataset(np.arange(40.0)[:, None], np.zeros(40, dtype=int))
        target, test = split_target(ds, SplitSpec(0.3, 11))
        merged = np.sort(np.concatenate([target.records[:, 0], test.records[:, 0]]))
        np.testing.assert_array_equal(merged, ds.records[:, 0])
        assert not set(target.records[:, 0]) & set(test.records[:, 0])

    def test_too_small(self):
        ds = numeric_dataset([[1.0]], [0])
        with pytest.raises(EmptyDatasetError):
            split_target(ds, SplitSpec(0.5, 0))

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            SplitSpec(1.0, 0)


class TestRepairMissing:
    def test_impute_mean(self):
        ds = numeric_dataset([[1.0], [np.nan], [3.0]], [0, 0, 0])
        out = repair_missing(ds, "impute")
        np.testing.assert_allclose(out.records[:, 0], [1.0, 2.0, 3.0])

    def test_srd_deletion_count(self):
        records = [[1.0, 1.0], [np.nan, 2.0], [3.0, np.nan], [4.0, 4.0], [5.0, 5.0]]
        ds = numeric_dataset(records, [0] * 5)
        out = repair_missing(ds, "srd")
        assert out.n == 3

    def test_impute_categorical_mode(self):
        schema = (AttributeSchema("b", CATEGORICAL, ("x", "y")),)
        ds = Dataset(schema, [[0.0], [0.0], [1.0], [np.nan]], [0] * 4, ("p",))
        out = repair_missing(ds, "impute")
        assert out.records[3, 0] == 0.0

    def test_impute_mode_tie_lowest_index(self):
        schema = (AttributeSchema("b", CATEGORICAL, ("x", "y")),)
        ds = Dataset(schema, [[1.0], [0.0], [np.nan]], [0] * 3, ("p",))
        out = repair_missing(ds, "impute")
        assert out.records[2, 0] == 0.0

    def test_impute_idempotent(self):
        rng = np.random.default_rng(5)
        records = rng.normal(size=(30, 4))
        records[rng.random((30, 4)) < 0.2] = np.nan
        ds = numeric_dataset(records, rng.integers(0, 2, 30))
        once = repair_missing(ds, "impute")
        twice = repair_missing(once, "impute")
        assert once.equals(twice)

    def test_srd_empty_result(self):
        ds = numeric_dataset([[np.nan], [np.nan]], [0, 0])
        with pytest.raises(EmptyDatasetError):
            repair_missing(ds, "srd")

    def test_impute_from_reference(self):
        schema = (AttributeSchema("a", NUMERIC), AttributeSchema("b", CATEGORICAL, ("x", "y")))
        ds = Dataset(schema, [[np.nan, 0.0], [100.0, np.nan]], [0, 0], ("p",))
        reference = Dataset(schema, [[1.0, 1.0], [np.nan, 1.0], [4.0, 0.0]], [0] * 3, ("p",))
        out = repair_missing(ds, "impute", reference=reference)
        np.testing.assert_array_equal(out.records, [[2.5, 0.0], [100.0, 1.0]])

    def test_impute_reference_schema_must_match(self):
        ds = numeric_dataset([[np.nan]], [0])
        other = numeric_dataset([[1.0, 2.0]], [0])
        with pytest.raises(SchemaError):
            repair_missing(ds, "impute", reference=other)

    def test_impute_reference_column_entirely_missing(self):
        ds = numeric_dataset([[np.nan, 1.0]], [0])
        reference = numeric_dataset([[np.nan, 1.0], [np.nan, 2.0]], [0, 0])
        with pytest.raises(DataError, match="entirely missing"):
            repair_missing(ds, "impute", reference=reference)

    def test_impute_entirely_missing_column(self):
        ds = numeric_dataset([[np.nan, 1.0], [np.nan, 2.0]], [0, 0])
        with pytest.raises(DataError):
            repair_missing(ds, "impute")


class TestInjectMissing:
    def test_record_count(self):
        rng = np.random.default_rng(0)
        ds = numeric_dataset(rng.normal(size=(100, 8)), rng.integers(0, 2, 100))
        out = inject_missing(ds, 0.5, seed=1)
        assert int(out.missing_mask().any(axis=1).sum()) == 50

    def test_zero_ratio_identity(self):
        ds = numeric_dataset([[1.0, 2.0]], [0])
        assert inject_missing(ds, 0.0, seed=1) is ds

    def test_cell_count_follows_percentage(self):
        # with d=100 a record's missing-cell count equals its drawn y
        rng = np.random.default_rng(0)
        ds = numeric_dataset(rng.normal(size=(40, 100)), rng.integers(0, 2, 40))
        out = inject_missing(ds, 0.5, seed=3)
        per_record = out.missing_mask().sum(axis=1)
        touched = per_record[per_record > 0]
        assert touched.min() >= 1 and touched.max() <= 50

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        ds = numeric_dataset(rng.normal(size=(50, 6)), rng.integers(0, 2, 50))
        assert inject_missing(ds, 0.3, seed=9).equals(inject_missing(ds, 0.3, seed=9))

    def test_ratio_bounds(self):
        ds = numeric_dataset([[1.0]], [0])
        with pytest.raises(DataError):
            inject_missing(ds, 0.6, seed=0)


class TestDatasetInvariants:
    def test_records_are_read_only(self):
        ds = numeric_dataset([[1.0]], [0])
        with pytest.raises(ValueError):
            ds.records[0, 0] = 2.0

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            numeric_dataset([[1.0]], [2], n_classes=1)

    def test_duplicate_attribute_names(self):
        schema = (AttributeSchema("a", NUMERIC), AttributeSchema("a", NUMERIC))
        with pytest.raises(SchemaError):
            Dataset(schema, [[1.0, 2.0]], [0], ("p",))

    def test_encode_records_rejects_missing(self):
        schema = (AttributeSchema("a", NUMERIC),)
        with pytest.raises(MissingValueError):
            encode_records(np.array([[np.nan]]), schema)
