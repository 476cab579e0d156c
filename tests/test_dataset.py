import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafbridge.dataset import (
    CATEGORICAL,
    COPY_ROWS,
    NUMERIC,
    AttributeSchema,
    Dataset,
    SplitSpec,
    align_categories,
    encode_records,
    encoded_schema,
    inject_missing,
    load_csv,
    name_index,
    one_hot_encode,
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

    def test_schema_hint_of_unknown_kind(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,label\n1,p\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="unknown attribute kind 'ordinal' for 'a'"):
            load_csv(path, "label", schema_hint={"a": "ordinal"})

    @pytest.mark.parametrize("column", ["b", "label"])
    def test_schema_hint_of_a_column_the_file_lacks(self, tmp_path, column):
        path = tmp_path / "h.csv"
        path.write_text("a,label\n1,p\n2,q\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"schema_hint names column '{column}'"):
            load_csv(path, "label", schema_hint={column: CATEGORICAL, "a": NUMERIC})

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

    @pytest.mark.parametrize("label_column", ["label", "y"])
    def test_write_rejects_an_attribute_named_like_the_label_column(self, tmp_path,
                                                                    label_column):
        # its header would name the label column twice
        ds = Dataset((AttributeSchema("a", NUMERIC), AttributeSchema(label_column, NUMERIC)),
                     [[1.0, 2.0]], [0], ("p",))
        out = tmp_path / "label.csv"
        with pytest.raises(DataError, match=f"attribute '{label_column}': it is the label column"):
            write_csv(ds, out, label_column)
        assert not out.exists()

    @pytest.mark.parametrize("token", ["?", ""])
    def test_write_rejects_a_missing_token_as_category_or_class(self, tmp_path, token):
        # load_csv would read the category as a missing cell, the class as a
        # missing label value
        out = tmp_path / "token.csv"
        with pytest.raises(DataError, match=re.escape(
                f"cannot write category of attribute 'k' {token!r}: load_csv reads it as "
                f"missing")):
            write_csv(Dataset((AttributeSchema("k", CATEGORICAL, ("x", token)),),
                              [[0.0], [1.0]], [0, 1], ("p", "q")), out)
        with pytest.raises(DataError, match=re.escape(
                f"cannot write class {token!r}: load_csv reads it as missing")):
            write_csv(Dataset((AttributeSchema("a", NUMERIC),), [[0.0], [1.0]], [0, 1],
                              ("p", token)), out)
        assert not out.exists()

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,label\n1,caf\xe9\n".encode("latin-1"))
        with pytest.raises(ParseError, match=r"latin1.csv: not UTF-8 text"):
            load_csv(path, "label")

    def test_nan_word_in_text_column_is_a_category(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,label\nx,p\nnan,q\n", encoding="utf-8")
        ds = load_csv(path, "label")
        assert ds.schema[0] == AttributeSchema("a", CATEGORICAL, ("x", "nan"))

    # blank rows and missing cells before the fault: the line is the file's,
    # not the fault's position among the kept rows or the present cells
    @pytest.mark.parametrize("text, hint, message", [
        ("a,label\n1,p\n\n2,?\n", None, "line 4: missing label value"),
        ("label,a\np,1\n\n\n,2\n", None, "line 5: missing label value"),
        ("a,b,label\n1,2,p\n\n?,inf,q\n", None,
         "line 4: non-finite value 'inf' in numeric column 'b' (list it in missing_tokens "
         "to read it as a missing cell)"),
        ("a,label\n?,p\n\n1,q\n\n-NaN,q\n", None,
         "line 6: non-finite value '-NaN' in numeric column 'a' (list it in missing_tokens "
         "to read it as a missing cell)"),
        ("a,label\n1,p\n\nx,q\n", {"a": NUMERIC}, "line 4: non-numeric value 'x' in "
         "numeric column 'a'"),
        ("a,label\n?,p\n\n1,q\n\n\n2_0,q\n", {"a": NUMERIC},
         "line 7: non-numeric value '2_0' in numeric column 'a'"),
        # a quoted cell that spans two lines counts both
        ('a,label\n"x\ny",p\n1,?\n', None, "line 4: missing label value"),
        ('a,b,label\n"x\ny",1,p\n2,z,q\n', {"b": NUMERIC},
         "line 4: non-numeric value 'z' in numeric column 'b'"),
        ('a,b,label\n"x\ny",1,p\n2,inf,q\n', None,
         "line 4: non-finite value 'inf' in numeric column 'b' (list it in missing_tokens "
         "to read it as a missing cell)"),
        ('a,label\n"x\ny",p\n1,q,r\n', None, "line 4 has 3 cells, header has 2"),
    ], ids=["label", "label first", "non-finite", "non-finite after missing", "non-numeric",
            "underscore after missing", "label after a two-line cell",
            "non-numeric after a two-line cell", "non-finite after a two-line cell",
            "cell count after a two-line cell"])
    def test_error_names_the_file_line(self, tmp_path, text, hint, message):
        path = tmp_path / "lines.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_csv(path, "label", schema_hint=hint)
        assert str(info.value) == f"{path}: {message}"

    def test_header_naming_a_column_twice(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("a,b,a,label\n1,2,3,p\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"twice.csv: header names column 'a' more than once"):
            load_csv(path, "label")

    def test_header_naming_the_label_column_twice(self, tmp_path):
        # else the first `label` would be the labels, the second an attribute
        path = tmp_path / "twice_label.csv"
        path.write_text("a,label,label\n1,p,q\n", encoding="utf-8")
        with pytest.raises(SchemaError,
                           match=r"twice_label.csv: header names column 'label' more than once"):
            load_csv(path, "label")


def hstack_encode_records(records, schema):
    """Reference encoding: one block per raw column, stacked by np.hstack
    into a row-major matrix."""
    records = np.asarray(records, dtype=np.float64)
    blocks = []
    for j, attr in enumerate(schema):
        col = records[:, j]
        if attr.kind == NUMERIC:
            blocks.append(col[:, None])
        else:
            onehot = np.zeros((records.shape[0], len(attr.categories)))
            onehot[np.arange(records.shape[0]), col.astype(np.int64)] = 1.0
            blocks.append(onehot)
    return np.hstack(blocks)


def mixed_records(rng, n, schema):
    """n random complete records of a raw schema."""
    return np.column_stack([
        rng.normal(size=n) if a.kind == NUMERIC else rng.integers(0, len(a.categories), n)
        for a in schema
    ]).astype(np.float64)


def schema_of(kinds):
    """A raw schema from a kind string: `n` numeric, `c` categorical."""
    return tuple(
        AttributeSchema(f"a{j}", NUMERIC) if kind == "n"
        else AttributeSchema(f"a{j}", CATEGORICAL, tuple("uvwxyz"[:1 + j % 5]))
        for j, kind in enumerate(kinds)
    )


def laid_out(records, layout, rng):
    """records as a C-ordered, F-ordered or sliced (no layout) matrix."""
    if layout == "F":
        return np.asfortranarray(records)
    if layout == "sliced":
        # every other row of a matrix with extra columns
        wide = np.column_stack([records, rng.normal(size=(records.shape[0], 2))])
        return np.repeat(wide, 2, axis=0)[::2, :records.shape[1]]
    return np.ascontiguousarray(records)


class TestOneHot:
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("kinds", ["n", "c", "ncn", "ccnnc"])
    def test_encode_records_matches_hstack(self, layout, kinds):
        rng = np.random.default_rng(len(kinds))
        schema = schema_of(kinds)
        records = laid_out(mixed_records(rng, 300, schema), layout, rng)
        want = hstack_encode_records(records, schema)
        for batch in (records, records[:1]):
            got = encode_records(batch, schema)
            assert got.flags.f_contiguous and got.dtype == np.float64
            assert got.shape == (batch.shape[0], len(encoded_schema(schema)))
            assert got.tobytes() == want[:batch.shape[0]].tobytes()

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("kinds", ["n", "ncn", "ccnnc"])
    @pytest.mark.parametrize("n", [1, COPY_ROWS - 1, COPY_ROWS, COPY_ROWS + 1,
                                   2 * COPY_ROWS + 3])
    def test_encode_records_at_block_edges(self, n, kinds, layout):
        rng = np.random.default_rng(n)
        schema = schema_of(kinds)
        records = laid_out(mixed_records(rng, n, schema), layout, rng)
        got = encode_records(records, schema)
        assert got.flags.f_contiguous
        assert got.tobytes() == hstack_encode_records(records, schema).tobytes()

    def test_encoded_dataset_is_row_major(self):
        schema = (AttributeSchema("num", NUMERIC), AttributeSchema("c", CATEGORICAL, ("a", "b")))
        records = mixed_records(np.random.default_rng(1), 50, schema)
        enc = one_hot_encode(Dataset(schema, records, np.zeros(50, dtype=int), ("p",)))
        assert enc.records.flags.c_contiguous
        assert enc.records.tobytes() == hstack_encode_records(records, schema).tobytes()
        assert Dataset(enc.schema, np.asfortranarray(enc.records), enc.labels,
                       enc.class_names).records.flags.c_contiguous

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


class TestAlignCategories:
    SCHEMA = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("a", "b", "c")))

    def test_same_order_returns_records_uncopied(self):
        ds = Dataset(self.SCHEMA, [[0.5, 2.0], [1.5, 0.0]], [0, 1], ("n", "y"))
        assert align_categories(ds, self.SCHEMA) is ds.records

    def test_reindexes_by_name_and_keeps_missing(self):
        schema = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("c", "a")))
        ds = Dataset(schema, [[0.5, 0.0], [1.5, 1.0], [2.5, np.nan]], [0, 1, 0], ("n", "y"))
        aligned = align_categories(ds, self.SCHEMA)
        np.testing.assert_array_equal(aligned, [[0.5, 2.0], [1.5, 0.0], [2.5, np.nan]])
        np.testing.assert_array_equal(ds.records[:, 1], [0.0, 1.0, np.nan])

    def test_unknown_category_and_schema_mismatch(self):
        schema = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("a", "z")))
        ds = Dataset(schema, [[0.5, 0.0], [1.5, 1.0]], [0, 1], ("n", "y"))
        with pytest.raises(DataError, match="category 'z' of column 'k' unknown to the model"):
            align_categories(ds, self.SCHEMA)
        for other in ((AttributeSchema("x", NUMERIC), AttributeSchema("j", CATEGORICAL, ("a",))),
                      (AttributeSchema("x", NUMERIC), AttributeSchema("k", NUMERIC)),
                      (AttributeSchema("x", NUMERIC),)):
            with pytest.raises(DataError, match="names or kinds"):
                align_categories(ds, other)


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

    @pytest.mark.parametrize("field, value, rule", [
        ("target_fraction", "0.2", "a finite int or float"),
        ("target_fraction", float("nan"), "a finite int or float"),
        ("target_fraction", True, "a finite int or float"),
        ("seed", 1.0, "of type int"),
        ("seed", np.int64(1), "of type int"),
        ("seed", False, "of type int"),
    ])
    def test_field_of_another_type_named(self, field, value, rule):
        with pytest.raises(DataError, match=f"^SplitSpec field '{field}' = .* is not {rule}$"):
            SplitSpec(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match=r"^seed must be >= 0, got -1$"):
            SplitSpec(0.2, seed=-1)
        assert SplitSpec(0.2, seed=0).seed == 0


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

    @pytest.mark.parametrize("seed, message", [
        (-1, "^seed must be >= 0, got -1$"),
        (2.5, "^seed 2.5 is not an int$"),
        (True, "^seed True is not an int$"),
        ("3", "^seed '3' is not an int$"),
    ])
    def test_seed_that_is_not_an_int_of_at_least_0(self, seed, message):
        # checked before the ratio: a zero ratio never draws from the seed
        ds = numeric_dataset([[1.0, 2.0]], [0])
        for ratio in (0.0, 0.5):
            with pytest.raises(DataError, match=message):
                inject_missing(ds, ratio, seed)


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

    @pytest.mark.parametrize("labels", [[0.7, 1.2], [0.0, 1.5], [0.0, np.nan], [np.inf, 0.0]])
    def test_labels_that_are_not_whole_numbers(self, labels):
        with pytest.raises(DataError, match="labels must be whole class indices"):
            Dataset((AttributeSchema("a", NUMERIC),), [[1.0], [2.0]], labels, ("p", "q"))

    def test_whole_float_labels_stored_as_integers(self):
        ds = Dataset((AttributeSchema("a", NUMERIC),), [[1.0], [2.0]], [1.0, 0.0], ("p", "q"))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

    def test_repeated_class_name(self):
        with pytest.raises(DataError, match="class_names lists 'p' more than once"):
            Dataset((AttributeSchema("a", NUMERIC),), [[1.0]], [0], ("p", "q", "p"))

    def test_repeated_category(self):
        with pytest.raises(SchemaError, match="attribute 'k' lists category 'x' more than once"):
            AttributeSchema("k", CATEGORICAL, ("x", "y", "x"))

    CODED = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("a", "b", "c")))

    @pytest.mark.parametrize("cell", [-1.0, 1.5, -0.5, 3.0, np.inf, -np.inf])
    def test_categorical_cell_that_is_not_a_code(self, cell):
        # such a cell was written as another category by write_csv and
        # one-hot encoded as a truncated code by encode_records
        with pytest.raises(DataError, match=r"record 1: attribute 'k' holds .*, not a "
                                            r"category code below 3"):
            Dataset(self.CODED, [[0.5, 0.0], [1.0, cell], [2.0, 2.0]], [0, 0, 0], ("p",))

    def test_categorical_codes_and_missing_cells_accepted(self):
        records = [[-1.5, 0.0], [np.inf, 2.0], [0.5, np.nan], [1.0, -0.0]]
        ds = Dataset(self.CODED, records, [0, 0, 0, 0], ("p",))
        np.testing.assert_array_equal(ds.records, records)

    def test_encode_records_rejects_missing(self):
        schema = (AttributeSchema("a", NUMERIC), AttributeSchema("k", CATEGORICAL, ("x", "y")))
        for row in ([np.nan, 0.0], [1.0, np.nan]):
            with pytest.raises(MissingValueError):
                encode_records(np.array([row]), schema)


NAMES = st.lists(st.sampled_from(["a", "b", "c", "", "?", "\u00e9"]), max_size=8)


@settings(max_examples=300)
@given(names=NAMES, reference=NAMES)
def test_name_index_matches_tuple_index(names, reference):
    # names absent from the reference map to -1; a repeated one to its first place
    reference = tuple(reference)
    got = name_index(names, reference)
    assert got.dtype == np.int64
    assert got.tolist() == [reference.index(n) if n in reference else -1 for n in names]


#: Category and class names that load_csv reads as text: no missing token,
#: and no cell that float() accepts (an underscore is never a number)
TEXT = st.text(alphabet="ab\u00e9 ,\"\n_", min_size=1, max_size=4).filter(
    lambda t: t.strip() not in ("", "?"))


@st.composite
def csv_datasets(draw):
    """A Dataset that load_csv can read back: categories and classes listed
    in order of first appearance, every categorical column with a present
    cell, and finite numeric cells or missing ones."""
    n = draw(st.integers(1, 8))
    names = draw(st.lists(TEXT.filter(lambda t: t != "label"), min_size=1, max_size=4,
                          unique=True))
    schema, columns = [], []
    for name in names:
        if draw(st.booleans()):
            cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.none(),
                                  min_size=n, max_size=n))
            columns.append([np.nan if c is None else c for c in cells])
            schema.append(AttributeSchema(name, NUMERIC))
        else:
            pool = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
            cells = draw(st.lists(st.sampled_from(pool) | st.none(), min_size=n, max_size=n)
                         .filter(lambda cs: any(c is not None for c in cs)))
            categories = tuple(dict.fromkeys(c for c in cells if c is not None))
            columns.append([np.nan if c is None else categories.index(c) for c in cells])
            schema.append(AttributeSchema(name, CATEGORICAL, categories))
    pool = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    class_names = tuple(dict.fromkeys(labels))
    return Dataset(tuple(schema), np.array(columns, dtype=np.float64).T,
                   [class_names.index(y) for y in labels], class_names, "target")


@settings(max_examples=200)
@given(ds=csv_datasets())
def test_write_csv_load_csv_round_trip(tmp_path_factory, ds):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_csv(ds, path)
    again = load_csv(path, "label", domain_tag="target")
    assert again.equals(ds)
    assert again.records.tobytes() == ds.records.tobytes()
