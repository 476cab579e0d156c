import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafbridge.dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    Dataset,
    SplitSpec,
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
from conftest import assert_owns_its_arrays, numeric_dataset, peak_over_output


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

    @pytest.mark.parametrize("text", ["x0,label\n1.5,p\n2,q\n",
                                      "label,x0\np,1.5\nq,2\n"])
    def test_byte_order_mark_skipped(self, tmp_path, text):
        # a UTF-8 byte-order mark, as some spreadsheet exports write, is not
        # part of the first header cell
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        ds = load_csv(marked, "label")
        assert ds.schema[0].name == "x0" and ds.equals(load_csv(plain, "label"))
        out = tmp_path / "copy.csv"
        write_csv(ds, out)
        assert out.read_bytes().startswith(b"x0,label")

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
            got = encode_records(batch, schema, schema)
            assert got.flags.f_contiguous and got.dtype == np.float64
            assert got.shape == (batch.shape[0], len(encoded_schema(schema)))
            assert got.tobytes() == want[:batch.shape[0]].tobytes()

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("kinds", ["n", "ncn", "ccnnc"])
    # batch sizes on either side of 256 rows, the size of a cache-sized row block
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 515])
    def test_encode_records_at_block_edges(self, n, kinds, layout):
        rng = np.random.default_rng(n)
        schema = schema_of(kinds)
        records = laid_out(mixed_records(rng, n, schema), layout, rng)
        got = encode_records(records, schema, schema)
        assert got.flags.f_contiguous
        assert got.tobytes() == hstack_encode_records(records, schema).tobytes()

    def test_encoded_dataset_is_column_major(self):
        schema = (AttributeSchema("num", NUMERIC), AttributeSchema("c", CATEGORICAL, ("a", "b")))
        records = mixed_records(np.random.default_rng(1), 50, schema)
        enc = one_hot_encode(Dataset(schema, records, np.zeros(50, dtype=int), ("p",)))
        assert enc.records.flags.f_contiguous
        assert enc.records.tobytes() == hstack_encode_records(records, schema).tobytes()
        assert Dataset(enc.schema, np.ascontiguousarray(enc.records), enc.labels,
                       enc.class_names).records.flags.f_contiguous

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


def align_categories(ds, trained):
    """The former first pass, kept as the oracle of the folded encoder:
    ds's records with each categorical cell re-indexed by name into
    trained's category order (copied when an order differs), missing cells
    kept NaN; DataError on a schema mismatch or an unknown category."""
    if [(a.name, a.kind) for a in ds.schema] != [(a.name, a.kind) for a in trained]:
        raise DataError("dataset column names or kinds do not match the model's training schema")
    records = ds.records
    for j, (attr, known) in enumerate(zip(ds.schema, trained)):
        if attr.kind != CATEGORICAL or attr.categories == known.categories:
            continue
        if records is ds.records:
            records = records.copy(order="F")
        lookup = name_index(attr.categories, known.categories)
        col = records[:, j]
        present = ~np.isnan(col)
        cells = col[present].astype(np.int64)
        mapped = lookup[cells]
        unknown = np.flatnonzero(mapped < 0)
        if unknown.size:
            name = attr.categories[cells[unknown[0]]]
            raise DataError(f"category {name!r} of column {attr.name!r} unknown to the model")
        col[present] = mapped
    return records


def align_then_encode(ds, trained):
    """Oracle: the former two passes from a test part to its encoded batch,
    `align_categories`, then a missing-cell scan and the encoding."""
    records = align_categories(ds, trained)
    if np.isnan(records).any():
        raise MissingValueError("cannot encode records with missing cells")
    return hstack_encode_records(records, trained)


def outcome(encode, *args):
    """encode(*args), or the type and text of the DataError it raises."""
    try:
        return encode(*args)
    except DataError as exc:
        return type(exc), str(exc)


@st.composite
def encode_cases(draw):
    """A test part and a trained schema of the same column names and kinds:
    a drawn run of numeric and categorical columns, each categorical column
    listing some of the trained categories in a drawn order. The part may
    list one category the trained schema lacks, and may hold a NaN cell."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    schema, trained, columns = [], [], []
    for j, kind in enumerate(draw(st.lists(st.sampled_from("nc"), min_size=1, max_size=6))):
        if kind == "n":
            schema.append(AttributeSchema(f"a{j}", NUMERIC))
            trained.append(schema[-1])
            columns.append(rng.normal(size=n))
            continue
        known = tuple("uvwxyz"[:draw(st.integers(1, 6))])
        listed = draw(st.permutations(known))[:draw(st.integers(1, len(known)))]
        if draw(st.integers(0, 5)) == 5:
            listed.insert(draw(st.integers(0, len(listed))), "q")
        schema.append(AttributeSchema(f"a{j}", CATEGORICAL, tuple(listed)))
        trained.append(AttributeSchema(f"a{j}", CATEGORICAL, known))
        columns.append(rng.integers(0, len(listed), size=n))
    records = np.column_stack(columns).astype(np.float64)
    if draw(st.integers(0, 4)) == 4:
        records[rng.integers(n), rng.integers(records.shape[1])] = np.nan
    return Dataset(tuple(schema), records, np.zeros(n, dtype=int), ("p",)), tuple(trained)


class TestEncodeRecords:
    """encode_records matches a test part's categories to the trained ones
    by name while it encodes; `align_then_encode`, the former two passes,
    is its oracle."""

    SCHEMA = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("a", "b", "c")))

    @settings(max_examples=300)
    @given(encode_cases())
    def test_equals_the_two_pass_oracle(self, case):
        ds, trained = case
        want = outcome(align_then_encode, ds, trained)
        got = outcome(encode_records, ds.records, ds.schema, trained)
        if ds.has_missing():
            # the one pass scans for missing cells before it matches a
            # category, so a missing cell is reported before an unknown one
            assert got == (MissingValueError, "cannot encode records with missing cells")
            assert want[0] in (MissingValueError, DataError)
        elif isinstance(want, tuple):
            assert got == want
        else:
            assert got.flags.f_contiguous and got.tobytes() == want.tobytes()

    def test_same_order_skips_the_name_lookup(self, monkeypatch):
        ds = Dataset(self.SCHEMA, [[0.5, 2.0], [1.5, 0.0]], [0, 1], ("n", "y"))
        monkeypatch.setattr("leafbridge.dataset.name_index", None)
        got = encode_records(ds.records, ds.schema, self.SCHEMA)
        np.testing.assert_array_equal(got, [[0.5, 0, 0, 1], [1.5, 1, 0, 0]])

    def test_matches_categories_by_name_and_rejects_missing(self):
        schema = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("c", "a")))
        ds = Dataset(schema, [[0.5, 0.0], [1.5, 1.0]], [0, 1], ("n", "y"))
        got = encode_records(ds.records, ds.schema, self.SCHEMA)
        np.testing.assert_array_equal(got, [[0.5, 0, 0, 1], [1.5, 1, 0, 0]])
        np.testing.assert_array_equal(ds.records[:, 1], [0.0, 1.0])
        gap = Dataset(schema, [[0.5, 0.0], [np.nan, 1.0], [2.5, np.nan]], [0, 1, 0], ("n", "y"))
        with pytest.raises(MissingValueError, match="cannot encode records with missing cells"):
            encode_records(gap.records, gap.schema, self.SCHEMA)

    def test_unknown_category_named(self):
        schema = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("a", "z")))
        ds = Dataset(schema, [[0.5, 0.0], [1.5, 1.0]], [0, 1], ("n", "y"))
        with pytest.raises(DataError, match="category 'z' of column 'k' unknown to the model"):
            encode_records(ds.records, ds.schema, self.SCHEMA)
        # a missing cell is reported first, as the records are scanned once
        # before any category is matched
        ds = Dataset(schema, [[np.nan, 0.0], [1.5, 1.0]], [0, 1], ("n", "y"))
        with pytest.raises(MissingValueError):
            encode_records(ds.records, ds.schema, self.SCHEMA)


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

    @pytest.mark.parametrize("observed, mean", [((np.inf, -np.inf), "nan"),
                                                ((1e308, 1e308), "inf")])
    def test_impute_non_finite_mean_names_the_attribute(self, observed, mean):
        ds = numeric_dataset([[1.0, observed[0]], [2.0, observed[1]], [3.0, np.nan]], [0] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes the mean
            with pytest.raises(DataError, match=f"attribute 'f1': the mean of its observed "
                                                f"cells is {mean}, cannot impute"):
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
                encode_records(np.array([row]), schema, schema)


class TestSubsetIndices:
    DS = numeric_dataset([[0.0], [1.0], [2.0]], [0, 1, 0])

    @pytest.mark.parametrize("indices", [[2, 0], np.array([2, 0], dtype=np.uint8), [2.0, 0.0]])
    def test_whole_number_indices(self, indices):
        out = self.DS.subset(indices)
        assert out.records[:, 0].tolist() == [2.0, 0.0] and out.labels.tolist() == [0, 0]

    @pytest.mark.parametrize("indices, bad, position", [
        # numpy would read the mask as rows 1, 0, 1, 0.7 as row 0 and -1 as
        # the last row, and raise its own IndexError on 5
        ([True, False, True], "True", 0),
        ([0.7], "0.7", 0),
        ([-1], "-1", 0),
        ([5], "5", 0),
        ([0, 2, 3], "3", 2),
        ([1.0, np.nan], "nan", 1),
        (["1"], "'1'", 0),
    ])
    def test_index_that_is_not_a_record_index(self, indices, bad, position):
        message = (f"subset index {bad} at position {position} is not a record index: "
                   f"a whole number in [0, 3)")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            self.DS.subset(indices)

    def test_indices_that_are_not_a_sequence(self):
        for indices in (1, [[0, 1]]):
            with pytest.raises(DataError, match="^subset indices must be a 1-D sequence$"):
                self.DS.subset(indices)


def _coded_dataset(rng, n):
    schema = (AttributeSchema("x", NUMERIC), AttributeSchema("k", CATEGORICAL, ("a", "b")))
    records = np.column_stack([rng.normal(size=n), rng.integers(0, 2, n)])
    return Dataset(schema, records, rng.integers(0, 2, n), ("p", "q"))


_RNG = np.random.default_rng(3)
_PLAIN = numeric_dataset(_RNG.normal(size=(40, 4)), _RNG.integers(0, 2, 40))
_GAPPED = inject_missing(_PLAIN, 0.3, seed=1)
#: name: (parent, derivation returning the derived datasets)
DERIVATIONS = {
    "subset": (_PLAIN, lambda ds: [ds.subset([3, 1, 3])]),
    "split_target": (_PLAIN, lambda ds: split_target(ds, SplitSpec(0.25, 2))),
    "inject_missing": (_PLAIN, lambda ds: [inject_missing(ds, 0.3, seed=1)]),
    "repair_missing srd": (_GAPPED, lambda ds: [repair_missing(ds, "srd")]),
    "repair_missing impute": (_GAPPED, lambda ds: [repair_missing(ds, "impute")]),
    "one_hot_encode": (_coded_dataset(_RNG, 20), lambda ds: [one_hot_encode(ds)]),
}


class TestCopyRule:
    def test_caller_array_is_copied(self):
        records, labels = np.arange(6.0).reshape(3, 2), np.array([0, 1, 0])
        ds = numeric_dataset(records, labels)
        records[0, 0], labels[0] = 9.0, 1
        assert ds.records[0, 0] == 0.0 and ds.labels[0] == 0

    def test_read_only_view_is_copied(self):
        records, labels = np.arange(6.0).reshape(3, 2).copy(), np.array([0, 1, 0])
        views = records.view(), labels.view()
        for view in views:
            view.setflags(write=False)
        ds = numeric_dataset(*views)
        records[0, 0], labels[0] = 9.0, 1
        assert ds.records[0, 0] == 0.0 and ds.labels[0] == 0

    def test_read_only_array_that_owns_its_memory_is_shared(self):
        records, labels = np.asfortranarray(np.arange(6.0).reshape(3, 2)), np.array([0, 1, 0])
        records.setflags(write=False)
        labels.setflags(write=False)
        ds = numeric_dataset(records, labels)
        assert ds.records is records and ds.labels is labels

    def test_read_only_row_major_array_is_copied_column_major(self):
        records = np.arange(6.0).reshape(3, 2)
        records.setflags(write=False)
        ds = numeric_dataset(records, [0, 1, 0])
        assert ds.records is not records and ds.records.flags.f_contiguous
        assert ds.records.tobytes() == records.tobytes()

    @pytest.mark.parametrize("kind", ["int64 array", "list"])
    def test_converted_records_are_kept_column_major(self, kind):
        ints = np.arange(6).reshape(3, 2)
        ds = numeric_dataset(ints if kind == "int64 array" else ints.tolist(), [0, 1, 0])
        assert ds.records.flags.f_contiguous and ds.records.dtype == np.float64
        assert ds.records.tobytes() == ints.astype(np.float64).tobytes()
        ints[0, 0] = 9
        assert ds.records[0, 0] == 0.0

    @pytest.mark.parametrize("name", DERIVATIONS)
    def test_derived_dataset_owns_its_arrays(self, name):
        parent, derive = DERIVATIONS[name]
        for child in derive(parent):
            assert_owns_its_arrays(child, parent)

    @pytest.mark.parametrize("derive", [
        lambda ds: inject_missing(ds, 0.0, seed=1),
        lambda ds: repair_missing(ds, "srd"),
        lambda ds: repair_missing(ds, "impute"),
        one_hot_encode,
    ], ids=["inject_missing at ratio 0", "srd without missing cells",
            "impute without missing cells", "one_hot_encode of numeric columns"])
    def test_documented_identities_return_the_parent(self, derive):
        assert derive(_PLAIN) is _PLAIN


class TestOneCopy:
    """On a 20000 x 40 dataset each derivation allocates little beyond what
    it returns: the array it builds is handed to Dataset, not copied."""

    BOUND = 1.25

    @pytest.fixture(scope="class")
    def plain(self):
        rng = np.random.default_rng(8)
        return numeric_dataset(rng.normal(size=(20000, 40)), rng.integers(0, 3, 20000))

    def test_subset(self, plain):
        indices = np.arange(0, plain.n, 2)
        assert peak_over_output(plain.subset, indices) < self.BOUND

    def test_split_target(self, plain):
        assert peak_over_output(split_target, plain, SplitSpec(0.05, 1)) < self.BOUND

    def test_inject_missing(self, plain):
        assert peak_over_output(inject_missing, plain, 0.1, 2) < self.BOUND

    @pytest.mark.parametrize("mode", ["srd", "impute"])
    def test_repair_missing(self, plain, mode):
        gapped = inject_missing(plain, 0.1, seed=2)
        assert peak_over_output(repair_missing, gapped, mode) < self.BOUND

    def test_one_hot_encode(self):
        # 12 numeric and 8 six-level categorical columns: 60 encoded columns
        schema = tuple(AttributeSchema(f"x{j}", NUMERIC) for j in range(12)) + tuple(
            AttributeSchema(f"k{j}", CATEGORICAL, tuple("abcdef")) for j in range(8))
        records = mixed_records(np.random.default_rng(9), 20000, schema)
        ds = Dataset(schema, records, np.zeros(20000, dtype=int), ("p",))
        assert peak_over_output(one_hot_encode, ds) < self.BOUND

    @pytest.mark.parametrize("kind", ["int64 array", "list"])
    def test_dataset_converts_records_once(self, plain, kind):
        ints = np.random.default_rng(10).integers(-9, 9, size=(20000, 40))
        records = ints if kind == "int64 array" else ints.tolist()
        assert peak_over_output(Dataset, plain.schema, records, plain.labels,
                                plain.class_names) < self.BOUND


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
