"""Labeled tabular datasets: CSV loading, encoding, splitting, missing values.

A Dataset stores records as a float64 matrix. Numeric cells hold their value,
categorical cells hold the index of the category in the attribute's category
list, and missing cells hold NaN, which every operation treats as an explicit
sentinel (operations that need complete data raise instead of propagating it).

Every record matrix of the package is column-major (Fortran order): the
forest reads a batch one column at a time, the split search and the pivot
sums gather within one column, and each derivation builds its result a
column at a time, in one allocation.
"""

from __future__ import annotations

import csv
import math
import sys
import typing
from dataclasses import dataclass, replace
from itertools import compress, groupby, repeat

import numpy as np

from .errors import (
    DataError,
    EmptyDatasetError,
    MissingValueError,
    ParseError,
    SchemaError,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: Cell values treated as missing when reading CSV files.
DEFAULT_MISSING_TOKENS = ("?", "")


def name_index(names, reference) -> np.ndarray:
    """int64 position of each of `names` in `reference`, -1 where it is absent:
    the one matching of categories and classes by name. A name that
    `reference` lists twice takes its first position, as in tuple.index."""
    position = {name: i for i, name in reversed(list(enumerate(reference)))}
    return np.fromiter(map(position.get, names, repeat(-1)), np.int64, len(names))


def _require_distinct(names, error, what: str):
    """Raise error(f"{what} {name!r} more than once") for the first name listed twice."""
    if len(set(names)) != len(names):
        raise error(f"{what} {next(n for n in names if names.count(n) > 1)!r} more than once")


def _whole(values: np.ndarray) -> np.ndarray:
    """Mask of the float cells that are finite whole numbers."""
    return np.isfinite(values) & (np.floor(values) == values)


def class_indices(labels, n_classes: int, what: str) -> np.ndarray:
    """labels as int64, DataError unless each is a whole number in [0, n_classes)."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f" and not _whole(labels).all():
        raise DataError(f"{what} must be whole class indices")
    labels = labels.astype(np.int64, copy=False)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"{what} must be class indices below {n_classes}")
    return labels


@dataclass(frozen=True)
class AttributeSchema:
    """One column: its name, kind, and (for categorical columns) distinct categories."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if self.kind == CATEGORICAL and len(self.categories) < 1:
            raise SchemaError(f"categorical attribute {self.name!r} has no categories")
        _require_distinct(self.categories, SchemaError, f"attribute {self.name!r} lists category")


#: The types a spec field of each annotation may hold, a bool never; a float
#: field's value must also lie within the float range, which NaN does not.
#: A field annotated with any other class holds an instance of it.
_FIELD_TYPES = {int: int, float: (int, float), str: str}


def _holds(value, kind) -> bool:
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]: a tuple of X items
        return isinstance(value, tuple) and all(_holds(v, typing.get_args(kind)[0])
                                                for v in value)
    return (not isinstance(value, bool) and isinstance(value, _FIELD_TYPES.get(kind, kind))
            and (kind is not float or abs(value) <= sys.float_info.max))


def _type_name(kind) -> str:
    """A resolved annotation as written: int, SplitSpec, tuple[float, ...]."""
    args = typing.get_args(kind)
    return f"tuple[{_type_name(args[0])}, ...]" if args else kind.__name__


def check_field_types(spec):
    """DataError naming the first field of the dataclass instance `spec`
    that does not hold a value of its annotated type (`_FIELD_TYPES`):
    the one type rule of `SplitSpec`, `TransferConfig`, `PairSpec` and
    `ExperimentSpec`."""
    for name, kind in typing.get_type_hints(type(spec)).items():
        value = getattr(spec, name)
        if not _holds(value, kind):
            rule = "a finite int or float" if kind is float else f"of type {_type_name(kind)}"
            raise DataError(f"{type(spec).__name__} field {name!r} = {value!r} is not {rule}")


def require_seed(seed):
    """DataError unless seed is an int >= 0 (a bool never is)."""
    if not _holds(seed, int):
        raise DataError(f"seed {seed!r} is not an int")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")


def read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only: a derivation hands the array it built to
    `Dataset`, which then keeps it instead of copying it."""
    array.setflags(write=False)
    return array


def _adopted(array: np.ndarray) -> np.ndarray:
    """array itself when it is column-major, read-only and owns its memory,
    else a read-only column-major copy of it."""
    flags = array.flags
    if flags.f_contiguous and flags.owndata and not flags.writeable:
        return array
    return read_only(array.copy(order="F"))


def cell_facts(records: np.ndarray) -> dict[str, bool]:
    """{"missing": some cell is NaN, "finite": every cell is finite} of a
    float matrix: the one scan for missing and non-finite cells."""
    if np.isfinite(records).all():
        return {"missing": False, "finite": True}
    return {"missing": bool(np.isnan(records).any()), "finite": False}


def gather_rows(records: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """records[rows] as a new column-major matrix, gathered column by column
    from the column-major records; rows are valid int64 record indices."""
    out = np.empty((rows.shape[0], records.shape[1]), order="F")
    # mode="clip" writes into out directly; "raise" would buffer a whole copy
    np.take(records.T, rows, axis=1, out=out.T, mode="clip")
    return out


@dataclass(frozen=True)
class SplitSpec:
    """Target/test partition parameters."""

    target_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.target_fraction < 1.0:
            raise DataError(f"target_fraction must be in (0,1), got {self.target_fraction}")
        require_seed(self.seed)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable labeled table.

    records: float64 [n, d] matrix (NaN marks a missing cell)
    labels:  int64 [n] class indices into class_names (distinct names)

    Both arrays are read-only and column-major (Fortran order). A float64
    (records) or int64 (labels) array that is column-major, read-only and
    owns its memory is shared, not copied: each derivation of this package
    (subset, split_target, inject_missing, ...) makes the array it built
    read-only and hands it over. Records given as a list, a tuple or an
    array of another dtype are converted straight into a column-major
    array, which is kept. Any other array, such as a caller's writeable or
    row-major array or a view, is copied once, so the caller's later writes
    never reach the dataset.

    Whether a cell is missing (`has_missing`) and whether every cell is
    finite (`is_finite`) are worked out once, on first need, by one
    `cell_facts` scan, and kept outside the fields, so `replace`, `equals`
    and the repr ignore them; a derived dataset works out its own. The
    read-only records that the dataset owns or was handed are what keep
    the facts true: a caller that re-enables writes on an array it handed
    over and writes to it voids them.
    """

    schema: tuple[AttributeSchema, ...]
    records: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    domain_tag: str = "source"

    def __post_init__(self):
        records = self.records
        if isinstance(records, (list, tuple)) or (isinstance(records, np.ndarray)
                                                  and records.dtype != np.float64):
            # a conversion surely allocates; another object's __array__ may hand
            # back memory its owner still writes, so that is copied below
            records = read_only(np.array(records, dtype=np.float64, order="F"))
        else:
            records = np.asarray(records, dtype=np.float64)
        if records.ndim != 2:
            raise DataError("records must be a 2-D matrix")
        if records.shape[0] < 1:
            raise EmptyDatasetError("a dataset needs at least one record")
        if records.shape[1] != len(self.schema):
            raise SchemaError(
                f"records have {records.shape[1]} cells but schema has {len(self.schema)}"
            )
        if np.shape(self.labels) != (records.shape[0],):
            raise DataError("labels must be one per record")
        if len(self.class_names) < 1:
            raise DataError("class_names must be non-empty")
        labels = class_indices(self.labels, len(self.class_names), "labels")
        _require_distinct(self.class_names, DataError, "class_names lists")
        _require_distinct([a.name for a in self.schema], SchemaError, "schema names attribute")
        if self.domain_tag not in ("source", "target"):
            raise DataError(f"domain_tag must be source or target, got {self.domain_tag!r}")
        coded = [j for j, a in enumerate(self.schema) if a.kind == CATEGORICAL]
        if coded:
            cells = records[:, coded]
            n_codes = np.array([len(self.schema[j].categories) for j in coded])
            bad = ~np.isnan(cells) & ~(_whole(cells) & (cells >= 0) & (cells < n_codes))
            if bad.any():
                i, k = (int(v) for v in np.argwhere(bad)[0])
                raise DataError(
                    f"record {i}: attribute {self.schema[coded[k]].name!r} holds "
                    f"{float(cells[i, k])!r}, not a category code below {n_codes[k]}"
                )
        object.__setattr__(self, "records", _adopted(records))
        object.__setattr__(self, "labels", _adopted(labels))
        object.__setattr__(self, "_facts", {})  # cell facts known so far

    @property
    def n(self) -> int:
        return self.records.shape[0]

    @property
    def d(self) -> int:
        return self.records.shape[1]

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.records)

    def has_missing(self) -> bool:
        """Whether some cell is NaN (missing)."""
        return self._fact("missing")

    def is_finite(self) -> bool:
        """Whether every cell is finite: none is NaN or infinite."""
        return self._fact("finite")

    def _fact(self, name: str) -> bool:
        if name not in self._facts:
            self._facts.update(cell_facts(self.records))
        return self._facts[name]

    def __reduce__(self):
        # an unpickled dataset goes through the constructor, which makes its
        # arrays read-only and leaves its cell facts to be worked out afresh
        return Dataset, (self.schema, self.records, self.labels, self.class_names,
                         self.domain_tag)

    def subset(self, indices) -> "Dataset":
        """Dataset restricted to the given record indices (schema shared).

        indices is a 1-D sequence of whole numbers in [0, n); any other
        index, a bool or a negative one among them, raises DataError naming
        the first.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise DataError("subset indices must be a 1-D sequence")
        kind = idx.dtype.kind
        good = (idx >= 0) & (idx < self.n) if kind in "iuf" else np.zeros(idx.shape, dtype=bool)
        if kind == "f":
            good &= _whole(idx)
        if not good.all():
            i = int(np.argmin(good))
            raise DataError(f"subset index {idx[i].item()!r} at position {i} is not a "
                            f"record index: a whole number in [0, {self.n})")
        idx = idx.astype(np.int64, copy=False)
        return replace(self, records=read_only(gather_rows(self.records, idx)),
                       labels=read_only(self.labels[idx]))

    def equals(self, other: "Dataset") -> bool:
        """Structural equality; missing cells compare equal to each other."""
        if self.schema != other.schema or self.class_names != other.class_names:
            return False
        if self.domain_tag != other.domain_tag:
            return False
        if self.records.shape != other.records.shape:
            return False
        if not np.array_equal(self.labels, other.labels):
            return False
        return bool(np.array_equal(self.records, other.records, equal_nan=True))


def _floats(cells):
    """float() of every cell as a float64 array, or None when some cell is
    rejected: float() raises on it, or it holds a digit-group underscore."""
    if "_" in "".join(cells):
        return None
    try:
        return np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        return None


def _first_rejected(cells) -> int:
    """Position of the first cell that `_floats` rejects."""
    for i, cell in enumerate(cells):
        if "_" in cell:
            return i
        try:
            float(cell)
        except ValueError:
            return i
    raise AssertionError("no rejected cell")


def _parse_column(col, missing):
    """Parse a column's cells with float(); a cell in `missing` reads as NaN.

    float() also reads digit-group underscores (`1_000` as 1000.0), which a
    CSV cell never means, so a cell holding `_` counts as rejected; it keeps
    float()'s acceptance of surrounding spaces (` 2 ` is 2.0).

    Returns (values, bad, nonfinite): the floats of the cells before the
    first rejected one (NaN elsewhere), the position of that cell or None,
    and the position of the first present cell before it that parsed to a
    non-finite value or None.
    """
    n = len(col)
    # an equality scan per token: a set test would hash every numeric cell
    if not any(token in col for token in missing):
        cells, where = col, np.arange(n)
    else:
        present = ~np.fromiter(map(missing.__contains__, col), bool, n)
        cells, where = list(compress(col, present)), np.flatnonzero(present)
    parsed = _floats(cells)
    bad = None
    if parsed is None:
        first = _first_rejected(cells)
        parsed, bad = _floats(cells[:first]), int(where[first])
    nonfinite = np.flatnonzero(~np.isfinite(parsed))
    nonfinite = int(where[nonfinite[0]]) if nonfinite.size else None
    if len(parsed) == n:
        return parsed, bad, nonfinite
    values = np.full(n, np.nan)
    values[where[:len(parsed)]] = parsed
    return values, bad, nonfinite


def _code_column(col, missing):
    """Category codes of a column's cells as float64 (NaN for a cell in
    `missing`), and its categories: the present cells by first appearance."""
    categories = tuple(c for c in dict.fromkeys(col) if c not in missing)
    codes = name_index(col, categories).astype(np.float64)
    codes[codes < 0] = np.nan
    return codes, categories


def load_csv(
    path,
    label_column: str,
    schema_hint=None,
    missing_tokens=DEFAULT_MISSING_TOKENS,
    domain_tag: str = "source",
) -> Dataset:
    """Load a UTF-8 CSV file with a header row into a Dataset; a leading
    byte-order mark is skipped.

    A column is inferred numeric when every non-missing cell parses as a
    number, otherwise categorical with categories in first-appearance order.
    schema_hint, a {column name: "numeric" or "categorical"} mapping, pins
    the kind of the columns it names; another kind, or a name that is not
    an attribute column of the file, raises SchemaError. A numeric cell
    must be finite: `nan`, `inf` and `infinity` tokens (any case or sign)
    raise ParseError unless listed in missing_tokens. A cell
    holding an underscore (`1_000`) is not a number, so its column is
    categorical, or a ParseError under a numeric hint; spaces around a
    number are accepted (` 2 ` reads as 2.0). A header that names a
    column twice, the label column too, raises SchemaError.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            linenos, rows = [], []
            for row in reader:
                if not row:
                    continue
                # the physical line the row ends on, past quoted line breaks
                if len(row) != len(header):
                    raise ParseError(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                     f"header has {len(header)}")
                linenos.append(reader.line_num)
                rows.append(row)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    if label_column not in header:
        raise SchemaError(f"{path}: label column {label_column!r} not in header {header}")
    _require_distinct(header, SchemaError, f"{path}: header names column")
    label_idx = header.index(label_column)
    attr_names = [h for i, h in enumerate(header) if i != label_idx]
    hints = dict(schema_hint or {})
    for name, kind in hints.items():
        if kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown attribute kind {kind!r} for {name!r}")
        if name not in attr_names:
            raise SchemaError(f"{path}: schema_hint names column {name!r}, which is not an "
                              f"attribute column of the file")

    missing = set(missing_tokens)
    columns = list(zip(*rows))
    label_col = columns.pop(label_idx)
    if not missing.isdisjoint(label_col):
        first = next(i for i, token in enumerate(label_col) if token in missing)
        raise ParseError(f"{path}: line {linenos[first]}: missing label value")

    schema = []
    # filled a column at a time and handed to Dataset
    records = np.empty((len(rows), len(attr_names)), dtype=np.float64, order="F")
    for j, (name, col) in enumerate(zip(attr_names, columns)):
        kind = hints.get(name)
        if kind != CATEGORICAL:
            values, bad, nonfinite = _parse_column(col, missing)
            kind = kind or (NUMERIC if bad is None else CATEGORICAL)
        if kind == NUMERIC:
            if nonfinite is not None:
                raise ParseError(
                    f"{path}: line {linenos[nonfinite]}: non-finite value "
                    f"{col[nonfinite]!r} in numeric column {name!r} (list it in "
                    f"missing_tokens to read it as a missing cell)"
                )
            if bad is not None:
                raise ParseError(
                    f"{path}: line {linenos[bad]}: non-numeric value {col[bad]!r} in "
                    f"numeric column {name!r}"
                )
            records[:, j] = values
            schema.append(AttributeSchema(name, NUMERIC))
        else:
            records[:, j], categories = _code_column(col, missing)
            schema.append(AttributeSchema(name, CATEGORICAL, categories))

    class_names = tuple(dict.fromkeys(label_col))
    return Dataset(tuple(schema), read_only(records),
                   read_only(name_index(label_col, class_names)), class_names, domain_tag)


def write_csv(ds: Dataset, path, label_column: str = "label"):
    """Write a Dataset to CSV, a missing cell as `?`. load_csv reads back an
    identical dataset when ds lists its categories and classes in order of
    first appearance and each categorical column holds a present cell that
    is not a number.

    Raises DataError, naming the value, on what load_csv cannot read back:
    an infinite cell, an attribute named label_column, and a category or
    class name that is a default missing token.
    """
    infinite = np.argwhere(np.isinf(ds.records))
    if infinite.size:
        i, j = (int(v) for v in infinite[0])
        raise DataError(
            f"cannot write record {i}: attribute {ds.schema[j].name!r} is "
            f"{ds.records[i, j]!r}, which load_csv rejects"
        )
    if label_column in [a.name for a in ds.schema]:
        raise DataError(f"cannot write attribute {label_column!r}: it is the label column")
    named = [("class", ds.class_names)]
    named += [(f"category of attribute {a.name!r}", a.categories) for a in ds.schema]
    for what, names in named:
        for name in names:
            if name in DEFAULT_MISSING_TOKENS:
                raise DataError(f"cannot write {what} {name!r}: load_csv reads it as missing")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in ds.schema] + [label_column])
        for i in range(ds.n):
            row = []
            for j, attr in enumerate(ds.schema):
                cell = ds.records[i, j]
                if math.isnan(cell):
                    row.append("?")
                elif attr.kind == CATEGORICAL:
                    row.append(attr.categories[int(cell)])
                else:
                    row.append(repr(float(cell)))
            row.append(ds.class_names[ds.labels[i]])
            writer.writerow(row)


def encoded_schema(schema) -> tuple[AttributeSchema, ...]:
    """Schema after one-hot encoding: one 0/1 numeric column per category."""
    out = []
    for attr in schema:
        if attr.kind == NUMERIC:
            out.append(attr)
        else:
            out.extend(AttributeSchema(f"{attr.name}={c}", NUMERIC) for c in attr.categories)
    return tuple(out)


def encode_records(records: np.ndarray, schema, trained) -> np.ndarray:
    """One-hot encode records laid out in `schema` into `trained`'s encoded
    columns: the one place a raw categorical column becomes 0/1 columns.

    schema and trained list the same column names and kinds, and each
    categorical cell is a code of schema's categories, as in a Dataset.
    Each run of numeric columns is copied as one column slice; each
    categorical cell is matched to trained's categories by name
    (`name_index`, skipped where the category tuples are equal), and a
    category unknown to trained raises DataError naming it and its column.
    Rows must be complete (no NaN cells). The result is one new
    column-major (Fortran-order) matrix, the package's one record layout.
    """
    records = np.asarray(records, dtype=np.float64)
    if np.isnan(records).any():
        raise MissingValueError("cannot encode records with missing cells")
    n = records.shape[0]
    out = np.empty((n, len(encoded_schema(trained))), order="F")
    j = k = 0
    for numeric, attrs in groupby(zip(schema, trained), key=lambda pair: pair[0].kind == NUMERIC):
        attrs = list(attrs)
        if numeric:
            w = len(attrs)
            out[:, k:k + w] = records[:, j:j + w]
            j += w
            k += w
            continue
        for attr, known in attrs:
            m = len(known.categories)
            idx = records[:, j].astype(np.int64)
            if attr.categories != known.categories:
                mapped = name_index(attr.categories, known.categories)[idx]
                unknown = np.flatnonzero(mapped < 0)
                if unknown.size:
                    name = attr.categories[idx[unknown[0]]]
                    raise DataError(f"category {name!r} of column {attr.name!r} "
                                    f"unknown to the model")
                idx = mapped
            block = out[:, k:k + m]
            block.fill(0.0)
            block[np.arange(n), idx] = 1.0
            j += 1
            k += m
    return out


def require_numeric(schema, user: str):
    """SchemaError naming the first categorical column of schema, if any."""
    for attr in schema:
        if attr.kind == CATEGORICAL:
            raise SchemaError(f"{user} takes numeric columns only, but {attr.name!r} is "
                              f"categorical; encode the dataset with one_hot_encode first")


def one_hot_encode(ds: Dataset) -> Dataset:
    """Expand categorical attributes into 0/1 columns; numeric data unchanged.

    A dataset with no categorical attributes is returned as-is.
    """
    if all(a.kind == NUMERIC for a in ds.schema):
        if ds.has_missing():
            raise MissingValueError("one_hot_encode requires a dataset without missing cells")
        return ds
    return Dataset(
        encoded_schema(ds.schema),
        read_only(encode_records(ds.records, ds.schema, ds.schema)),
        read_only(ds.labels.copy()),
        ds.class_names,
        ds.domain_tag,
    )


def split_target(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Uniform random partition into (target, test) without replacement.

    The target part gets round(n * target_fraction) records, clamped to
    [1, n-1] so that both parts are non-empty. Deterministic per spec.seed.
    """
    if ds.n < 2:
        raise EmptyDatasetError("cannot split a dataset with fewer than 2 records")
    k = int(round(ds.n * spec.target_fraction))
    k = min(max(k, 1), ds.n - 1)
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(ds.n)
    target_idx = np.sort(order[:k])
    test_idx = np.sort(order[k:])
    return ds.subset(target_idx), ds.subset(test_idx)


def repair_missing(ds: Dataset, mode: str, reference: Dataset | None = None) -> Dataset:
    """Remove or fill missing cells.

    mode="srd" drops every record that has at least one missing cell;
    mode="impute" fills numeric cells with the attribute mean over observed
    values and categorical cells with the mode (ties -> lowest category index).
    The statistics come from the observed cells of `reference` (same schema)
    when given, else of ds itself. A numeric column to fill whose observed
    mean is not finite (both infinities, or a sum that overflows) raises
    DataError naming the attribute.
    """
    if mode not in ("srd", "impute"):
        raise DataError(f"unknown repair mode {mode!r}")
    if reference is None:
        reference = ds
    elif reference.schema != ds.schema:
        raise SchemaError("the impute reference must share the dataset's schema")
    if not ds.has_missing():
        return ds
    mask = ds.missing_mask()
    if mode == "srd":
        keep = ~mask.any(axis=1)
        if not keep.any():
            raise EmptyDatasetError("srd removed every record")
        return ds.subset(np.flatnonzero(keep))
    records = np.array(ds.records, order="F")
    for j, attr in enumerate(ds.schema):
        col_mask = mask[:, j]
        if not col_mask.any():
            continue
        observed = reference.records[:, j]
        observed = observed[~np.isnan(observed)]
        if observed.size == 0:
            raise DataError(f"attribute {attr.name!r} is entirely missing, cannot impute")
        if attr.kind == NUMERIC:
            with np.errstate(over="ignore", invalid="ignore"):
                fill = observed.mean()
            if not np.isfinite(fill):
                raise DataError(f"attribute {attr.name!r}: the mean of its observed cells is "
                                f"{fill}, cannot impute")
        else:
            counts = np.bincount(observed.astype(np.int64), minlength=len(attr.categories))
            fill = float(np.argmax(counts))
        records[col_mask, j] = fill
    return replace(ds, records=read_only(records), labels=read_only(ds.labels.copy()))


def inject_missing(ds: Dataset, record_ratio: float, seed: int = 0) -> Dataset:
    """Randomly blank cells to simulate missing data.

    round(record_ratio * n) records are chosen; in each, a fresh y drawn
    uniformly from {1..50} determines the percentage of that record's
    attribute values blanked (at least one cell). Labels are never blanked.
    """
    require_seed(seed)
    if not 0.0 <= record_ratio <= 0.5:
        raise DataError(f"record_ratio must be in [0, 0.5], got {record_ratio}")
    k = int(round(record_ratio * ds.n))
    if k == 0:
        return ds
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ds.n, size=k, replace=False)
    records = np.array(ds.records, order="F")
    for i in chosen:
        y = int(rng.integers(1, 51))
        m = max(1, int(round(y * ds.d / 100.0)))
        cells = rng.choice(ds.d, size=min(m, ds.d), replace=False)
        records[i, cells] = np.nan
    return replace(ds, records=read_only(records), labels=read_only(ds.labels.copy()))
