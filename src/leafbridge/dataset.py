"""Labeled tabular datasets: CSV loading, encoding, splitting, missing values.

A Dataset stores records as a float64 matrix. Numeric cells hold their value,
categorical cells hold the index of the category in the attribute's category
list, and missing cells hold NaN, which every operation treats as an explicit
sentinel (operations that need complete data raise instead of propagating it).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class AttributeSchema:
    """One column: its name, kind, and (for categorical columns) categories."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if self.kind == CATEGORICAL and len(self.categories) < 1:
            raise SchemaError(f"categorical attribute {self.name!r} has no categories")


@dataclass(frozen=True)
class SplitSpec:
    """Target/test partition parameters."""

    target_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_fraction < 1.0:
            raise DataError(f"target_fraction must be in (0,1), got {self.target_fraction}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable labeled table.

    records: float64 [n, d] matrix (NaN marks a missing cell)
    labels:  int64 [n] class indices into class_names
    """

    schema: tuple[AttributeSchema, ...]
    records: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    domain_tag: str = "source"

    def __post_init__(self):
        records = np.asarray(self.records, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if records.ndim != 2:
            raise DataError("records must be a 2-D matrix")
        if records.shape[0] < 1:
            raise EmptyDatasetError("a dataset needs at least one record")
        if records.shape[1] != len(self.schema):
            raise SchemaError(
                f"records have {records.shape[1]} cells but schema has {len(self.schema)}"
            )
        if labels.shape != (records.shape[0],):
            raise DataError("labels must be one per record")
        if len(self.class_names) < 1:
            raise DataError("class_names must be non-empty")
        if labels.min() < 0 or labels.max() >= len(self.class_names):
            raise DataError("label index out of range")
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")
        if self.domain_tag not in ("source", "target"):
            raise DataError(f"domain_tag must be source or target, got {self.domain_tag!r}")
        records = records.copy()
        labels = labels.copy()
        records.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.records.shape[0]

    @property
    def d(self) -> int:
        return self.records.shape[1]

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.records)

    def has_missing(self) -> bool:
        return bool(np.isnan(self.records).any())

    def subset(self, indices) -> "Dataset":
        """Dataset restricted to the given record indices (schema shared)."""
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, records=self.records[idx], labels=self.labels[idx])

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


def _parse_numeric(col):
    """Parse a column's cells (None for a missing cell) with float().

    float() also reads digit-group underscores (`1_000` as 1000.0), which a
    CSV cell never means, so a cell holding `_` counts as rejected; it keeps
    float()'s acceptance of surrounding spaces (` 2 ` is 2.0).

    Returns (values, bad, nonfinite): the floats so far (NaN for missing
    cells), the position of the first rejected cell (parsing stops there)
    or None, and the position of the first present cell that parsed to a
    non-finite value or None.
    """
    values = np.full(len(col), np.nan)
    nonfinite = None
    for i, cell in enumerate(col):
        if cell is None:
            continue
        try:
            value = float(cell)
        except ValueError:
            value = None
        if value is None or "_" in cell:
            return values, i, nonfinite
        if nonfinite is None and not math.isfinite(value):
            nonfinite = i
        values[i] = value
    return values, None, nonfinite


def read_schema_sidecar(path) -> dict[str, str]:
    """Read an optional sidecar mapping column name to numeric|categorical.

    Plain text, one `column: kind` (or `column = kind`) entry per line;
    blank lines and lines starting with # are ignored.
    """
    kinds = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            sep = ":" if ":" in line else "="
            if sep not in line:
                raise ParseError(f"sidecar line {lineno}: expected 'column: kind'")
            name, kind = (part.strip() for part in line.split(sep, 1))
            if kind not in (NUMERIC, CATEGORICAL):
                raise ParseError(f"sidecar line {lineno}: unknown kind {kind!r}")
            kinds[name] = kind
    return kinds


def load_csv(
    path,
    label_column: str,
    schema_hint=None,
    missing_tokens=DEFAULT_MISSING_TOKENS,
    domain_tag: str = "source",
) -> Dataset:
    """Load a UTF-8 CSV file with a header row into a Dataset.

    A column is inferred numeric when every non-missing cell parses as a
    number, otherwise categorical with categories in first-appearance order.
    schema_hint (a list of AttributeSchema, or a name->kind mapping) pins the
    kind of listed columns; hinted categories seed the category order.
    A numeric cell must be finite: `nan`, `inf` and `infinity` tokens (any
    case or sign) raise ParseError unless listed in missing_tokens. A cell
    holding an underscore (`1_000`) is not a number, so its column is
    categorical, or a ParseError under a numeric hint; spaces around a
    number are accepted (` 2 ` reads as 2.0).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {lineno} has {len(row)} cells, header has {len(header)}"
                )
            rows.append((lineno, row))
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    if label_column not in header:
        raise SchemaError(f"{path}: label column {label_column!r} not in header {header}")
    label_idx = header.index(label_column)
    attr_names = [h for i, h in enumerate(header) if i != label_idx]

    hints: dict[str, AttributeSchema] = {}
    if schema_hint:
        if isinstance(schema_hint, dict):
            hints = {
                name: AttributeSchema(name, kind, ("_",) if kind == CATEGORICAL else ())
                for name, kind in schema_hint.items()
            }
        else:
            hints = {a.name: a for a in schema_hint}

    missing = set(missing_tokens)
    columns = {name: [] for name in attr_names}
    label_tokens = []
    linenos = []
    for lineno, row in rows:
        linenos.append(lineno)
        pos = 0
        for i, cell in enumerate(row):
            if i == label_idx:
                if cell in missing:
                    raise ParseError(f"{path}: line {lineno}: missing label value")
                label_tokens.append(cell)
            else:
                columns[attr_names[pos]].append(None if cell in missing else cell)
                pos += 1

    schema = []
    n = len(rows)
    records = np.empty((n, len(attr_names)), dtype=np.float64)
    for j, name in enumerate(attr_names):
        col = columns[name]
        hint = hints.get(name)
        if hint is not None and hint.kind == CATEGORICAL:
            kind = CATEGORICAL
        else:
            values, bad, nonfinite = _parse_numeric(col)
            kind = NUMERIC if hint is not None or bad is None else CATEGORICAL
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
            cats = list(hint.categories) if hint is not None and hint.categories != ("_",) else []
            index = {c: k for k, c in enumerate(cats)}
            for i, cell in enumerate(col):
                if cell is None:
                    records[i, j] = np.nan
                    continue
                if cell not in index:
                    index[cell] = len(cats)
                    cats.append(cell)
                records[i, j] = index[cell]
            schema.append(AttributeSchema(name, CATEGORICAL, tuple(cats)))

    class_names = []
    class_index = {}
    labels = np.empty(n, dtype=np.int64)
    for i, token in enumerate(label_tokens):
        if token not in class_index:
            class_index[token] = len(class_names)
            class_names.append(token)
        labels[i] = class_index[token]

    return Dataset(tuple(schema), records, labels, tuple(class_names), domain_tag)


def write_csv(ds: Dataset, path, label_column: str = "label", missing_token: str = "?"):
    """Write a Dataset to CSV so that load_csv reads back an identical dataset.

    Raises DataError on an infinite cell, which load_csv would not read back.
    """
    infinite = np.argwhere(np.isinf(ds.records))
    if infinite.size:
        i, j = (int(v) for v in infinite[0])
        raise DataError(
            f"cannot write record {i}: attribute {ds.schema[j].name!r} is "
            f"{ds.records[i, j]!r}, which load_csv rejects"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in ds.schema] + [label_column])
        for i in range(ds.n):
            row = []
            for j, attr in enumerate(ds.schema):
                cell = ds.records[i, j]
                if math.isnan(cell):
                    row.append(missing_token)
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


def encode_records(records: np.ndarray, schema) -> np.ndarray:
    """One-hot encode a record matrix given its raw schema.

    Numeric columns are copied, each categorical column becomes one 0/1
    column per category. Rows must be complete (no NaN cells).
    """
    records = np.asarray(records, dtype=np.float64)
    if np.isnan(records).any():
        raise MissingValueError("cannot encode records with missing cells")
    blocks = []
    for j, attr in enumerate(schema):
        col = records[:, j]
        if attr.kind == NUMERIC:
            blocks.append(col[:, None])
        else:
            m = len(attr.categories)
            onehot = np.zeros((records.shape[0], m))
            idx = col.astype(np.int64)
            if idx.min() < 0 or idx.max() >= m:
                raise SchemaError(f"category index out of range in column {attr.name!r}")
            onehot[np.arange(records.shape[0]), idx] = 1.0
            blocks.append(onehot)
    return np.hstack(blocks)


def one_hot_encode(ds: Dataset) -> Dataset:
    """Expand categorical attributes into 0/1 columns; numeric data unchanged.

    A dataset with no categorical attributes is returned as-is.
    """
    if ds.has_missing():
        raise MissingValueError("one_hot_encode requires a dataset without missing cells")
    if all(a.kind == NUMERIC for a in ds.schema):
        return ds
    return Dataset(
        encoded_schema(ds.schema),
        encode_records(ds.records, ds.schema),
        ds.labels,
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
    when given, else of ds itself.
    """
    if mode not in ("srd", "impute"):
        raise DataError(f"unknown repair mode {mode!r}")
    if reference is None:
        reference = ds
    elif reference.schema != ds.schema:
        raise SchemaError("the impute reference must share the dataset's schema")
    mask = ds.missing_mask()
    if not mask.any():
        return ds
    if mode == "srd":
        keep = ~mask.any(axis=1)
        if not keep.any():
            raise EmptyDatasetError("srd removed every record")
        return ds.subset(np.flatnonzero(keep))
    records = np.array(ds.records)
    for j, attr in enumerate(ds.schema):
        col_mask = mask[:, j]
        if not col_mask.any():
            continue
        observed = reference.records[:, j]
        observed = observed[~np.isnan(observed)]
        if observed.size == 0:
            raise DataError(f"attribute {attr.name!r} is entirely missing, cannot impute")
        if attr.kind == NUMERIC:
            fill = observed.mean()
        else:
            counts = np.bincount(observed.astype(np.int64), minlength=len(attr.categories))
            fill = float(np.argmax(counts))
        records[col_mask, j] = fill
    return replace(ds, records=records)


def inject_missing(ds: Dataset, record_ratio: float, seed: int = 0) -> Dataset:
    """Randomly blank cells to simulate missing data.

    round(record_ratio * n) records are chosen; in each, a fresh y drawn
    uniformly from {1..50} determines the percentage of that record's
    attribute values blanked (at least one cell). Labels are never blanked.
    """
    if not 0.0 <= record_ratio <= 0.5:
        raise DataError(f"record_ratio must be in [0, 0.5], got {record_ratio}")
    k = int(round(record_ratio * ds.n))
    if k == 0:
        return ds
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ds.n, size=k, replace=False)
    records = np.array(ds.records)
    for i in chosen:
        y = int(rng.integers(1, 51))
        m = max(1, int(round(y * ds.d / 100.0)))
        cells = rng.choice(ds.d, size=min(m, ds.d), replace=False)
        records[i, cells] = np.nan
    return replace(ds, records=records)
