"""End-to-end pipeline: forests, pivots, projection, transfer, final model.

run_transfer one-hot encodes both domains, trains a forest per domain,
matches deduplicated leaf label distributions across domains, solves for the
projection matrix, projects the source records that belong to matched source
pivots into the target feature space, merges them with the target data and
trains the final forest. If no pivots match (or nothing survives selection)
the model falls back to the target-only forest.

Every forest of the pipeline is trained by `fit_forest`, the one place that
turns a TransferConfig into training parameters. A caller that scores other
methods on the same data shares one `domain_forest` memo (a dict) between
run_transfer and its baselines; the memo is bound to its Dataset objects and
config.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import adaptation, pivot
from .adaptation import ProjectionMatrix
from .dataset import (
    AttributeSchema,
    Dataset,
    align_categories,
    check_field_types,
    encode_records,
    encoded_schema,
    name_index,
    one_hot_encode,
    require_seed,
)
from .errors import DataError, MatchingError, MissingValueError
from .forest import (
    Forest,
    LeafTable,
    collect_leaves,
    forest_from_dict,
    forest_to_dict,
    predict_many,
    read_key,
    train_forest,
)

logger = logging.getLogger("leafbridge")

#: Version of the saved model document (`TransferModel.to_dict`).
FORMAT_VERSION = 3


@dataclass(frozen=True)
class TransferConfig:
    """Pipeline parameters (defaults follow the evaluation protocol)."""

    n_trees: int = 10
    min_leaf_small: int = 20
    min_leaf_large: int = 50
    large_threshold: int = 10000
    pivot_threshold: float = 0.1
    ridge: float = 0.001
    mmd: float = 5.0
    manifold: float = 0.01
    kernel: str = "rbf"
    alpha_mode: str = "literal"
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("n_trees", "min_leaf_small", "min_leaf_large", "large_threshold"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        require_seed(self.seed)
        for name in ("ridge", "mmd", "manifold"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if not 0.0 < self.pivot_threshold < 1.0:
            raise DataError("pivot_threshold must be in (0, 1)")
        if self.kernel not in ("linear", "rbf"):
            raise DataError(f"unknown kernel {self.kernel!r}")
        if self.alpha_mode not in ("literal", "inverse"):
            raise DataError(f"unknown alpha_mode {self.alpha_mode!r}")

    def min_leaf_for(self, n: int) -> int:
        """Minimum leaf size by dataset size: large datasets get the large
        value."""
        return self.min_leaf_large if n > self.large_threshold else self.min_leaf_small


@dataclass(frozen=True, eq=False)
class TransferModel:
    """Final classifier plus the pipeline diagnostics; its classes
    (`class_names`) are its forest's."""

    forest: Forest
    fallback: bool
    diagnostics: dict
    raw_schema: tuple
    config: TransferConfig

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.forest.class_names

    def predict_many(self, ds: Dataset) -> np.ndarray:
        """Predicted classes of records in the model's raw schema, as indices
        into ds.class_names (-1 for a class that ds does not list); categories
        and classes are matched by name, so ds may list them in another order."""
        records = align_categories(ds, self.raw_schema)
        preds = predict_many(self.forest, encode_records(records, self.raw_schema),
                             complete=True)
        if ds.class_names == self.class_names:
            return preds
        return name_index(self.class_names, ds.class_names)[preds]

    def to_dict(self) -> dict:
        return {
            "format": "leafbridge-model",
            "version": FORMAT_VERSION,
            "fallback": self.fallback,
            "raw_schema": [
                {"name": a.name, "kind": a.kind, "categories": list(a.categories)}
                for a in self.raw_schema
            ],
            "forest": forest_to_dict(self.forest),
            "diagnostics": self.diagnostics,
            "config": asdict(self.config),
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path) -> "TransferModel":
        """Read a saved model; DataError on any other document or version,
        on a missing or ill-typed key, on a config that TransferConfig
        rejects and on encoded `raw_schema` columns other than its forest's.
        Keys it does not name, such as the projection of earlier format-3
        files, are ignored."""
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        doc, column = "leafbridge-model", "raw_schema column"
        if not isinstance(obj, dict) or obj.get("format") != doc:
            raise DataError(f"not a {doc} document")
        if obj.get("version") != FORMAT_VERSION:
            raise DataError(f"{doc} version {obj.get('version')!r} is not version "
                            f"{FORMAT_VERSION}; train and save the model again")
        raw_schema = tuple(
            AttributeSchema(read_key(a, "name", str, column), read_key(a, "kind", str, column),
                            tuple(read_key(a, "categories", list, column, items=str)))
            for a in read_key(obj, "raw_schema", list, doc, items=dict)
        )
        config = read_key(obj, "config", dict, doc)
        try:
            config = TransferConfig(**config)
        except (DataError, TypeError) as exc:
            raise DataError(f"{doc} document key 'config' is invalid: {exc}") from None
        forest = forest_from_dict(read_key(obj, "forest", dict, doc))
        if encoded_schema(raw_schema) != forest.schema:
            raise DataError(f"{doc} document key 'raw_schema' differs from its forest's columns")
        return TransferModel(
            forest=forest,
            fallback=read_key(obj, "fallback", bool, doc),
            diagnostics=read_key(obj, "diagnostics", dict, doc),
            raw_schema=raw_schema,
            config=config,
        )


def fit_forest(encoded: Dataset, cfg: TransferConfig) -> Forest:
    """The pipeline's forest on an encoded dataset: cfg's tree count and
    seed, and cfg's minimum leaf size for the dataset's size."""
    return train_forest(encoded, cfg.n_trees, cfg.min_leaf_for(encoded.n), cfg.seed)


def domain_forest(held: dict, domain: str, ds: Dataset,
                  cfg: TransferConfig) -> tuple[Dataset, Forest]:
    """(encoding, forest) of `domain`'s dataset ds, memoised in held.

    The first request one-hot encodes ds, trains fit_forest on it and keeps
    (ds, cfg, encoding, forest) in held[domain]. A later request must pass
    the same Dataset object, which is frozen and read-only, and an equal
    config, else DataError.
    """
    entry = held.get(domain)
    if entry is None:
        encoded = one_hot_encode(ds)
        entry = held[domain] = (ds, cfg, encoded, fit_forest(encoded, cfg))
    elif entry[0] is not ds or entry[1] != cfg:
        raise DataError(f"the held {domain} forest was trained on another dataset or config")
    return entry[2], entry[3]


def select_transferable(ds_src: Dataset, leaves: LeafTable, pivots: pivot.PivotSet,
                        dedup_map: np.ndarray) -> Dataset | None:
    """Source records belonging to at least one matched source pivot.

    dedup_map sends each leaf of the table to its deduplicated distribution
    row; a record qualifies when any of its leaves maps to a matched source
    row. Each record appears at most once, in ascending order. Returns None
    when nothing qualifies.
    """
    if len(dedup_map) != len(leaves):
        raise DataError("dedup_map must cover every leaf")
    matched = np.isin(dedup_map, [pair[0] for pair in pivots.pairs])
    keep = np.zeros(ds_src.n, dtype=bool)
    keep[leaves.members[np.repeat(matched, leaves.sizes)]] = True
    if not keep.any():
        return None
    return ds_src.subset(np.flatnonzero(keep))


def project_records(ds: Dataset, projection: ProjectionMatrix,
                    target_schema, target_class_names) -> Dataset | None:
    """Multiply encoded source records by the projection matrix.

    Labels are carried over by class name; records whose label does not
    exist in the target class set are dropped (counted in the log). Returns
    None when every record is dropped.
    """
    if ds.d != projection.d_source:
        raise DataError(
            f"dataset has {ds.d} columns but projection expects {projection.d_source}"
        )
    if len(target_schema) != projection.d_target:
        raise DataError("target schema width does not match projection output")
    new_labels = name_index(ds.class_names, target_class_names)[ds.labels]
    keep = new_labels >= 0
    dropped = int((~keep).sum())
    if dropped:
        logger.warning("project_records dropped %d records with non-shared labels", dropped)
    if not keep.any():
        return None
    projected = ds.records[keep] @ projection.matrix
    return Dataset(
        tuple(target_schema), projected, new_labels[keep],
        tuple(target_class_names), "target",
    )


def merge_datasets(projected: Dataset, target: Dataset) -> Dataset:
    """Projected source records appended to the target dataset."""
    if projected.schema != target.schema or projected.class_names != target.class_names:
        raise DataError("cannot merge datasets with different schemas or classes")
    return Dataset(
        target.schema,
        np.vstack([projected.records, target.records]),
        np.concatenate([projected.labels, target.labels]),
        target.class_names,
        "target",
    )


def run_transfer(ds_src: Dataset, ds_tgt: Dataset, cfg: TransferConfig,
                 forests: dict | None = None) -> TransferModel:
    """Full pipeline from two labeled datasets to a target-domain model.

    `forests`, a `domain_forest` memo, supplies and receives the domain
    forests; without it both are trained and dropped. The missing-cell and
    shared-class checks run before any training.
    """
    if ds_src.has_missing() or ds_tgt.has_missing():
        raise MissingValueError("run_transfer requires repaired datasets (no missing cells)")
    if set(ds_src.class_names).isdisjoint(ds_tgt.class_names):
        raise MatchingError("pivot matching: source and target share no class labels")

    held = {} if forests is None else forests
    src, forest_src = domain_forest(held, "source", ds_src, cfg)
    tgt, forest_tgt = domain_forest(held, "target", ds_tgt, cfg)

    leaves_src = collect_leaves(forest_src)
    leaves_tgt = collect_leaves(forest_tgt)
    bundle_src, map_src = pivot.dedup(pivot.extract_distributions(src, leaves_src))
    bundle_tgt, _ = pivot.dedup(pivot.extract_distributions(tgt, leaves_tgt))
    pivots = pivot.match_pivots(bundle_src, bundle_tgt, cfg.pivot_threshold)

    diagnostics = {
        "n_pivots": pivots.n_pivots,
        "divergences": [float(d) for d in pivots.divergences],
        "shared_classes": list(pivots.shared_classes),
        "mu": None,
        "n_selected": 0,
        "n_dropped_labels": 0,
        "solve_residual": None,
    }

    def fallback_model(reason: str) -> TransferModel:
        logger.info("falling back to the target-only forest: %s", reason)
        diagnostics["fallback_reason"] = reason
        return TransferModel(
            forest=forest_tgt, fallback=True,
            diagnostics=diagnostics, raw_schema=ds_tgt.schema, config=cfg,
        )

    if pivots.n_pivots == 0:
        return fallback_model("no pivot pair below the divergence threshold")

    stacked = adaptation.stack_pivots(pivots, bundle_src, bundle_tgt)
    diagnostics["mu"], diagnostics["solve_residual"], projection = adaptation.adapt(
        stacked, cfg.ridge, cfg.mmd, cfg.manifold,
        kernel_kind=cfg.kernel, alpha_mode=cfg.alpha_mode)

    selected = select_transferable(src, leaves_src, pivots, map_src)
    if selected is None:
        return fallback_model("no source record belongs to a matched pivot")
    projected = project_records(selected, projection, tgt.schema, tgt.class_names)
    if projected is None:
        return fallback_model("every selected record had a non-shared label")
    diagnostics["n_selected"] = selected.n
    diagnostics["n_dropped_labels"] = selected.n - projected.n

    merged = merge_datasets(projected, tgt)
    # nothing reads the final forest's leaf table, and a loaded model has none
    final = replace(fit_forest(merged, cfg), leaves=None)
    return TransferModel(
        forest=final, fallback=False,
        diagnostics=diagnostics, raw_schema=ds_tgt.schema, config=cfg,
    )
