"""End-to-end pipeline: forests, pivots, projection, transfer, final model.

run_transfer one-hot encodes both domains, trains a forest per domain,
matches deduplicated leaf label distributions across domains, solves for the
projection matrix, projects the source records that belong to matched source
pivots into the target feature space, merges them with the target data and
trains the final forest. If no pivots match (or nothing survives selection)
the model falls back to the target-only forest.

Every forest of the pipeline is trained by `fit_forest`, the one place that
turns a TransferConfig into training parameters. A caller that scores other
methods on the same data passes a `DomainForests` holder: run_transfer fills
its empty slots with the domain forests it trains and reuses filled ones, so
the caller's source-only and target-only baselines share them.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass

import numpy as np

from . import adaptation, pivot
from .adaptation import ProjectionMatrix
from .dataset import Dataset, encode_records, one_hot_encode
from .errors import DataError, MatchingError, MissingValueError
from .forest import (
    Forest,
    collect_leaves,
    forest_from_dict,
    forest_to_dict,
    predict_many,
    train_forest,
)

logger = logging.getLogger("leafbridge")


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
    mmd_cross_term: str = "product"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_trees", "min_leaf_small", "min_leaf_large", "large_threshold"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        for name in ("ridge", "mmd", "manifold"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if not 0.0 < self.pivot_threshold < 1.0:
            raise DataError("pivot_threshold must be in (0, 1)")
        if self.kernel not in ("linear", "rbf"):
            raise DataError(f"unknown kernel {self.kernel!r}")
        if self.alpha_mode not in ("literal", "inverse"):
            raise DataError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.mmd_cross_term not in ("product", "squared"):
            raise DataError(f"unknown mmd_cross_term {self.mmd_cross_term!r}")

    def min_leaf_for(self, n: int) -> int:
        """Minimum leaf size by dataset size: large datasets get the large
        value."""
        return self.min_leaf_large if n > self.large_threshold else self.min_leaf_small


@dataclass(frozen=True, eq=False)
class TransferModel:
    """Final classifier plus the projection and pipeline diagnostics."""

    forest: Forest
    projection: ProjectionMatrix | None
    fallback: bool
    diagnostics: dict
    raw_schema: tuple
    class_names: tuple[str, ...]
    config: TransferConfig

    def predict_many(self, ds: Dataset) -> np.ndarray:
        """Predict class indices for records in the raw target schema."""
        if ds.schema != self.raw_schema:
            raise DataError("dataset schema does not match the model's target schema")
        encoded = encode_records(ds.records, ds.schema)
        return predict_many(self.forest, encoded)

    def to_dict(self) -> dict:
        proj_csv = None
        if self.projection is not None:
            proj_csv = "\n".join(
                ",".join(repr(float(v)) for v in row) for row in self.projection.matrix
            )
        return {
            "format": "leafbridge-model",
            "version": 1,
            "fallback": self.fallback,
            "forest": forest_to_dict(self.forest),
            "projection_csv": proj_csv,
            "diagnostics": self.diagnostics,
            "class_names": list(self.class_names),
            "raw_schema": [
                {"name": a.name, "kind": a.kind, "categories": list(a.categories)}
                for a in self.raw_schema
            ],
            "config": asdict(self.config),
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path) -> "TransferModel":
        from .dataset import AttributeSchema

        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if obj.get("format") != "leafbridge-model" or obj.get("version") != 1:
            raise DataError("not a version-1 model document")
        projection = None
        if obj["projection_csv"] is not None:
            matrix = np.array([
                [float(v) for v in line.split(",")]
                for line in obj["projection_csv"].split("\n")
            ])
            projection = ProjectionMatrix(matrix)
        return TransferModel(
            forest=forest_from_dict(obj["forest"]),
            projection=projection,
            fallback=obj["fallback"],
            diagnostics=obj["diagnostics"],
            raw_schema=tuple(
                AttributeSchema(a["name"], a["kind"], tuple(a["categories"]))
                for a in obj["raw_schema"]
            ),
            class_names=tuple(obj["class_names"]),
            config=TransferConfig(**obj["config"]),
        )


def fit_forest(encoded: Dataset, cfg: TransferConfig) -> Forest:
    """The pipeline's forest on an encoded dataset: cfg's tree count and
    seed, and cfg's minimum leaf size for the dataset's size."""
    return train_forest(encoded, cfg.n_trees, cfg.min_leaf_for(encoded.n), cfg.seed)


@dataclass(eq=False)
class DomainForests:
    """The source and target forests of one pair of datasets.

    `get` trains an empty slot's forest and fills the slot; later requests
    return the same object. Keep a holder for one pair of datasets and one
    config only (the experiment runner keeps one per cell): a filled slot is
    checked against the schema and classes of the encoded data, not against
    its records or the config.
    """

    source: Forest | None = None
    target: Forest | None = None

    def get(self, domain: str, encoded: Dataset, cfg: TransferConfig) -> Forest:
        """The forest of `domain` ("source" or "target"), trained by
        fit_forest on first request; DataError if a filled slot does not fit
        the encoded data."""
        forest = getattr(self, domain)
        if forest is None:
            forest = fit_forest(encoded, cfg)
            setattr(self, domain, forest)
        elif forest.schema != encoded.schema or forest.class_names != encoded.class_names:
            raise DataError(
                f"the {domain} forest was trained on another schema or class set "
                f"than the {domain} data"
            )
        return forest


def select_transferable(ds_src: Dataset, leaves, pivots: pivot.PivotSet,
                        dedup_map: np.ndarray) -> Dataset | None:
    """Source records belonging to at least one matched source pivot.

    dedup_map sends each leaf (by position in `leaves`) to its deduplicated
    distribution row; a record qualifies when any of its leaves maps to a
    matched source row. Each record appears at most once. Returns None when
    nothing qualifies.
    """
    if len(dedup_map) != len(leaves):
        raise DataError("dedup_map must cover every leaf")
    matched_rows = {pair[0] for pair in pivots.pairs}
    selected = set()
    for leaf, row in zip(leaves, dedup_map):
        if int(row) in matched_rows:
            selected.update(leaf.members)
    if not selected:
        return None
    return ds_src.subset(np.array(sorted(selected), dtype=np.int64))


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
    name_to_target = {name: i for i, name in enumerate(target_class_names)}
    mapped = np.array([name_to_target.get(name, -1) for name in ds.class_names])
    new_labels = mapped[ds.labels]
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
                 forests: DomainForests | None = None) -> TransferModel:
    """Full pipeline from two labeled datasets to a target-domain model.

    `forests` supplies domain forests already trained on these datasets
    under cfg and receives the ones trained here; without it both are
    trained and dropped. The missing-cell and shared-class checks run before
    any training.
    """
    if ds_src.has_missing() or ds_tgt.has_missing():
        raise MissingValueError("run_transfer requires repaired datasets (no missing cells)")
    shared = tuple(name for name in ds_src.class_names if name in ds_tgt.class_names)
    if not shared:
        raise MatchingError("pivot matching: source and target share no class labels")

    src = one_hot_encode(ds_src)
    tgt = one_hot_encode(ds_tgt)
    if forests is None:
        forests = DomainForests()
    forest_src = forests.get("source", src, cfg)
    forest_tgt = forests.get("target", tgt, cfg)

    leaves_src = collect_leaves(forest_src)
    leaves_tgt = collect_leaves(forest_tgt)
    bundle_src, map_src = pivot.dedup(pivot.extract_distributions(src, leaves_src))
    bundle_tgt, _ = pivot.dedup(pivot.extract_distributions(tgt, leaves_tgt))
    pivots = pivot.match_pivots(bundle_src, bundle_tgt, cfg.pivot_threshold)

    diagnostics = {
        "n_pivots": pivots.n_pivots,
        "divergences": [float(d) for d in pivots.divergences],
        "shared_classes": list(shared),
        "mu": None,
        "z": None,
        "n_selected": 0,
        "n_dropped_labels": 0,
        "adaptation": None,
    }

    def fallback_model(reason: str) -> TransferModel:
        logger.info("falling back to the target-only forest: %s", reason)
        diagnostics["fallback_reason"] = reason
        return TransferModel(
            forest=forest_tgt, projection=None, fallback=True,
            diagnostics=diagnostics, raw_schema=ds_tgt.schema,
            class_names=ds_tgt.class_names, config=cfg,
        )

    if pivots.n_pivots == 0:
        return fallback_model("no pivot pair below the divergence threshold")

    stacked = adaptation.stack_pivots(pivots)
    state, projection = adaptation.adapt(
        stacked, cfg.ridge, cfg.mmd, cfg.manifold,
        kernel_kind=cfg.kernel, alpha_mode=cfg.alpha_mode,
        cross_term=cfg.mmd_cross_term,
    )
    diagnostics["mu"] = state.mu
    diagnostics["z"] = stacked.z
    diagnostics["adaptation"] = state.diagnostics()

    selected = select_transferable(src, leaves_src, pivots, map_src)
    if selected is None:
        return fallback_model("no source record belongs to a matched pivot")
    projected = project_records(selected, projection, tgt.schema, tgt.class_names)
    if projected is None:
        return fallback_model("every selected record had a non-shared label")
    diagnostics["n_selected"] = selected.n
    diagnostics["n_dropped_labels"] = selected.n - projected.n

    merged = merge_datasets(projected, tgt)
    final = fit_forest(merged, cfg)
    return TransferModel(
        forest=final, projection=projection, fallback=False,
        diagnostics=diagnostics, raw_schema=ds_tgt.schema,
        class_names=ds_tgt.class_names, config=cfg,
    )
