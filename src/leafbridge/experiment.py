"""Experiment runner: source->target pairs, repeats, reports, significance.

The experiment protocol mirrors the evaluation setup: each pair's target
file is split into a small labeled target part and a large test part (5%/95%
by default), every requested method is trained and scored on the test part,
and cells are averaged over repeats. Reports are written as JSON plus a flat
CSV accuracy table, and the per-pair accuracies feed a right-tailed sign
test and a Nemenyi critical-difference analysis at pair and group level.

A cell (one inject ratio and one repeat) trains its source and target
forests at most once, when the first method asks for them: `tlf`'s domain
forests are the `source_only` and `target_only` baselines, so a cell trains
at most three forests (the third is tlf's final forest) and holds the two
domain forests until it ends.
"""

from __future__ import annotations

import configparser
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import Dataset, SplitSpec, encode_records, inject_missing, load_csv, \
    one_hot_encode, repair_missing, split_target
from .errors import DataError, LeafBridgeError, MissingValueError
from .forest import Forest, predict_many
from .metrics import SIGN_TEST_Z_REF, evaluate, mean_ranks, nemenyi_cd, sign_test
from .transfer import DomainForests, TransferConfig, run_transfer

logger = logging.getLogger("leafbridge")

METHODS = ("tlf", "source_only", "target_only")


@dataclass(frozen=True)
class PairSpec:
    source: str
    target: str
    group: str = ""

    @property
    def name(self) -> str:
        return f"{Path(self.source).stem}->{Path(self.target).stem}"


@dataclass(frozen=True)
class ExperimentSpec:
    pairs: tuple[PairSpec, ...]
    label_column: str = "label"
    split: SplitSpec = field(default_factory=lambda: SplitSpec(0.05, 0))
    repeats: int = 1
    methods: tuple[str, ...] = ("tlf", "source_only", "target_only")
    missing_mode: str = "none"
    inject_ratios: tuple[float, ...] = ()
    output: str = "report"

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise DataError("an experiment needs at least one source->target pair")
        if self.repeats < 1:
            raise DataError("repeats must be >= 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise DataError(f"unknown methods {unknown}; choose from {METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise DataError(f"methods {repeated} listed more than once")
        if self.missing_mode not in ("none", "srd", "impute"):
            raise DataError(f"unknown missing mode {self.missing_mode!r}")
        if self.missing_mode == "none" and self.inject_ratios:
            raise DataError("inject_ratios requires missing_mode srd or impute")


class _ForestPredictor:
    """Adapter: a plain forest evaluated on a dataset in another schema.

    Records are encoded with the forest's own raw training schema and the
    predicted class indices are mapped into the evaluation dataset's class
    space by name (classes unknown to it become -1, always wrong).
    """

    def __init__(self, forest: Forest, raw_schema, forest_classes):
        self.forest = forest
        self.raw_schema = raw_schema
        self.forest_classes = forest_classes

    def predict_many(self, ds: Dataset) -> np.ndarray:
        if tuple(a.name for a in ds.schema) != tuple(a.name for a in self.raw_schema) or \
           tuple(a.kind for a in ds.schema) != tuple(a.kind for a in self.raw_schema):
            raise DataError("dataset schema does not match the forest's training schema")
        if ds.has_missing():
            raise MissingValueError("cannot predict records with missing cells")
        raw = np.array(ds.records)
        for j, (a, b) in enumerate(zip(ds.schema, self.raw_schema)):
            if a.kind != "categorical" or a.categories == b.categories:
                continue
            # re-index categories through the training schema's category order
            index = {name: i for i, name in enumerate(b.categories)}
            lookup = np.array([index.get(name, -1) for name in a.categories])
            col = lookup[raw[:, j].astype(np.int64)]
            unknown = np.flatnonzero(col < 0)
            if unknown.size:
                name = a.categories[int(raw[unknown[0], j])]
                raise DataError(f"category {name!r} of column {a.name!r} unknown to the model")
            raw[:, j] = col
        preds = predict_many(self.forest, encode_records(raw, self.raw_schema))
        class_index = {name: i for i, name in enumerate(ds.class_names)}
        mapping = np.array([class_index.get(name, -1) for name in self.forest_classes],
                           dtype=np.int64)
        return mapping[preds]


def _train_method(method: str, src: Dataset, tgt: Dataset, cfg: TransferConfig,
                  forests: DomainForests):
    """Model of one method; the domain forests come from the cell's holder."""
    if method == "tlf":
        return run_transfer(src, tgt, cfg, forests)
    if method == "target_only":
        forest = forests.get("target", one_hot_encode(tgt), cfg)
        return _ForestPredictor(forest, tgt.schema, tgt.class_names)
    if method == "source_only":
        forest = forests.get("source", one_hot_encode(src), cfg)
        return _ForestPredictor(forest, src.schema, src.class_names)
    raise DataError(f"unknown method {method!r}")


def _mean(values) -> float:
    return float(np.mean(np.asarray(values, dtype=np.float64)))


def run_experiment(spec: ExperimentSpec, cfg: TransferConfig) -> "EvaluationReport":
    """Run every pair/repeat/method combination and assemble the report.

    A failing pair is recorded with its error and the run continues. Splits
    use seed spec.split.seed + repeat; training uses cfg.seed + repeat.
    """
    ratios = spec.inject_ratios if spec.inject_ratios else (None,)
    pair_results = []
    for pair in spec.pairs:
        try:
            pair_results.append(_run_pair(pair, spec, cfg, ratios))
        except (LeafBridgeError, OSError) as exc:
            logger.warning("pair %s failed: %s", pair.name, exc)
            pair_results.append({
                "pair": pair.name, "source": pair.source, "target": pair.target,
                "group": pair.group, "error": f"{type(exc).__name__}: {exc}",
            })
    return EvaluationReport.assemble(spec, cfg, pair_results)


def _repair(ds: Dataset, mode: str, reference: Dataset | None = None) -> Dataset:
    if mode != "none":
        return repair_missing(ds, mode, reference)
    if ds.has_missing():
        raise DataError("dataset has missing cells; set missing_mode to srd or impute")
    return ds


def _inject(ds: Dataset, ratio, seed: int) -> Dataset:
    return ds if ratio is None else inject_missing(ds, ratio, seed)


def _run_pair(pair: PairSpec, spec: ExperimentSpec, cfg: TransferConfig, ratios):
    source_full = load_csv(pair.source, spec.label_column, domain_tag="source")
    target_full = load_csv(pair.target, spec.label_column, domain_tag="target")
    per_ratio = []
    for ratio in ratios:
        method_metrics = {m: [] for m in spec.methods}
        method_errors = {m: [] for m in spec.methods}
        diag = {"n_pivots": [], "mu": [], "fallback_runs": 0, "adaptation": None}
        for r in range(spec.repeats):
            split = SplitSpec(spec.split.target_fraction, spec.split.seed + r)
            target_train, test = split_target(target_full, split)
            src = _repair(_inject(source_full, ratio, 2 * (cfg.seed + r)), spec.missing_mode)
            target_train = _inject(target_train, ratio, 2 * (cfg.seed + r) + 1)
            tgt = _repair(target_train, spec.missing_mode)
            # the test part is repaired by the same rule; impute fills its
            # cells from the labeled target part, never from itself
            test = _repair(test, spec.missing_mode, reference=target_train)
            run_cfg = replace(cfg, seed=cfg.seed + r)
            forests = DomainForests()
            for method in spec.methods:
                try:
                    model = _train_method(method, src, tgt, run_cfg, forests)
                    method_metrics[method].append(evaluate(model, test))
                except LeafBridgeError as exc:
                    method_errors[method].append(f"{type(exc).__name__}: {exc}")
                    continue
                if method == "tlf":
                    diag["n_pivots"].append(model.diagnostics["n_pivots"])
                    if model.fallback:
                        diag["fallback_runs"] += 1
                    elif model.diagnostics["mu"] is not None:
                        diag["mu"].append(model.diagnostics["mu"])
                    if diag["adaptation"] is None:
                        diag["adaptation"] = model.diagnostics["adaptation"]
        methods_out = {}
        for method in spec.methods:
            runs = method_metrics[method]
            if not runs:
                methods_out[method] = {"error": "; ".join(method_errors[method]) or "no runs"}
                continue
            methods_out[method] = {
                "accuracy": _mean([m.accuracy for m in runs]),
                "macro_f1": _mean([m.macro_f1 for m in runs]),
                "precision": _mean([np.mean(m.precision) for m in runs]),
                "recall": _mean([np.mean(m.recall) for m in runs]),
                "runs": len(runs),
            }
            if method_errors[method]:
                methods_out[method]["failed_runs"] = len(method_errors[method])
        per_ratio.append({
            "inject_ratio": ratio,
            "methods": methods_out,
            "diagnostics": {
                "n_pivots": _mean(diag["n_pivots"]) if diag["n_pivots"] else None,
                "mu": _mean(diag["mu"]) if diag["mu"] else None,
                "fallback_runs": diag["fallback_runs"],
                "adaptation": diag["adaptation"],
            } if "tlf" in spec.methods else None,
        })
    result = {
        "pair": pair.name, "source": pair.source, "target": pair.target,
        "group": pair.group,
    }
    if len(ratios) == 1 and ratios[0] is None:
        result.update(per_ratio[0])
        del result["inject_ratio"]
    else:
        result["by_ratio"] = per_ratio
    return result


def _accuracy_cell(entry: dict, method: str):
    cell = entry.get("methods", {}).get(method)
    if cell is None or "accuracy" not in cell:
        return None
    return cell["accuracy"]


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Per-pair results, aggregate means, and significance tests."""

    spec: ExperimentSpec
    config: TransferConfig
    pairs: list
    aggregates: dict
    significance: dict

    @staticmethod
    def assemble(spec: ExperimentSpec, cfg: TransferConfig, pair_results) -> "EvaluationReport":
        flat = [p for p in pair_results if "error" not in p and "methods" in p]
        aggregates = {}
        for method in spec.methods:
            cells = [c for p in flat if (c := _accuracy_cell(p, method)) is not None]
            aggregates[method] = {
                "mean_accuracy": _mean(cells) if cells else None,
                "pairs": len(cells),
            }
        significance = EvaluationReport._significance(spec, flat)
        return EvaluationReport(spec, cfg, pair_results, aggregates, significance)

    @staticmethod
    def _significance(spec: ExperimentSpec, flat) -> dict:
        out = {"sign_test": {}, "nemenyi": None}
        if "tlf" not in spec.methods:
            return out
        for level in ("pair", "group"):
            cells = EvaluationReport._level_cells(spec, flat, level)
            out["sign_test"][level] = EvaluationReport._sign_block(spec, cells)
        cells = EvaluationReport._level_cells(spec, flat, "pair")
        complete = [row for row in cells.values()
                    if all(row.get(m) is not None for m in spec.methods)]
        if len(spec.methods) >= 2 and len(complete) >= 2:
            matrix = np.array([[row[m] for m in spec.methods] for row in complete])
            ranks = mean_ranks(matrix)
            cd = nemenyi_cd(len(spec.methods), len(complete))
            out["nemenyi"] = {
                "methods": list(spec.methods),
                "mean_ranks": [float(r) for r in ranks],
                "critical_difference": cd,
                "datasets": len(complete),
            }
        return out

    @staticmethod
    def _level_cells(spec: ExperimentSpec, flat, level: str) -> dict:
        """Accuracy rows keyed by pair name or by group (group = mean of its
        pairs)."""
        if level == "pair":
            return {
                p["pair"]: {m: _accuracy_cell(p, m) for m in spec.methods}
                for p in flat
            }
        grouped: dict[str, dict[str, list]] = {}
        for p in flat:
            key = p.get("group") or p["pair"]
            bucket = grouped.setdefault(key, {m: [] for m in spec.methods})
            for m in spec.methods:
                cell = _accuracy_cell(p, m)
                if cell is not None:
                    bucket[m].append(cell)
        return {
            key: {m: (_mean(vals) if vals else None) for m, vals in bucket.items()}
            for key, bucket in grouped.items()
        }

    @staticmethod
    def _sign_block(spec: ExperimentSpec, cells: dict) -> dict:
        block = {}
        for method in spec.methods:
            if method == "tlf":
                continue
            wins = losses = ties = 0
            for row in cells.values():
                ours, theirs = row.get("tlf"), row.get(method)
                if ours is None or theirs is None:
                    continue
                if ours > theirs:
                    wins += 1
                elif ours < theirs:
                    losses += 1
                else:
                    ties += 1
            entry = {"wins": wins, "losses": losses, "ties": ties}
            if wins + losses >= 1:
                z = sign_test(wins, losses)
                entry["z"] = z
                entry["significant"] = bool(z > SIGN_TEST_Z_REF)
            block[f"tlf_vs_{method}"] = entry
        return block

    def to_dict(self) -> dict:
        return {
            "format": "leafbridge-report",
            "version": 1,
            "spec": {
                "pairs": [
                    {"source": p.source, "target": p.target, "group": p.group}
                    for p in self.spec.pairs
                ],
                "label_column": self.spec.label_column,
                "split_fraction": self.spec.split.target_fraction,
                "seed": self.spec.split.seed,
                "repeats": self.spec.repeats,
                "methods": list(self.spec.methods),
                "missing_mode": self.spec.missing_mode,
                "inject_ratios": list(self.spec.inject_ratios),
            },
            "pairs": self.pairs,
            "aggregates": self.aggregates,
            "significance": self.significance,
        }

    def to_csv(self) -> str:
        """Flat accuracy table: one row per pair, one column per method."""
        lines = ["pair,group," + ",".join(self.spec.methods)]
        for p in self.pairs:
            if "error" in p:
                cells = ["error"] * len(self.spec.methods)
            else:
                cells = []
                for m in self.spec.methods:
                    value = _accuracy_cell(p, m)
                    cells.append("" if value is None else f"{value:.6f}")
            lines.append(",".join([p["pair"], p.get("group", "")] + cells))
        avg_cells = []
        for m in self.spec.methods:
            value = self.aggregates[m]["mean_accuracy"]
            avg_cells.append("" if value is None else f"{value:.6f}")
        lines.append(",".join(["Average", ""] + avg_cells))
        return "\n".join(lines) + "\n"

    def write(self, output_base) -> tuple[Path, Path]:
        base = Path(output_base)
        base.parent.mkdir(parents=True, exist_ok=True)
        json_path = base.with_suffix(".json")
        csv_path = base.with_suffix(".csv")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())
        return json_path, csv_path

    @property
    def all_failed(self) -> bool:
        return all("error" in p for p in self.pairs)


# Config file parsing (key = value sections).

CONFIG_TEMPLATE = """\
# leafbridge experiment configuration
# every key is shown with its default value

[experiment]
# one pair per line: source.csv :: target.csv [:: group]
pairs =
label_column = label
split_fraction = 0.05
seed = 0
repeats = 1
# any of: tlf, source_only, target_only
methods = tlf, source_only, target_only
# none | srd | impute  (srd deletes incomplete records, impute fills them)
missing_mode = none
# e.g. 0.1, 0.3, 0.5 to inject missing values before repair
inject_ratios =
output = report

[forest]
trees = 10
min_leaf_small = 20
min_leaf_large = 50
large_threshold = 10000

[pivot]
divergence_threshold = 0.1

[adapt]
ridge = 0.001
mmd = 5.0
manifold = 0.01
# linear | rbf
kernel = rbf
# literal | inverse
alpha_mode = literal
# product | squared
mmd_cross_term = product
"""


def default_config_text() -> str:
    return CONFIG_TEMPLATE


def parse_config(path) -> tuple[ExperimentSpec, TransferConfig]:
    """Read an experiment spec plus pipeline config from a key = value file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise DataError(f"cannot read config file {path}")

    def get(section, key, fallback):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return fallback

    pairs = []
    for line in get("experiment", "pairs", "").splitlines():
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("::")]
        if len(parts) == 2:
            pairs.append(PairSpec(parts[0], parts[1]))
        elif len(parts) == 3:
            pairs.append(PairSpec(parts[0], parts[1], parts[2]))
        else:
            raise DataError(f"bad pair line {line!r}, expected 'source :: target [:: group]'")
    methods = tuple(
        m.strip() for m in get("experiment", "methods", "tlf, source_only, target_only").split(",")
        if m.strip()
    )
    ratios = tuple(
        float(r) for r in get("experiment", "inject_ratios", "").split(",") if r.strip()
    )
    spec = ExperimentSpec(
        pairs=tuple(pairs),
        label_column=get("experiment", "label_column", "label"),
        split=SplitSpec(
            float(get("experiment", "split_fraction", "0.05")),
            int(get("experiment", "seed", "0")),
        ),
        repeats=int(get("experiment", "repeats", "1")),
        methods=methods,
        missing_mode=get("experiment", "missing_mode", "none"),
        inject_ratios=ratios,
        output=get("experiment", "output", "report"),
    )
    cfg = TransferConfig(
        n_trees=int(get("forest", "trees", "10")),
        min_leaf_small=int(get("forest", "min_leaf_small", "20")),
        min_leaf_large=int(get("forest", "min_leaf_large", "50")),
        large_threshold=int(get("forest", "large_threshold", "10000")),
        pivot_threshold=float(get("pivot", "divergence_threshold", "0.1")),
        ridge=float(get("adapt", "ridge", "0.001")),
        mmd=float(get("adapt", "mmd", "5.0")),
        manifold=float(get("adapt", "manifold", "0.01")),
        kernel=get("adapt", "kernel", "rbf"),
        alpha_mode=get("adapt", "alpha_mode", "literal"),
        mmd_cross_term=get("adapt", "mmd_cross_term", "product"),
        seed=int(get("experiment", "seed", "0")),
    )
    return spec, cfg
