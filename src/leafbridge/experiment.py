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
at most three forests (the third is tlf's final forest). Its one
`domain_forest` memo holds each domain's encoding and forest until it ends.
Every method's model is a `TransferModel` (a baseline's holds its domain
forest), and `evaluate` scores it on the test part, which the model aligns
to its own raw schema and encodes.

Every pair's CSV files are loaded before any cell runs, each distinct file
once per domain. The loaded pairs' cells run cell-major through one
`workers.fork_map` and are folded back in pair order, then cell order. A
cell returns its scores and tlf's diagnostics, or the error text that fails
its pair, never a model, and seeds itself from its repeat index, so the
report is the one a single process writes.
"""

from __future__ import annotations

import configparser
import csv
import functools
import io
import json
import logging
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import (
    Dataset,
    SplitSpec,
    check_field_types,
    inject_missing,
    load_csv,
    repair_missing,
    split_target,
)
from .errors import DataError, LeafBridgeError
from .metrics import SIGN_TEST_Z_REF, evaluate, mean_ranks, nemenyi_cd, sign_test
from .transfer import TransferConfig, TransferModel, domain_forest, run_transfer
from .workers import fork_map

logger = logging.getLogger("leafbridge")

METHODS = ("tlf", "source_only", "target_only")


@dataclass(frozen=True)
class PairSpec:
    source: str
    target: str
    group: str = ""

    def __post_init__(self):
        check_field_types(self)

    @property
    def name(self) -> str:
        return f"{Path(self.source).stem}->{Path(self.target).stem}"


@dataclass(frozen=True)
class ExperimentSpec:
    pairs: tuple[PairSpec, ...] = ()
    label_column: str = "label"
    split: SplitSpec = field(default_factory=SplitSpec)
    repeats: int = 1
    methods: tuple[str, ...] = METHODS
    missing_mode: str = "none"
    inject_ratios: tuple[float, ...] = ()
    output: str = "report"

    def __post_init__(self):
        check_field_types(self)
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
        outside = [r for r in self.inject_ratios if not 0.0 <= r <= 0.5]
        if outside:
            raise DataError(f"inject_ratios {outside} must be in [0, 0.5]")


def _train_method(method: str, src: Dataset, tgt: Dataset, cfg: TransferConfig,
                  held: dict) -> TransferModel:
    """Model of one method; the domain forests come from the cell's
    `domain_forest` memo. A baseline is its domain's forest with that
    domain's raw schema and classes and no diagnostics."""
    if method == "tlf":
        return run_transfer(src, tgt, cfg, held)
    domain, ds = ("target", tgt) if method == "target_only" else ("source", src)
    return TransferModel(forest=domain_forest(held, domain, ds, cfg)[1], fallback=False,
                         diagnostics={}, raw_schema=ds.schema, config=cfg)


def _mean(values) -> float:
    return float(np.mean(np.asarray(values, dtype=np.float64)))


def run_experiment(spec: ExperimentSpec, cfg: TransferConfig) -> "EvaluationReport":
    """Run every pair/repeat/method combination and assemble the report.

    Splits use seed spec.split.seed + repeat, training cfg.seed + repeat.
    Each distinct file loads here once per domain; the loaded pairs' cells
    run cell-major through one `fork_map`. A failing pair holds the text of
    its load error, its first failing cell's error or the map's OSError.
    """
    ratios = spec.inject_ratios if spec.inject_ratios else (None,)
    cells = [(ratio, r) for ratio in ratios for r in range(spec.repeats)]
    load = functools.cache(lambda path, tag: load_csv(path, spec.label_column, domain_tag=tag))
    loaded, failed = [], []  # datasets of the loaded pairs; each pair's [load error] or None
    for pair in spec.pairs:
        try:
            loaded.append((load(pair.source, "source"), load(pair.target, "target")))
            failed.append(None)
        except (LeafBridgeError, OSError) as exc:
            failed.append([f"{type(exc).__name__}: {exc}"])
    items = [(pair, cell) for cell in cells for pair in loaded]
    work = [2 * cfg.n_trees * (src.n + round(tgt.n * spec.split.target_fraction))
            for (src, tgt), _ in items]
    try:
        results = fork_map(lambda share: [_run_cell(*pair, spec, cfg, *cell)
                                          for pair, cell in share], items, work, "cells")
    except OSError as exc:  # a failed fork or a worker that died fails every loaded pair
        results = [f"{type(exc).__name__}: {exc}"] * len(items)
    by_pair = (results[k::len(loaded)] for k in range(len(loaded)))
    pair_results = []
    for pair, got in zip(spec.pairs, failed):
        got = got or next(by_pair)
        result = {"pair": pair.name, **asdict(pair)}
        error = next((cell for cell in got if isinstance(cell, str)), None)
        if error is not None:
            logger.warning("pair %s failed: %s", pair.name, error)
            result["error"] = error
        elif not spec.inject_ratios:
            result.update(_fold_cells(spec, None, got))
            del result["inject_ratio"]
        else:
            result["by_ratio"] = [_fold_cells(spec, ratio, got[k * spec.repeats:][:spec.repeats])
                                  for k, ratio in enumerate(ratios)]
        pair_results.append(result)
    return EvaluationReport.assemble(spec, cfg, pair_results)


def _repair(ds: Dataset, mode: str, reference: Dataset | None = None) -> Dataset:
    if mode == "none" and ds.has_missing():
        raise DataError("dataset has missing cells; set missing_mode to srd or impute")
    return ds if mode == "none" else repair_missing(ds, mode, reference)


def _inject(ds: Dataset, ratio, seed: int) -> Dataset:
    return ds if ratio is None else inject_missing(ds, ratio, seed)


def _run_cell(source_full: Dataset, target_full: Dataset, spec: ExperimentSpec,
              cfg: TransferConfig, ratio, r: int):
    """One inject ratio and repeat of a pair: ({method: its EvalMetrics, or
    its LeafBridgeError as text}, tlf's diagnostics or None), or the text of
    the split, inject or repair error, or of any OSError, that fails the pair."""
    try:
        labeled, test = split_target(target_full, replace(spec.split, seed=spec.split.seed + r))
        src = _repair(_inject(source_full, ratio, 2 * (cfg.seed + r)), spec.missing_mode)
        labeled = _inject(labeled, ratio, 2 * (cfg.seed + r) + 1)
        tgt = _repair(labeled, spec.missing_mode)
        # the test part is repaired by the same rule; impute fills its
        # cells from the labeled target part, never from itself
        test = _repair(test, spec.missing_mode, reference=labeled)
        run_cfg = replace(cfg, seed=cfg.seed + r)
        held, scores, tlf = {}, {}, None
        for method in spec.methods:
            try:
                model = _train_method(method, src, tgt, run_cfg, held)
                scores[method] = evaluate(model, test)
            except LeafBridgeError as exc:
                scores[method] = f"{type(exc).__name__}: {exc}"
                continue
            if method == "tlf":
                tlf = {key: model.diagnostics[key] for key in ("n_pivots", "mu")}
                tlf["fallback"] = model.fallback
    except (LeafBridgeError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return scores, tlf


def _fold_cells(spec: ExperimentSpec, ratio, cells) -> dict:
    """The report block of one inject ratio from its cells, in repeat order."""
    methods_out = {}
    for method in spec.methods:
        runs = [scores[method] for scores, _ in cells if not isinstance(scores[method], str)]
        errors = [scores[method] for scores, _ in cells if isinstance(scores[method], str)]
        if not runs:
            methods_out[method] = {"error": "; ".join(errors)}
            continue
        methods_out[method] = {
            "accuracy": _mean([m.accuracy for m in runs]),
            "macro_f1": _mean([m.macro_f1 for m in runs]),
            "precision": _mean([np.mean(m.precision) for m in runs]),
            "recall": _mean([np.mean(m.recall) for m in runs]),
            "runs": len(runs),
        }
        if errors:
            methods_out[method]["failed_runs"] = len(errors)
    tlf = [diag for _, diag in cells if diag is not None]
    n_pivots = [diag["n_pivots"] for diag in tlf]
    mu = [diag["mu"] for diag in tlf if not diag["fallback"] and diag["mu"] is not None]
    return {
        "inject_ratio": ratio,
        "methods": methods_out,
        "diagnostics": {
            "n_pivots": _mean(n_pivots) if n_pivots else None,
            "mu": _mean(mu) if mu else None,
            "fallback_runs": sum(diag["fallback"] for diag in tlf),
        } if "tlf" in spec.methods else None,
    }


def _accuracy_cell(entry: dict, method: str):
    cell = entry.get("methods", {}).get(method)
    if cell is None or "accuracy" not in cell:
        return None
    return cell["accuracy"]


def _level_rows(methods, pairs, level: str) -> list[dict]:
    """Accuracy rows of the scored pairs (no error, no inject ratios): one
    per pair in pair order, or one per group, whose cells are the means of
    its pairs' cells. An ungrouped pair is a group of its own."""
    scored = [p for p in pairs if "error" not in p and "methods" in p]
    rows = [{m: _accuracy_cell(p, m) for m in methods} for p in scored]
    if level == "pair":
        return rows
    groups: dict = {}
    for i, (p, row) in enumerate(zip(scored, rows)):
        groups.setdefault(p.get("group") or i, []).append(row)
    return [{m: _column_mean(members, m) for m in methods} for members in groups.values()]


def _column_mean(rows, method: str):
    cells = [row[method] for row in rows if row[method] is not None]
    return _mean(cells) if cells else None


def sign_tests(methods, pairs) -> dict:
    """Right-tailed sign test of tlf against each other method, at pair and
    group level; a comparison without wins or losses has no z. Empty when
    tlf is not among the methods."""
    if "tlf" not in methods:
        return {}
    out = {}
    for level in ("pair", "group"):
        rows = _level_rows(methods, pairs, level)
        block = out[level] = {}
        for method in methods:
            if method == "tlf":
                continue
            compared = [(row["tlf"], row[method]) for row in rows
                        if row["tlf"] is not None and row[method] is not None]
            wins = sum(ours > theirs for ours, theirs in compared)
            losses = sum(ours < theirs for ours, theirs in compared)
            entry = {"wins": wins, "losses": losses, "ties": len(compared) - wins - losses}
            if wins + losses >= 1:
                z = sign_test(wins, losses)
                entry["z"] = z
                entry["significant"] = bool(z > SIGN_TEST_Z_REF)
            block[f"tlf_vs_{method}"] = entry
    return out


def nemenyi(methods, pairs) -> dict | None:
    """Mean ranks and the alpha = 0.05 critical difference over the pairs
    that score every method; None with fewer than 2 methods or such pairs."""
    complete = [row for row in _level_rows(methods, pairs, "pair")
                if all(row[m] is not None for m in methods)]
    if len(methods) < 2 or len(complete) < 2:
        return None
    ranks = mean_ranks(np.array([[row[m] for m in methods] for row in complete]))
    return {
        "methods": list(methods),
        "mean_ranks": [float(r) for r in ranks],
        "critical_difference": nemenyi_cd(len(methods), len(complete)),
        "datasets": len(complete),
    }


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
        rows = _level_rows(spec.methods, pair_results, "pair")
        aggregates = {
            m: {"mean_accuracy": _column_mean(rows, m),
                "pairs": sum(row[m] is not None for row in rows)}
            for m in spec.methods
        }
        significance = {
            "sign_test": sign_tests(spec.methods, pair_results),
            "nemenyi": nemenyi(spec.methods, pair_results),
        }
        return EvaluationReport(spec, cfg, pair_results, aggregates, significance)

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
            "config": asdict(self.config),
            "pairs": self.pairs,
            "aggregates": self.aggregates,
            "significance": self.significance,
        }

    def to_csv(self) -> str:
        """Flat accuracy table: one row per pair, one column per method; a
        cell that holds a comma, a quote or a line break is quoted."""
        def cells(values):
            return ["" if value is None else f"{value:.6f}" for value in values]

        methods = self.spec.methods
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["pair", "group", *methods])
        for p in self.pairs:
            accuracies = (["error"] * len(methods) if "error" in p
                          else cells(_accuracy_cell(p, m) for m in methods))
            writer.writerow([p["pair"], p.get("group", ""), *accuracies])
        writer.writerow(["Average", "", *cells(self.aggregates[m]["mean_accuracy"]
                                               for m in methods)])
        return out.getvalue()

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

def _listed(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _pairs(text: str) -> tuple[PairSpec, ...]:
    pairs = []
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split("::")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad pair line {line.strip()!r}, "
                             f"expected 'source :: target [:: group]'")
        pairs.append(PairSpec(*parts))
    return tuple(pairs)


#: How a value's text becomes a field of its annotated type.
_READERS = {
    int: int,
    float: float,
    str: str,
    tuple[str, ...]: _listed,
    tuple[float, ...]: lambda text: tuple(float(item) for item in _listed(text)),
    tuple[PairSpec, ...]: _pairs,
}

#: Each `[section] key` of a config file and the dataclass field it sets;
#: a key that is absent leaves the field at its dataclass default.
_CONFIG_KEYS = (
    ("experiment", "pairs", ExperimentSpec, "pairs"),
    ("experiment", "label_column", ExperimentSpec, "label_column"),
    ("experiment", "split_fraction", SplitSpec, "target_fraction"),
    ("experiment", "seed", SplitSpec, "seed"),
    ("experiment", "seed", TransferConfig, "seed"),
    ("experiment", "repeats", ExperimentSpec, "repeats"),
    ("experiment", "methods", ExperimentSpec, "methods"),
    ("experiment", "missing_mode", ExperimentSpec, "missing_mode"),
    ("experiment", "inject_ratios", ExperimentSpec, "inject_ratios"),
    ("experiment", "output", ExperimentSpec, "output"),
    ("forest", "trees", TransferConfig, "n_trees"),
    ("forest", "min_leaf_small", TransferConfig, "min_leaf_small"),
    ("forest", "min_leaf_large", TransferConfig, "min_leaf_large"),
    ("forest", "large_threshold", TransferConfig, "large_threshold"),
    ("pivot", "divergence_threshold", TransferConfig, "pivot_threshold"),
    ("adapt", "ridge", TransferConfig, "ridge"),
    ("adapt", "mmd", TransferConfig, "mmd"),
    ("adapt", "manifold", TransferConfig, "manifold"),
    ("adapt", "kernel", TransferConfig, "kernel"),
    ("adapt", "alpha_mode", TransferConfig, "alpha_mode"),
)


def _config_values(path) -> dict:
    """The field values a config file sets, by owning dataclass (errors: see parse_config)."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataError(f"config file {path}: {exc}") from exc
    if not read:
        raise DataError(f"cannot read config file {path}")
    # configparser copies each [DEFAULT] key into every section, so such a
    # key is checked once, and is known when some section takes it
    known = {(section, key) for section, key, _, _ in _CONFIG_KEYS}
    known |= {(parser.default_section, key) for _, key in known}
    given = [(parser.default_section, key) for key in parser.defaults()] + [
        (section, key) for section in parser.sections()
        for key in parser.options(section) if key not in parser.defaults()]
    for section, key in given:
        if (section, key) not in known:
            raise DataError(f"config file {path}: unknown key [{section}] {key}")
    values = {ExperimentSpec: {}, SplitSpec: {}, TransferConfig: {}}
    for section, key, owner, name in _CONFIG_KEYS:
        if not parser.has_option(section, key):
            continue
        kind = typing.get_type_hints(owner)[name]
        try:
            values[owner][name] = _READERS[kind](parser.get(section, key))
        except (configparser.Error, ValueError) as exc:
            raise DataError(f"config file {path}: [{section}] {key}: {exc}") from exc
    return values


def parse_config(path) -> tuple[ExperimentSpec, TransferConfig]:
    """Read an experiment spec plus pipeline config from a key = value file.

    A file that is not UTF-8 key = value text is a DataError naming it; a
    key that no field takes, or a value that does not read as its field's
    type, names its section and key.
    """
    values = _config_values(path)
    spec = ExperimentSpec(split=SplitSpec(**values[SplitSpec]), **values[ExperimentSpec])
    return spec, TransferConfig(**values[TransferConfig])


def parse_transfer_config(path) -> TransferConfig:
    """The TransferConfig of a file parse_config reads, which need not name a pair."""
    return TransferConfig(**_config_values(path)[TransferConfig])
