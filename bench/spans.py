"""Span tracing of leafbridge from the outside, for the benchmark's traced run.

`Tracer.install()` replaces public functions of the library, as their callers
see them (module attributes such as `leafbridge.transfer.train_forest`), with
wrappers that record a span and the work counts of the call;
`Tracer.uninstall()` puts the originals back. Spans (name, start, end,
parent span, run id) and counts stay in memory until `write()` at the end of
the run. A layer's self time is its span's duration minus its child spans'.
Wrapped names that a library version lacks are skipped and listed in
`Tracer.missing`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

import leafbridge

#: Span names opened by train_forest inside run_transfer, by call order.
_TRANSFER_FORESTS = ("forest.train_src", "forest.train_tgt", "forest.train_final")
_DOMAIN = {"source": "src", "target": "tgt"}


def report_cells(report: dict) -> tuple[int, int]:
    """(cells, failed cells) of an experiment report dict.

    A cell is one (pair, inject ratio, repeat, method) run; a failed pair
    fails all of its cells.
    """
    spec = report["spec"]
    per_pair = max(1, len(spec["inject_ratios"])) * spec["repeats"] * len(spec["methods"])
    cells = failed = 0
    for pair in report["pairs"]:
        cells += per_pair
        if "error" in pair:
            failed += per_pair
            continue
        for block in pair.get("by_ratio", [pair]):
            for cell in block["methods"].values():
                if "error" in cell:
                    failed += spec["repeats"]
                else:
                    failed += cell.get("failed_runs", 0)
    return cells, failed


def _shared_rows(bundle, other) -> int:
    shared = [i for i, name in enumerate(bundle.class_names) if name in other.class_names]
    return int((np.asarray(bundle.V)[:, shared].sum(axis=1) > 0).sum())


class Tracer:
    """Span and count recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        # the package-level name is never wrapped, so counting leaves is untraced
        self._collect_leaves = getattr(leafbridge, "collect_leaves", None)

    # recording

    def count(self, name: str, value: int = 1):
        self.counts[self.run_id][name] += value

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "children": 0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _enclosing(self, name: str):
        for span in reversed(self._stack):
            if span["name"] == name:
                return span
        return None

    def _wrap(self, fn, name, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(f"{layer}.errors")
                raise
            finally:
                tracer._close(span)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    # the wrapped library surface

    def _train_name(self, args):
        outer = self._enclosing("transfer.run_transfer")
        if outer is None:
            return "forest.train"
        k = outer["children"]
        outer["children"] += 1
        return _TRANSFER_FORESTS[min(k, len(_TRANSFER_FORESTS) - 1)]

    def _count_forest(self, args, forest):
        if self._collect_leaves is None:
            return
        leaves = len(self._collect_leaves(forest))
        self.count("forest.leaves", leaves)
        self.count("forest.nodes", 2 * leaves - forest.n_trees)

    def _count_match(self, args, pivots):
        src, tgt = args[0], args[1]
        self.count("pivot.jsd_pairs", _shared_rows(src, tgt) * _shared_rows(tgt, src))
        self.count("pivot.pivots", pivots.n_pivots)

    def _count_project(self, args, projected):
        kept = 0 if projected is None else projected.n
        self.count("transfer.dropped_labels", args[0].n - kept)

    def _surface(self):
        """(module, attribute, span name, layer, counter) for every wrapper."""
        def counts(metric, value):
            return lambda tracer, args, result: tracer.count(metric, value(args, result))

        forest_train = (self._train_name, "forest",
                        lambda tracer, args, result: tracer._count_forest(args, result))
        predict = ("forest.predict", "forest",
                   counts("forest.predict_records", lambda a, r: len(r)))
        encode = ("dataset.encode", "dataset", None)
        return [
            ("leafbridge.transfer", "train_forest", *forest_train),
            ("leafbridge.experiment", "train_forest", *forest_train),
            ("leafbridge.transfer", "collect_leaves", "forest.collect", "forest", None),
            ("leafbridge.transfer", "predict_many", *predict),
            ("leafbridge.experiment", "predict_many", *predict),
            ("leafbridge.pivot", "extract_distributions", "pivot.extract", "pivot",
             lambda tracer, args, result: tracer.count(
                 f"pivot.leaves_{_DOMAIN[args[0].domain_tag]}", len(args[1]))),
            ("leafbridge.pivot", "dedup", "pivot.dedup", "pivot",
             lambda tracer, args, result: tracer.count(
                 f"pivot.rows_{_DOMAIN[args[0].domain_tag]}", result[0].n_rows)),
            ("leafbridge.pivot", "match_pivots", "pivot.match", "pivot",
             lambda tracer, args, result: tracer._count_match(args, result)),
            ("leafbridge.adaptation", "adapt", "adaptation.adapt", "adaptation",
             counts("adaptation.z", lambda a, r: a[0].z)),
            ("leafbridge.adaptation", "build_kernel", "adaptation.kernel", "adaptation", None),
            ("leafbridge.adaptation", "compute_mu", "adaptation.mu", "adaptation", None),
            ("leafbridge.adaptation", "build_mmd_matrix", "adaptation.mmd", "adaptation", None),
            ("leafbridge.adaptation", "build_laplacian", "adaptation.laplacian",
             "adaptation", None),
            ("leafbridge.adaptation", "compute_alpha", "adaptation.alpha", "adaptation", None),
            ("leafbridge.adaptation", "build_projection", "adaptation.projection",
             "adaptation", None),
            ("leafbridge.adaptation.AdaptationState", "diagnostics",
             "adaptation.diagnostics", "adaptation", None),
            ("leafbridge.transfer", "run_transfer", "transfer.run_transfer", "transfer",
             counts("transfer.fallbacks", lambda a, r: int(r.fallback))),
            ("leafbridge.experiment", "run_transfer", "transfer.run_transfer", "transfer",
             counts("transfer.fallbacks", lambda a, r: int(r.fallback))),
            ("leafbridge.transfer", "select_transferable", "transfer.select", "transfer",
             counts("transfer.selected", lambda a, r: 0 if r is None else r.n)),
            ("leafbridge.transfer", "project_records", "transfer.project", "transfer",
             lambda tracer, args, result: tracer._count_project(args, result)),
            ("leafbridge.transfer", "merge_datasets", "transfer.merge", "transfer",
             counts("transfer.merged", lambda a, r: r.n)),
            ("leafbridge.transfer", "one_hot_encode", *encode),
            ("leafbridge.transfer", "encode_records", *encode),
            ("leafbridge.experiment", "one_hot_encode", *encode),
            ("leafbridge.experiment", "encode_records", *encode),
            ("leafbridge.experiment", "load_csv", "dataset.load_csv", "dataset",
             counts("dataset.cells_parsed", lambda a, r: r.n * (r.d + 1))),
            ("leafbridge.experiment", "inject_missing", "dataset.inject_missing",
             "dataset", None),
            ("leafbridge.experiment", "repair_missing", "dataset.repair_missing",
             "dataset", None),
            ("leafbridge.experiment", "split_target", "dataset.split", "dataset", None),
            ("leafbridge.experiment", "evaluate", "metrics.evaluate", "metrics", None),
            ("leafbridge.experiment", "run_experiment", "experiment.run", "experiment",
             lambda tracer, args, result: tracer._count_report(result)),
        ]

    def _count_report(self, report):
        cells, failed = report_cells(report.to_dict())
        self.count("experiment.cells", cells)
        self.count("experiment.failed_cells", failed)

    def install(self):
        """Wrap the library surface; `uninstall()` undoes it."""
        self.missing = []
        for module, attr, name, layer, counter in self._surface():
            owner = _resolve(module)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, layer, counter))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # results

    def self_times(self, run_id: int) -> dict[str, float]:
        """Self time per span name over the spans of one run id."""
        spans = [s for s in self.spans if s["run_id"] == run_id and s["end"] is not None]
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in spans:
            out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)

    def write(self, path, meta: dict):
        doc = {
            "meta": meta,
            "missing_wrappers": self.missing,
            "spans": [
                {k: s[k] for k in ("id", "parent", "name", "run_id", "start", "end")}
                for s in self.spans
            ],
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _resolve(dotted: str):
    """Module or class named by a dotted path, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None
