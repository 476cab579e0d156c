"""End-to-end transfer: small labeled target, rotated-feature source, then a
pair whose feature counts and class sets differ.

Run from the repository root:  python demos/05_transfer.py
"""

import numpy as np

from leafbridge import (
    SplitSpec,
    TransferConfig,
    evaluate,
    fit_forest,
    heterogeneous_pair,
    one_hot_encode,
    predict_many,
    rotated_pair,
    run_transfer,
    split_target,
)

# One blob task, two feature spaces: the source records are an invertible
# rotation of the target geometry. The target offers only 30 labeled rows.
source, target_full = rotated_pair(n_source=600, n_target=600, n_classes=3,
                                   n_features=10, center_spread=2.0,
                                   cluster_std=2.0, seed=0)
target, test = split_target(target_full, SplitSpec(0.05, seed=0))
print(f"source: {source.n} records | target: {target.n} labeled | test: {test.n}")

cfg = TransferConfig(seed=0)
model = run_transfer(source, target, cfg)
d = model.diagnostics
print(f"\npipeline: {d['n_pivots']} pivots matched, mu = {d['mu']:.3f}, "
      f"{d['n_selected']} source records transferred, fallback = {model.fallback}")

transfer_metrics = evaluate(model, test)

# Baseline: a forest trained on the 30 target records alone. With the
# protocol's minimum leaf size it cannot even split, so it is near chance.
baseline = fit_forest(one_hot_encode(target), cfg)
base_acc = float(np.mean(predict_many(baseline, test.records) == test.labels))

print(f"\ntest accuracy with transfer: {transfer_metrics.accuracy:.3f} "
      f"(macro F1 {transfer_metrics.macro_f1:.3f})")
print(f"test accuracy target-only:   {base_acc:.3f}")
print(f"gain from transferring:      {transfer_metrics.accuracy - base_acc:+.3f}")

# Models serialize to a single JSON document (raw schema + forest +
# diagnostics + config). The projection only built the final forest's
# training set, so the document does not hold it.
import tempfile
from pathlib import Path
from leafbridge import TransferModel

path = Path(tempfile.mkdtemp(prefix="leafbridge_demo_")) / "model.json"
model.save(path)
restored = TransferModel.load(path)
same = np.array_equal(model.predict_many(test), restored.predict_many(test))
print(f"\nmodel saved to {path} and reloaded, predictions identical: {same}")

# The paper's heterogeneous setting: the target observes 6 of the source's 10
# features and 3 of its 4 classes. Source records of the class the target
# lacks are dropped before projection, and the projection maps the source's
# 10 encoded columns onto the target's 6 (a source-width x target-width matrix).
source, target_full = heterogeneous_pair(seed=0)
target, test = split_target(target_full, SplitSpec(0.05, seed=0))
model = run_transfer(source, target, cfg)
d = model.diagnostics
print(f"\nheterogeneous pair: source {source.d} features, classes {source.class_names}; "
      f"target {target.d} features, classes {target.class_names}")
print(f"{d['n_pivots']} pivots matched, {d['n_dropped_labels']} source records dropped, "
      f"projection {one_hot_encode(source).d} x {one_hot_encode(target).d}, "
      f"test accuracy {evaluate(model, test).accuracy:.3f}")
