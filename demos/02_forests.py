"""Random decision forests: training, leaves, voting, serialization.

Run from the repository root:  python demos/02_forests.py
"""

import numpy as np

from leafbridge import collect_leaves, gaussian_blobs, predict_many, train_forest
from leafbridge.forest import forest_from_json, forest_to_json

ds = gaussian_blobs(n=300, n_classes=3, n_features=4, center_spread=3.0,
                    cluster_std=1.0, seed=0)
print("training on", ds.n, "records,", len(ds.class_names), "classes")

forest = train_forest(ds, n_trees=10, min_leaf_size=15, seed=1)
print("forest has", forest.n_trees, "trees")

# Every leaf keeps the distinct in-bag records routed to it, so the leaf
# label distributions reflect data rather than bootstrap multiplicity. The
# members sit in one table per forest (flat ids plus offsets per leaf),
# which only the pivot stage reads; a saved forest leaves them out.
leaves = collect_leaves(forest)
sizes = leaves.sizes
print(f"{len(leaves)} leaves, member counts from {sizes.min()} to {sizes.max()}")

train_acc = np.mean(predict_many(forest, ds.records) == ds.labels)
print(f"training accuracy: {train_acc:.3f}")

# Prediction is a majority vote; when two classes tie in votes the summed
# per-leaf class distributions decide. A single record is a batch of one.
record = ds.records[:1]
print("one record ->", ds.class_names[predict_many(forest, record)[0]],
      "(true:", ds.class_names[ds.labels[0]] + ")")

# Forests serialize to a versioned JSON document, e.g. for caching.
text = forest_to_json(forest)
restored = forest_from_json(text)
same = np.array_equal(predict_many(forest, ds.records),
                      predict_many(restored, ds.records))
print(f"serialized to {len(text)} bytes of JSON, identical after reload: {same}")
