"""Leaf label distributions, centroids, and cross-domain pivot matching.

Run from the repository root:  python demos/03_pivots.py
"""

import json

import numpy as np

from leafbridge import (
    DistributionBundle,
    collect_leaves,
    dedup,
    extract_distributions,
    match_pivots,
    rotated_pair,
    train_forest,
)

# The Jensen-Shannon divergence (base-2 logs, so values live in [0, 1])
# measures how close two leaf label distributions are. match_pivots pairs
# rows one-to-one below a threshold: on two toy bundles of label
# distributions (no attribute columns), (0.5, 0.5) matches (0.25, 0.75) at
# 0.048795, and the pure row (1.0, 0.0) has no partner within 0.1.
def toy(V, tag):
    return DistributionBundle(np.array(V), np.zeros((len(V), 0)), (), ("a", "b"), tag)


toy_pivots = match_pivots(toy([[0.5, 0.5], [1.0, 0.0]], "source"),
                          toy([[0.25, 0.75], [0.0, 1.0]], "target"), threshold=0.1)
print("toy pivots (source row, target row, divergence):",
      [(i, k, round(d, 6)) for i, k, d in toy_pivots.pairs])

# Two domains over different feature spaces but a shared label set.
source, target = rotated_pair(n_source=400, n_target=200, center_spread=2.0,
                              cluster_std=2.0, seed=3)
f_src = train_forest(source, n_trees=10, min_leaf_size=20, seed=3)
f_tgt = train_forest(target, n_trees=10, min_leaf_size=20, seed=3)

# Each leaf contributes one label distribution row plus a centroid row: per
# attribute the mean + ln of the sample std. Categorical columns are one-hot
# encoded first, so each 0/1 indicator gets a mean + ln(std) as well.
bundle_src = extract_distributions(source, collect_leaves(f_src))
bundle_tgt = extract_distributions(target, collect_leaves(f_tgt))
print("\nsource leaves:", bundle_src.n_rows, "| target leaves:", bundle_tgt.n_rows)

# Duplicate distributions are merged (their centroids averaged), since e.g.
# every pure class-0 leaf carries the same distribution row.
dd_src, map_src = dedup(bundle_src)
dd_tgt, _ = dedup(bundle_tgt)
print("after dedup:", dd_src.n_rows, "source rows,", dd_tgt.n_rows, "target rows")

# Rows within 10% divergence are matched greedily one-to-one: the pivots.
pivots = match_pivots(dd_src, dd_tgt, threshold=0.1)
print("\nmatched", pivots.n_pivots, "pivots; divergences:",
      np.round(pivots.divergences, 4))
print("pivot summary:")
print(json.dumps(pivots.to_dict(), indent=2)[:400], "...")
