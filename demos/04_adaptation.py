"""The projection: kernel, adaptive MMD, auto-k Laplacian, projection.

Run from the repository root:  python demos/04_adaptation.py
"""

import numpy as np

from leafbridge import (
    build_kernel,
    build_laplacian,
    build_mmd_matrix,
    build_projection,
    collect_leaves,
    compute_mu,
    dedup,
    extract_distributions,
    match_pivots,
    rotated_pair,
    train_forest,
)
from leafbridge.adaptation import stack_pivots

source, target = rotated_pair(n_source=400, n_target=200, center_spread=2.0,
                              cluster_std=2.0, seed=5)
f_src = train_forest(source, 10, 20, seed=5)
f_tgt = train_forest(target, 10, 20, seed=5)
dd_src, _ = dedup(extract_distributions(source, collect_leaves(f_src)))
dd_tgt, _ = dedup(extract_distributions(target, collect_leaves(f_tgt)))
pivots = match_pivots(dd_src, dd_tgt, 0.1)

# The matched rows' centroids, read from the deduplicated bundles, are stacked
# into a zero-padded [z, ds+dt] matrix: source rows fill the left block,
# target rows the right block.
sp = stack_pivots(pivots, dd_src, dd_tgt)
print(f"stacked {sp.n_pivots} pivots: z={sp.z}, width {sp.rows.shape[1]} "
      f"(= {sp.d_source} source + {sp.d_target} target columns)")

K = build_kernel(sp, "rbf")
print("\nkernel: rbf with median bandwidth, diagonal =", np.unique(np.diag(K)))

# mu balances marginal vs per-class conditional distribution alignment;
# it is estimated from linear separability of the two halves.
mu = compute_mu(sp)
print(f"adaptive factor mu = {mu:.3f} "
      "(0: marginal alignment dominates, 1: class-conditional dominates)")

M = build_mmd_matrix(sp, mu)
print("MMD matrix: exactly symmetric", np.array_equal(M, M.T))

# The affinity graph sizes each neighborhood automatically: at least 4
# neighbors, extended while they share the query row's label. An edge joins
# two rows when either is the other's neighbor and weighs their cosine
# similarity, floored at 0.
B, Lap = build_laplacian(sp)
edges = (B > 0).sum(axis=1)
print(f"weighted edges per row: {edges.min()} to {edges.max()}")

# A fit writes no spectrum; each matrix is built exactly symmetric, so
# eigvalsh, which reads one triangle, gives its eigenvalues in ascending order.
print("\nleast and greatest eigenvalue:")
for name, mat in (("kernel K", K), ("MMD matrix M", M), ("Laplacian", Lap)):
    eig = np.linalg.eigvalsh(mat)
    print(f"  {name:<13} [{eig[0]: .3e}, {eig[-1]: .3e}]")

# The projection combines the MMD and manifold terms with the kernel. With
# n = sp.n_pivots, Ws the source block rows[:n, :ds] and Wt the target block
# rows[n:, ds:]: P = Ws^T (mmd * M + manifold * Lap)[:n] K[:, n:] Wt.
projection = build_projection(sp, K, M, Lap, mmd=5.0, manifold=0.01)
print(f"\nprojection matrix: {projection.matrix.shape}, "
      f"|P|_F = {np.linalg.norm(projection.matrix):.3f}")
