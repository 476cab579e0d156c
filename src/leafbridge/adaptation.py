"""Cross-domain projection from matched pivot centroids.

The centroid rows of the matched source and target rows, read from the two
deduplicated bundles the pivots were matched on, are stacked into a
[z, ds+dt] matrix (z = 2 * n_pivots): source rows occupy the first ds
columns, target rows the last dt, and the remainder is zero-padded. On that
stack we build a kernel K, a joint MMD matrix M mixing marginal and
per-class conditional terms through an adaptive factor mu, and a normalized
graph Laplacian over a nearest-neighbor affinity graph whose k is sized
per row (see `build_laplacian`). The coefficient matrix alpha combines them
with the ridge/MMD/manifold weights, and the projection P = Gs^T alpha Gt
maps encoded source records into the target feature space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import class_indices, name_index
from .errors import BandwidthError, DataError, NumericalError, SolveError
from .pivot import DistributionBundle, PivotSet

MIN_NEIGHBORS = 4


@dataclass(frozen=True, eq=False)
class StackedPivots:
    """Source-then-target pivot centroids, zero-padded to a common width."""

    rows: np.ndarray
    labels: np.ndarray
    d_source: int
    d_target: int
    shared_classes: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 2 or rows.shape[0] % 2 != 0:
            raise DataError("stacked pivots need an even row count z = 2 * n_pivots >= 2")
        if rows.shape[1] != self.d_source + self.d_target:
            raise DataError("stacked pivot width must be d_source + d_target")
        if not np.isfinite(rows).all():
            raise DataError("stacked pivot rows must be finite")
        if np.shape(self.labels) != (rows.shape[0],):
            raise DataError("one label per stacked row required")
        labels = class_indices(self.labels, len(self.shared_classes), "stacked labels")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def z(self) -> int:
        return self.rows.shape[0]

    @property
    def n_pivots(self) -> int:
        return self.z // 2

    @property
    def g_source(self) -> np.ndarray:
        """[z, ds] transform: pivot source centroids on top, zeros below."""
        return self.rows[:, : self.d_source]

    @property
    def g_target(self) -> np.ndarray:
        """[z, dt] transform: zeros on top, pivot target centroids below."""
        return self.rows[:, self.d_source :]


def stack_pivots(pivots: PivotSet, src: DistributionBundle,
                 tgt: DistributionBundle) -> StackedPivots:
    """Embed a PivotSet into the stacked padded representation.

    src and tgt are the deduplicated bundles the pivots were matched on; the
    centroid rows come from their W. Each row's label is the argmax of its
    label distribution restricted to the shared class set, the first
    maximum on ties.
    """
    if pivots.n_pivots < 1:
        raise DataError("cannot stack an empty pivot set")
    n = pivots.n_pivots
    rows_s, rows_t, _ = map(list, zip(*pivots.pairs))
    d_s, d_t = src.W.shape[1], tgt.W.shape[1]
    rows = np.zeros((2 * n, d_s + d_t))
    rows[:n, :d_s] = src.W[rows_s]
    rows[n:, d_s:] = tgt.W[rows_t]
    labels = []
    for bundle, idx in ((src, rows_s), (tgt, rows_t)):
        shared = name_index(pivots.shared_classes, bundle.class_names)
        if (shared < 0).any():
            raise DataError(f"the {bundle.domain_tag} bundle lacks a shared class of the pivots")
        labels.append(np.argmax(bundle.V[idx][:, shared], axis=1))
    return StackedPivots(rows, np.concatenate(labels), d_s, d_t, pivots.shared_classes)


def build_kernel(pivots: StackedPivots, kind: str) -> np.ndarray:
    """Kernel matrix on the stacked rows: plain inner products or a median-
    bandwidth Gaussian.

    The rbf kernel's Euclidean distances equal scipy's pdist bit for bit:
    each pair's squared differences are summed column by column in
    ascending column order, as pdist does, then square-rooted; the
    bandwidth is the median of the non-zero distances over the upper
    triangle; the exponent uses the square of the square root, as
    squareform(pdist) ** 2 does. Working memory is a few z x z matrices.
    """
    rows = pivots.rows
    if kind == "linear":
        return rows @ rows.T
    if kind == "rbf":
        z = rows.shape[0]
        sq_sum = np.zeros((z, z))
        for column in rows.T:
            diff = column[:, None] - column[None, :]
            sq_sum += diff * diff
        dist = np.sqrt(sq_sum)
        condensed = dist[np.triu_indices(z, 1)]
        nonzero = condensed[condensed > 0]
        if nonzero.size == 0:
            raise BandwidthError("all stacked rows identical, rbf bandwidth undefined")
        h = float(np.median(nonzero))
        return np.exp(-dist ** 2 / (2.0 * h * h))
    raise DataError(f"unknown kernel kind {kind!r}")


def proxy_a_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Classifier-separability proxy distance 2 * (1 - 2 * err).

    err is the training error of a least-squares linear separator (with
    intercept) labeling the first sample -1 and the second +1, measured on
    its own training rows.
    """
    X = np.vstack([a, b])
    y = np.concatenate([-np.ones(a.shape[0]), np.ones(b.shape[0])])
    X1 = np.hstack([X, np.ones((X.shape[0], 1))])
    w, *_ = np.linalg.lstsq(X1, y, rcond=None)
    pred = np.where(X1 @ w >= 0, 1.0, -1.0)
    err = float(np.mean(pred != y))
    return 2.0 * (1.0 - 2.0 * err)


def mu_from_distances(marginal: float, conditional_sum: float) -> float:
    """Adaptive factor 1 - d_M / (d_M + sum_c d_c), clamped to [0, 1]."""
    denom = marginal + conditional_sum
    if abs(denom) < 1e-12:
        return 0.5
    return float(min(max(1.0 - marginal / denom, 0.0), 1.0))


def compute_mu(pivots: StackedPivots) -> float:
    """Estimate how much weight the conditional MMD terms should carry.

    The marginal proxy distance separates the source half from the target
    half; each per-class distance does the same restricted to that class's
    rows (classes missing from either half contribute 0).
    """
    n = pivots.n_pivots
    src, tgt = pivots.rows[:n], pivots.rows[n:]
    d_marginal = proxy_a_distance(src, tgt)
    labels_s, labels_t = pivots.labels[:n], pivots.labels[n:]
    d_conditional = 0.0
    for c in range(len(pivots.shared_classes)):
        mask_s = labels_s == c
        mask_t = labels_t == c
        if not mask_s.any() or not mask_t.any():
            continue
        d_conditional += proxy_a_distance(src[mask_s], tgt[mask_t])
    return mu_from_distances(d_marginal, d_conditional)


def build_mmd_matrix(pivots: StackedPivots, mu: float) -> np.ndarray:
    """Joint MMD matrix M = (1 - mu) * M0 + mu * sum_c Mc.

    M0 has 1/n_p^2 for same-domain entries and -1/n_p^2 otherwise. Mc has
    1/n_c^2 within the source class-c block, 1/m_c^2 within the target one,
    and a cross entry of -1/(n_c * m_c), which keeps Mc positive
    semidefinite. Each entry of sum_c Mc belongs to at most one class, so
    it is sign_i * sign_j / (count_i * count_j) for two rows of one class,
    count being a row's class count in its own domain, and 0 otherwise.
    """
    z = pivots.z
    n_p = pivots.n_pivots
    sign = np.ones(z)
    sign[n_p:] = -1.0
    signs = np.outer(sign, sign)
    m0 = signs / (n_p * n_p)
    labels = pivots.labels
    domain_class = 2 * labels + (sign < 0)
    count = np.bincount(domain_class)[domain_class]
    mc_sum = np.where(labels[:, None] == labels, signs / np.outer(count, count), 0.0)
    return (1.0 - mu) * m0 + mu * mc_sum


def _cosine_matrix(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = rows / safe[:, None]
    # numpy evaluates a @ a.T as a symmetric product (one triangle, mirrored),
    # so cos is exactly symmetric, which build_laplacian's B relies on
    cos = unit @ unit.T
    cos[norms == 0, :] = 0.0
    cos[:, norms == 0] = 0.0
    return cos


def laplacian_from_affinity(B: np.ndarray) -> np.ndarray:
    """Normalized Laplacian I - D^(-1/2) B D^(-1/2); zero-degree rows stay
    identity rows."""
    B = np.asarray(B, dtype=np.float64)
    degrees = B.sum(axis=1)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    return np.eye(B.shape[0]) - B * np.outer(inv_sqrt, inv_sqrt)


def build_laplacian(pivots: StackedPivots) -> tuple[np.ndarray, np.ndarray]:
    """Affinity graph over automatically sized neighborhoods and its
    normalized Laplacian.

    Each row ranks the other rows by ascending cosine distance, ties to the
    lower index (one stable argsort, the row itself set last). Its neighbors
    are the first MIN_NEIGHBORS ranked rows, every other row when there are
    fewer, then the ranked rows that follow while they share its label.
    B[i, j] is the cosine similarity (negatives floored at 0) whenever i is
    a neighbor of j or j of i; the diagonal is zero.
    """
    cos = _cosine_matrix(pivots.rows)
    dist = 1.0 - cos
    np.fill_diagonal(dist, np.inf)
    ranked = np.argsort(dist, axis=1, kind="stable")[:, :-1]
    del dist  # the stage holds a few z x z arrays at once, not more
    labels = pivots.labels
    kept = labels[ranked] == labels[:, None]
    kept[:, :MIN_NEIGHBORS] = True
    kept = np.logical_and.accumulate(kept, axis=1)
    width = kept.sum(axis=1).max()  # the longest neighbor list
    adjacent = np.zeros(cos.shape, dtype=bool)
    np.put_along_axis(adjacent, ranked[:, :width], kept[:, :width], axis=1)
    B = np.where(adjacent | adjacent.T, np.maximum(cos, 0.0), 0.0)
    return B, laplacian_from_affinity(B)


def compute_alpha(K: np.ndarray, M: np.ndarray, Lap: np.ndarray, ridge: float, mmd: float,
                  manifold: float, mode: str) -> tuple[np.ndarray, float | None]:
    """Coefficient matrix from the combined system, and its solve residual.

    A = ridge * I + (mmd * M + manifold * Lap) @ K. mode="literal" returns
    (A, None); mode="inverse" returns A^(-1), via an LU solve with partial
    pivoting, and the residual ||A @ alpha - I||_F, which must be at most
    1e-6 * z. An exactly zero pivot (a singular A) raises SolveError.
    """
    K = np.asarray(K, dtype=np.float64)
    z = K.shape[0]
    for mat, name in ((K, "K"), (M, "M"), (Lap, "Lap")):
        if np.asarray(mat).shape != (z, z):
            raise DataError(f"{name} must be {z}x{z}")
    for coeff, name in ((ridge, "ridge"), (mmd, "mmd"), (manifold, "manifold")):
        if coeff < 0:
            raise DataError(f"{name} coefficient must be >= 0")
    A = ridge * np.eye(z) + (mmd * M + manifold * Lap) @ K
    if mode == "literal":
        return A, None
    if mode != "inverse":
        raise DataError(f"unknown alpha mode {mode!r}")
    # scipy is loaded for this mode only, so default runs need numpy alone
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    try:
        with warnings.catch_warnings():
            # lu_factor warns on an exactly zero pivot: the system is singular
            warnings.simplefilter("error", LinAlgWarning)
            lu, piv = lu_factor(A)
        alpha = lu_solve((lu, piv), np.eye(z))
    except (np.linalg.LinAlgError, LinAlgWarning) as exc:
        raise SolveError(f"singular system, condition estimate {np.linalg.cond(A):.3e}") from exc
    residual = float(np.linalg.norm(A @ alpha - np.eye(z)))
    if not np.isfinite(residual) or residual > 1e-6 * z:
        raise SolveError(
            f"solve residual {residual:.3e} exceeds {1e-6 * z:.3e}, "
            f"condition estimate {np.linalg.cond(A):.3e}"
        )
    return alpha, residual


@dataclass(frozen=True)
class ProjectionMatrix:
    """Linear map [d_source, d_target] from encoded source rows to the
    encoded target feature space."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DataError("projection must be a matrix")
        if not np.isfinite(matrix).all():
            raise NumericalError("projection matrix has non-finite entries")
        object.__setattr__(self, "matrix", matrix)

    @property
    def d_source(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_target(self) -> int:
        return self.matrix.shape[1]


def build_projection(pivots: StackedPivots, alpha: np.ndarray) -> ProjectionMatrix:
    """P = Gs^T @ alpha @ Gt over the padded transforms."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (pivots.z, pivots.z):
        raise DataError(f"alpha must be {pivots.z}x{pivots.z}, got {alpha.shape}")
    return ProjectionMatrix(pivots.g_source.T @ alpha @ pivots.g_target)


def adapt(pivots: StackedPivots, ridge: float, mmd: float, manifold: float,
          kernel_kind: str, alpha_mode: str) -> tuple[float, float | None, ProjectionMatrix]:
    """Run the full adaptation stage on stacked pivots: (mu, the residual of
    the alpha solve or None in literal mode, the projection). The settings
    come from a TransferConfig, which holds their defaults."""
    K = build_kernel(pivots, kernel_kind)
    mu = compute_mu(pivots)
    M = build_mmd_matrix(pivots, mu)
    _, Lap = build_laplacian(pivots)
    alpha, residual = compute_alpha(K, M, Lap, ridge, mmd, manifold, alpha_mode)
    return mu, residual, build_projection(pivots, alpha)
