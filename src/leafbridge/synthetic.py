"""Synthetic dataset generators for demos and end-to-end checks."""

from __future__ import annotations

import numpy as np

from .dataset import NUMERIC, AttributeSchema, Dataset


def _sample_blobs(rng, centers, n, cluster_std):
    n_classes, n_features = centers.shape
    counts = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    records, labels = [], []
    for c, count in enumerate(counts):
        records.append(centers[c] + rng.normal(size=(count, n_features)) * cluster_std)
        labels.append(np.full(count, c))
    order = rng.permutation(n)
    return np.vstack(records)[order], np.concatenate(labels)[order]


def gaussian_blobs(n: int, n_classes: int = 3, n_features: int = 10,
                   center_spread: float = 3.0, cluster_std: float = 1.0,
                   seed: int = 0, domain_tag: str = "target") -> Dataset:
    """Balanced Gaussian class clusters with random centers.

    Class c gets n // n_classes records (the first classes absorb the
    remainder) drawn from N(center_c, cluster_std^2 I); centers are standard
    normals scaled by center_spread.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, n_features)) * center_spread
    X, y = _sample_blobs(rng, centers, n, cluster_std)
    schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(n_features))
    class_names = tuple(f"c{c}" for c in range(n_classes))
    return Dataset(schema, X, y, class_names, domain_tag)


def random_rotation(n_features: int, seed: int = 0) -> np.ndarray:
    """A random orthogonal matrix (QR of a standard normal matrix)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n_features, n_features)))
    return q * np.sign(np.diag(r))


def rotated_pair(n_source: int = 600, n_target: int = 600, n_classes: int = 3,
                 n_features: int = 10, center_spread: float = 3.0,
                 cluster_std: float = 1.0, seed: int = 0) -> tuple[Dataset, Dataset]:
    """A heterogeneous source/target pair sampled from one blob task.

    Both domains draw from the same class clusters, but the source features
    are passed through an invertible random rotation, so the feature spaces
    differ while the label structure is shared.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, n_features)) * center_spread
    X_t, y_t = _sample_blobs(rng, centers, n_target, cluster_std)
    X_s, y_s = _sample_blobs(rng, centers, n_source, cluster_std)
    rotation = random_rotation(n_features, seed=int(rng.integers(2**31)))
    class_names = tuple(f"c{c}" for c in range(n_classes))
    target = Dataset(
        tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(n_features)),
        X_t, y_t, class_names, "target",
    )
    source = Dataset(
        tuple(AttributeSchema(f"s{j}", NUMERIC) for j in range(n_features)),
        X_s @ rotation, y_s, class_names, "source",
    )
    return source, target


def heterogeneous_pair(n_source: int = 1200, n_target: int = 1200,
                       seed: int = 0) -> tuple[Dataset, Dataset]:
    """A source/target pair whose feature counts differ and whose class sets
    overlap in part: the paper's heterogeneous setting.

    The pair is a `rotated_pair` of 4 classes and 10 features (center
    spread 2, cluster spread 2). The target then keeps only its first 6
    (unrotated) features and the records of classes c1-c3, renumbered from
    0, so it holds about three quarters of n_target records; class c0 is
    the source's alone.
    """
    source, full = rotated_pair(n_source, n_target, n_classes=4, n_features=10,
                                center_spread=2.0, cluster_std=2.0, seed=seed)
    keep = full.labels > 0
    target = Dataset(full.schema[:6], full.records[keep, :6], full.labels[keep] - 1,
                     full.class_names[1:], "target")
    return source, target
