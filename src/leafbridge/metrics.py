"""Classification metrics and the nonparametric comparison statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError, EmptyDatasetError

#: Nemenyi critical values q_alpha at alpha = 0.05 for k = 2..20 methods.
NEMENYI_Q_05 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949, 8: 3.031,
    9: 3.102, 10: 3.164, 11: 3.219, 12: 3.268, 13: 3.313, 14: 3.354,
    15: 3.391, 16: 3.426, 17: 3.458, 18: 3.489, 19: 3.517, 20: 3.544,
}

#: Reference z for the right-tailed sign test at alpha = 0.025.
SIGN_TEST_Z_REF = 1.96


@dataclass(frozen=True)
class EvalMetrics:
    """Accuracy with per-class precision/recall/F1 and their macro mean."""

    accuracy: float
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    macro_f1: float
    class_names: tuple[str, ...]


def metrics_from_labels(y_true: np.ndarray, y_pred: np.ndarray,
                        class_names) -> EvalMetrics:
    """Compute the metric set from true/predicted class indices.

    Zero denominators follow the 0 convention: precision is 0 when the class
    is never predicted, recall 0 when it never occurs, F1 0 when P + R = 0.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise DataError("prediction/label length mismatch")
    n_classes = len(class_names)
    accuracy = float(np.mean(y_true == y_pred))
    precision, recall, f1 = [], [], []
    for c in range(n_classes):
        tp = float(np.sum((y_pred == c) & (y_true == c)))
        fp = float(np.sum((y_pred == c) & (y_true != c)))
        fn = float(np.sum((y_pred != c) & (y_true == c)))
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
    return EvalMetrics(
        accuracy, tuple(precision), tuple(recall), tuple(f1),
        float(np.mean(f1)), tuple(class_names),
    )


def evaluate(model, test: Dataset) -> EvalMetrics:
    """Evaluate any model exposing predict_many(Dataset) on a test dataset.

    predict_many returns indices into test.class_names, where -1 (a class
    the test set does not list) counts as wrong. The model scans the
    records, so a test part with missing cells raises MissingValueError.
    """
    if test.n < 1:
        raise EmptyDatasetError("cannot evaluate on an empty test dataset")
    predictions = np.asarray(model.predict_many(test))
    return metrics_from_labels(test.labels, predictions, test.class_names)


def sign_test(wins: int, losses: int) -> float:
    """Right-tailed sign test z with continuity correction.

    z = (wins - n/2 - 0.5) / (sqrt(n)/2) with n = wins + losses (ties are
    excluded by the caller). Compare against SIGN_TEST_Z_REF = 1.96.
    """
    if wins < 0 or losses < 0:
        raise DataError("wins and losses must be non-negative")
    n = wins + losses
    if n == 0:
        raise DataError("sign test needs at least one non-tied comparison")
    return (wins - n / 2.0 - 0.5) / (math.sqrt(n) / 2.0)


def nemenyi_cd(num_methods: int, num_datasets: int) -> float:
    """Critical difference q_alpha * sqrt(k (k + 1) / (6 N)), with the
    alpha = 0.05 table value of q_alpha for k <= 20 methods."""
    if num_methods < 2 or num_datasets < 2:
        raise DataError("Nemenyi test needs at least 2 methods and 2 datasets")
    if num_methods not in NEMENYI_Q_05:
        raise DataError(f"the Nemenyi table stops at 20 methods, not {num_methods}")
    k = num_methods
    return float(NEMENYI_Q_05[k] * math.sqrt(k * (k + 1) / (6.0 * num_datasets)))


def mean_ranks(accuracies: np.ndarray) -> np.ndarray:
    """Mean rank per method from a [datasets, methods] accuracy matrix.

    Higher accuracy gets a better (smaller) rank; ties share their average
    rank. Each row's ranks equal scipy.stats.rankdata(-row, method="average"):
    -0.0 ties 0.0, equal infinities tie, and a row holding NaN ranks as
    all-NaN.
    """
    accuracies = np.asarray(accuracies, dtype=np.float64)
    if accuracies.ndim != 2:
        raise DataError("accuracies must be a [datasets, methods] matrix")
    values = -accuracies
    k = values.shape[1]
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    first = np.ones(values.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    last = np.ones(values.shape, dtype=bool)
    last[:, :-1] = first[:, 1:]
    position = np.arange(k)
    # a tie group spans sorted positions [start, end); its ranks are start+1..end
    start = np.maximum.accumulate(np.where(first, position, 0), axis=1)
    end = np.minimum.accumulate(np.where(last, position + 1, k)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, (start + end + 1) / 2.0, axis=1)
    ranks[np.isnan(values).any(axis=1)] = np.nan
    return ranks.mean(axis=0)
