import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from leafbridge.errors import DataError, MissingValueError
from leafbridge.forest import train_forest
from leafbridge.metrics import (
    NEMENYI_Q_05,
    evaluate,
    mean_ranks,
    metrics_from_labels,
    nemenyi_cd,
    sign_test,
)
from leafbridge.transfer import TransferConfig, TransferModel
from conftest import numeric_dataset


class _FixedModel:
    def __init__(self, predictions):
        self.predictions = np.asarray(predictions)

    def predict_many(self, ds):
        return self.predictions


class TestEvaluate:
    def test_perfect_classifier(self):
        ds = numeric_dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        metrics = evaluate(_FixedModel([0, 1, 0, 1]), ds)
        assert metrics.accuracy == 1.0
        assert metrics.macro_f1 == 1.0

    def test_binary_hand_values(self):
        # TP=8 FP=2 FN=2 TN=8 for class 1
        y_true = [1] * 10 + [0] * 10
        y_pred = [1] * 8 + [0] * 2 + [1] * 2 + [0] * 8
        metrics = metrics_from_labels(np.array(y_true), np.array(y_pred), ("n", "p"))
        assert metrics.precision[1] == pytest.approx(0.8)
        assert metrics.recall[1] == pytest.approx(0.8)
        assert metrics.f1[1] == pytest.approx(0.8)
        assert metrics.accuracy == pytest.approx(0.8)

    def test_absent_class_zero_convention(self):
        metrics = metrics_from_labels(np.array([0, 0]), np.array([0, 0]), ("a", "b", "c"))
        assert metrics.precision[2] == 0.0
        assert metrics.recall[2] == 0.0
        assert metrics.f1[2] == 0.0

    def test_unknown_prediction_counts_wrong(self):
        ds = numeric_dataset(np.zeros((2, 1)), [0, 1])
        metrics = evaluate(_FixedModel([-1, 1]), ds)
        assert metrics.accuracy == 0.5


def _forest_models():
    """A fallback TransferModel and a baseline one over one small forest."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 3))
    ds = numeric_dataset(X, (X[:, 0] > 0).astype(int))
    forest = train_forest(ds, n_trees=3, min_leaf_size=10, seed=6)
    model = TransferModel(forest=forest, fallback=True, diagnostics={},
                          raw_schema=ds.schema, config=TransferConfig())
    return [model, replace(model, fallback=False)]


class TestEvaluateScan:
    """evaluate leaves the missing-cell scan to the model's predict_many,
    which scans each batch once."""

    def test_missing_cell_raises(self):
        records = np.random.default_rng(7).normal(size=(30, 3))
        records[4, 1] = np.nan
        test = numeric_dataset(records, np.arange(30) % 2)
        for model in _forest_models():
            with pytest.raises(MissingValueError):
                evaluate(model, test)

    @pytest.mark.parametrize("pick", [0, 1], ids=["transfer model", "forest predictor"])
    @pytest.mark.parametrize("via_evaluate", [False, True], ids=["predict_many", "evaluate"])
    def test_batch_scanned_once(self, monkeypatch, pick, via_evaluate):
        model = _forest_models()[pick]
        test = numeric_dataset(np.random.default_rng(7).normal(size=(30, 3)), np.arange(30) % 2)
        scanned = []
        isnan = np.isnan

        def recording_isnan(x, *args, **kwargs):
            scanned.append(np.shape(x))
            return isnan(x, *args, **kwargs)

        monkeypatch.setattr(np, "isnan", recording_isnan)
        if via_evaluate:
            evaluate(model, test)
        else:
            model.predict_many(test)
        assert scanned == [test.records.shape]


class TestSignTest:
    def test_hand_value(self):
        assert sign_test(26, 2) == pytest.approx(4.35, abs=0.01)

    def test_continuity_correction_cancels(self):
        assert sign_test(1, 0) == 0.0

    def test_no_superiority_when_balanced(self):
        for n in (2, 6, 10):
            assert sign_test(n // 2, n // 2) <= 0.0

    def test_empty_comparison(self):
        with pytest.raises(DataError):
            sign_test(0, 0)

    def test_matches_stated_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = int(rng.integers(0, 30))
            l = int(rng.integers(0, 30))
            if w + l == 0:
                continue
            n = w + l
            assert sign_test(w, l) == pytest.approx((w - n / 2 - 0.5) / (math.sqrt(n) / 2))


def masked_mean_ranks(accuracies):
    """`mean_ranks` as it found tie groups before np.unique: first and last
    masks over each sorted row, spread along the row by accumulates."""
    values = -np.asarray(accuracies, dtype=np.float64)
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


class TestNemenyi:
    def test_hand_value(self):
        # q_0.05 = 1.960 for 2 methods: 1.960 * sqrt(2 * 3 / 36)
        assert nemenyi_cd(2, 6) == pytest.approx(0.8002, abs=1e-4)

    def test_vanishes_with_many_datasets(self):
        assert nemenyi_cd(3, 10**9) < 1e-3

    def test_linear_in_q(self):
        for k, q in NEMENYI_Q_05.items():
            assert nemenyi_cd(k, 10) == pytest.approx(q * math.sqrt(k * (k + 1) / 60.0))

    def test_beyond_the_table_rejected(self):
        assert max(NEMENYI_Q_05) == 20
        with pytest.raises(DataError, match="stops at 20 methods, not 21"):
            nemenyi_cd(21, 10)

    def test_table_lookup(self):
        assert nemenyi_cd(2, 10) == pytest.approx(1.96 * math.sqrt(6 / 60.0))

    def test_mean_ranks_with_ties(self):
        acc = np.array([[0.9, 0.8, 0.8], [0.7, 0.9, 0.8]])
        ranks = mean_ranks(acc)
        np.testing.assert_allclose(ranks, [(1 + 3) / 2, (2.5 + 1) / 2, (2.5 + 2) / 2])

    def test_mean_ranks_equal_rankdata(self):
        """Reference: scipy's average ranks, which mean_ranks replaced."""
        rng = np.random.default_rng(11)
        levels = np.array([0.0, -0.0, 0.25, 0.5, 0.9, 1.0, np.inf, -np.inf])
        for case in range(300):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            if case % 2:
                acc = rng.choice(levels, size=(n, k))
            else:
                acc = rng.integers(0, 5, size=(n, k)) / 4.0
            if case % 5 == 0:
                acc[rng.integers(n), rng.integers(k)] = np.nan
            ranks = np.vstack([rankdata(-row, method="average") for row in acc])
            assert mean_ranks(acc).tobytes() == ranks.mean(axis=0).tobytes(), acc
            for row, want in zip(acc, ranks):
                assert mean_ranks(row[None, :]).tobytes() == want.tobytes(), row

    @settings(max_examples=300)
    @given(st.integers(1, 6).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, -np.inf, np.nan]),
                 min_size=k, max_size=k), min_size=1, max_size=6)))
    def test_mean_ranks_equal_rankdata_on_drawn_ties(self, rows):
        acc = np.array(rows)
        ranks = np.vstack([rankdata(-row, method="average") for row in acc])
        assert mean_ranks(acc).tobytes() == ranks.mean(axis=0).tobytes(), acc
        assert mean_ranks(acc).tobytes() == masked_mean_ranks(acc).tobytes(), acc

    def test_mean_ranks_special_values(self):
        np.testing.assert_array_equal(mean_ranks([[0.0, -0.0, 1.0]]), [2.5, 2.5, 1.0])
        np.testing.assert_array_equal(mean_ranks([[np.inf, 0.5, np.inf, -np.inf]]),
                                      [1.5, 3.0, 1.5, 4.0])
        ranks = mean_ranks([[0.9, np.nan, 0.1], [0.9, 0.5, 0.1]])
        assert np.isnan(ranks).all()

    def test_input_validation(self):
        with pytest.raises(DataError):
            nemenyi_cd(1, 5)
