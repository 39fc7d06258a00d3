"""Evaluation metrics against hand-computed references."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import MLError
from repro.ml import metrics


Y_TRUE = np.array([1, 1, 0, 0, 1, 0])
Y_PRED = np.array([1, 0, 0, 1, 1, 0])


class TestClassification:
    def test_accuracy(self):
        assert metrics.accuracy(Y_TRUE, Y_PRED) == pytest.approx(4 / 6)

    def test_confusion_matrix(self):
        cm = metrics.confusion_matrix(Y_TRUE, Y_PRED)
        assert cm == {"tp": 2, "fp": 1, "tn": 2, "fn": 1}

    def test_precision_recall_f1(self):
        assert metrics.precision(Y_TRUE, Y_PRED) == pytest.approx(2 / 3)
        assert metrics.recall(Y_TRUE, Y_PRED) == pytest.approx(2 / 3)
        assert metrics.f1_score(Y_TRUE, Y_PRED) == pytest.approx(2 / 3)

    def test_degenerate_no_positive_predictions(self):
        y_true = np.array([1, 0])
        y_pred = np.array([0, 0])
        assert metrics.precision(y_true, y_pred) == 0.0
        assert metrics.recall(y_true, y_pred) == 0.0
        assert metrics.f1_score(y_true, y_pred) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(MLError):
            metrics.accuracy([1], [1, 0])

    def test_empty(self):
        with pytest.raises(MLError):
            metrics.accuracy([], [])


class TestAuc:
    def test_perfect_ranking(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert metrics.auc(y, scores) == 1.0

    def test_inverted_ranking(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert metrics.auc(y, scores) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 5000)
        scores = rng.random(5000)
        assert metrics.auc(y, scores) == pytest.approx(0.5, abs=0.03)

    def test_ties_averaged(self):
        y = np.array([0, 1])
        scores = np.array([0.5, 0.5])
        assert metrics.auc(y, scores) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MLError):
            metrics.auc(np.array([1, 1]), np.array([0.1, 0.2]))

    @given(
        labels=st.lists(st.sampled_from([0, 1]), min_size=4, max_size=40).filter(
            lambda ls: 0 in ls and 1 in ls
        ),
        seed=st.integers(0, 100),
    )
    def test_matches_pairwise_definition(self, labels, seed):
        """AUC equals P(score(pos) > score(neg)) + 0.5 P(tie), by brute force."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 5, len(labels)).astype(float)  # force ties
        y = np.array(labels)
        positives = scores[y == 1]
        negatives = scores[y == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in positives for n in negatives)
        expected = wins / (len(positives) * len(negatives))
        assert metrics.auc(y, scores) == pytest.approx(expected)


class TestRegression:
    def test_rmse(self):
        assert metrics.rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert metrics.rmse([0, 0], [3, 4]) == pytest.approx((12.5) ** 0.5)
