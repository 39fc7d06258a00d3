"""Evaluation metrics for the trained models."""

import numpy as np

from repro.common.errors import MLError


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y_true, y_pred = _validate(y_true, y_pred)
    return float((y_true == y_pred).mean())


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, int]:
    """Binary confusion counts: tp/fp/tn/fn with 1 as the positive class."""
    y_true, y_pred = _validate(y_true, y_pred)
    return {
        "tp": int(((y_true == 1) & (y_pred == 1)).sum()),
        "fp": int(((y_true == 0) & (y_pred == 1)).sum()),
        "tn": int(((y_true == 0) & (y_pred == 0)).sum()),
        "fn": int(((y_true == 1) & (y_pred == 0)).sum()),
    }


def precision(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """tp / (tp + fp); 0.0 when nothing was predicted positive."""
    cm = confusion_matrix(y_true, y_pred)
    denominator = cm["tp"] + cm["fp"]
    return cm["tp"] / denominator if denominator else 0.0


def recall(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """tp / (tp + fn); 0.0 when there are no positives."""
    cm = confusion_matrix(y_true, y_pred)
    denominator = cm["tp"] + cm["fn"]
    return cm["tp"] / denominator if denominator else 0.0


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Harmonic mean of precision and recall."""
    p, r = precision(y_true, y_pred), recall(y_true, y_pred)
    return 2 * p * r / (p + r) if (p + r) else 0.0


def auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney) formula."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    if len(y_true) != len(scores):
        raise MLError("auc: label/score length mismatch")
    positives = scores[y_true == 1]
    negatives = scores[y_true == 0]
    if len(positives) == 0 or len(negatives) == 0:
        raise MLError("auc needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=float)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average rank for ties
        i = j + 1
    rank_sum = ranks[y_true == 1].sum()
    n_pos, n_neg = len(positives), len(negatives)
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root mean squared error."""
    y_true = np.asarray(y_true, float)
    y_pred = np.asarray(y_pred, float)
    if len(y_true) != len(y_pred):
        raise MLError("rmse: length mismatch")
    return float(np.sqrt(((y_true - y_pred) ** 2).mean()))


def _validate(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise MLError(
            f"metric: length mismatch ({len(y_true)} labels, {len(y_pred)} predictions)"
        )
    if len(y_true) == 0:
        raise MLError("metric: empty inputs")
    return y_true, y_pred
