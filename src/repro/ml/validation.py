"""Model validation utilities: held-out splits and evaluation.

The §5.1 workflow — "run a number of classification algorithms ... to
compare the quality of different classifiers on a particular dataset" —
needs held-out evaluation to be meaningful; these helpers provide it over
the partitioned :class:`~repro.ml.dataset.Dataset` without breaking its
distribution structure.
"""

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MLError
from repro.ml import metrics
from repro.ml.dataset import Dataset


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.25, seed: int = 42
) -> tuple[Dataset, Dataset]:
    """Bernoulli split per record, preserving the partition structure."""
    if not 0.0 < test_fraction < 1.0:
        raise MLError(f"test_fraction must be in (0,1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_parts: list[list] = []
    test_parts: list[list] = []
    for partition in dataset.partitions():
        mask = rng.random(len(partition)) < test_fraction
        train_parts.append([r for r, m in zip(partition, mask) if not m])
        test_parts.append([r for r, m in zip(partition, mask) if m])
    return Dataset(train_parts), Dataset(test_parts)


@dataclass(frozen=True)
class EvaluationResult:
    """Held-out classification quality of one trained model."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    test_records: int


def evaluate_classifier(model, test: Dataset) -> EvaluationResult:
    """Score a model exposing ``predict_many`` on a labeled test set."""
    X, y = test.to_arrays()
    if len(y) == 0:
        raise MLError("cannot evaluate on an empty test set")
    predictions = np.asarray(model.predict_many(X))
    return EvaluationResult(
        accuracy=metrics.accuracy(y, predictions),
        precision=metrics.precision(y, predictions),
        recall=metrics.recall(y, predictions),
        f1=metrics.f1_score(y, predictions),
        test_records=len(y),
    )
