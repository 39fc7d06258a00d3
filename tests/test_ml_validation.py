"""Validation utilities: held-out splits and evaluation."""

import numpy as np
import pytest

from repro.common.errors import MLError
from repro.ml.algorithms import LogisticRegressionWithSGD
from repro.ml.dataset import Dataset, LabeledPoint
from repro.ml.validation import evaluate_classifier, train_test_split


def make_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    points = [
        LabeledPoint(
            float(rng.random() < 0.5),
            rng.normal(0, 1, 2),
        )
        for _ in range(n)
    ]
    return Dataset.from_records(points, 4)


def separable_dataset(n=300, seed=1):
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        label = rng.random() < 0.5
        center = (2.0, 2.0) if label else (-2.0, -2.0)
        points.append(LabeledPoint(float(label), rng.normal(center, 0.6)))
    return Dataset.from_records(points, 4)


class TestTrainTestSplit:
    def test_partition_preserved_and_disjoint(self):
        ds = make_dataset()
        train, test = train_test_split(ds, 0.25, seed=3)
        assert train.num_partitions == test.num_partitions == 4
        assert train.count() + test.count() == ds.count()
        train_set = {hash(p) for p in train.collect()}
        test_set = {hash(p) for p in test.collect()}
        assert not train_set & test_set

    def test_fraction_respected(self):
        ds = make_dataset(n=4000)
        _train, test = train_test_split(ds, 0.3, seed=5)
        assert 0.25 < test.count() / 4000 < 0.35

    def test_deterministic(self):
        ds = make_dataset()
        a1, b1 = train_test_split(ds, 0.2, seed=9)
        a2, b2 = train_test_split(ds, 0.2, seed=9)
        assert a1.count() == a2.count() and b1.count() == b2.count()

    def test_bad_fraction(self):
        with pytest.raises(MLError):
            train_test_split(make_dataset(), 0.0)
        with pytest.raises(MLError):
            train_test_split(make_dataset(), 1.0)


class TestEvaluation:
    def test_evaluate_separable(self):
        ds = separable_dataset()
        train, test = train_test_split(ds, 0.3, seed=2)
        model = LogisticRegressionWithSGD.train(train, iterations=60)
        result = evaluate_classifier(model, test)
        assert result.accuracy > 0.95
        assert result.test_records == test.count()
        assert 0.0 <= result.f1 <= 1.0

    def test_empty_test_rejected(self):
        model = LogisticRegressionWithSGD.train(separable_dataset(), iterations=5)
        with pytest.raises(MLError):
            evaluate_classifier(model, Dataset([[]]))
