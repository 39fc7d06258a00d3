"""The ML algorithms: each must genuinely learn on constructed data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import CheckpointStore, TrainCheckpointer
from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import MLError
from repro.hdfs.filesystem import DistributedFileSystem
from repro.ml.algorithms import (
    DecisionTree,
    KMeans,
    LinearRegression,
    LogisticRegressionWithSGD,
    NaiveBayes,
    SVMWithSGD,
)
from repro.ml.dataset import ArrayDataset, Dataset, LabeledPoint


def make_separable(n=400, seed=3, margin=1.0, num_partitions=4) -> Dataset:
    """Linearly separable 2-D blobs with labels 0/1."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n // 2):
        points.append(LabeledPoint(1.0, rng.normal((2.0, 2.0), 0.5) + margin))
        points.append(LabeledPoint(0.0, rng.normal((-2.0, -2.0), 0.5) - margin))
    return Dataset.from_records(points, num_partitions)


def accuracy(model, dataset) -> float:
    X, y = dataset.to_arrays()
    return float((np.asarray(model.predict_many(X)) == y).mean())


class TestSVM:
    def test_learns_separable_data(self):
        ds = make_separable()
        model = SVMWithSGD.train(ds, iterations=50, step=1.0, reg_param=0.01)
        assert accuracy(model, ds) > 0.97

    def test_deterministic_under_seed(self):
        ds = make_separable()
        m1 = SVMWithSGD.train(ds, iterations=10, minibatch_fraction=0.5, seed=9)
        m2 = SVMWithSGD.train(ds, iterations=10, minibatch_fraction=0.5, seed=9)
        assert np.array_equal(m1.weights, m2.weights)

    def test_minibatch_trains(self):
        ds = make_separable()
        model = SVMWithSGD.train(ds, iterations=60, minibatch_fraction=0.3)
        assert accuracy(model, ds) > 0.9

    def test_single_prediction_api(self):
        ds = make_separable()
        model = SVMWithSGD.train(ds, iterations=30)
        assert model.predict(np.array([3.0, 3.0])) == 1
        assert model.predict(np.array([-3.0, -3.0])) == 0
        assert model.decision(np.array([3.0, 3.0])) > 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(MLError):
            SVMWithSGD.train(Dataset([[]]))

    def test_inconsistent_dims_rejected(self):
        parts = [
            [LabeledPoint(1.0, np.array([1.0, 2.0]))],
            [LabeledPoint(0.0, np.array([1.0]))],
        ]
        with pytest.raises(MLError, match="dimensions"):
            SVMWithSGD.train(Dataset(parts))


class TestLogisticRegression:
    def test_learns_separable_data(self):
        ds = make_separable()
        model = LogisticRegressionWithSGD.train(ds, iterations=80, step=1.0)
        assert accuracy(model, ds) > 0.97

    def test_probabilities_ordered(self):
        ds = make_separable()
        model = LogisticRegressionWithSGD.train(ds, iterations=80)
        p_pos = model.predict_probability(np.array([3.0, 3.0]))
        p_neg = model.predict_probability(np.array([-3.0, -3.0]))
        assert p_pos > 0.9 > 0.1 > p_neg

    def test_regularization_shrinks_weights(self):
        ds = make_separable()
        free = LogisticRegressionWithSGD.train(ds, iterations=60, reg_param=0.0)
        ridge = LogisticRegressionWithSGD.train(ds, iterations=60, reg_param=5.0)
        assert np.linalg.norm(ridge.weights) < np.linalg.norm(free.weights)


class TestNaiveBayes:
    def test_learns_indicator_features(self):
        rng = np.random.default_rng(1)
        points = []
        for _ in range(400):
            label = rng.random() < 0.5
            # Feature 0 fires mostly for class 1, feature 1 for class 0.
            f0 = 1.0 if (label and rng.random() < 0.9) or (not label and rng.random() < 0.1) else 0.0
            f1 = 1.0 - f0
            points.append(LabeledPoint(float(label), np.array([f0, f1, 1.0])))
        ds = Dataset.from_records(points, 4)
        model = NaiveBayes.train(ds)
        assert accuracy(model, ds) > 0.85

    def test_multiclass(self):
        points = []
        for label in (0.0, 1.0, 2.0):
            for _ in range(30):
                features = np.zeros(3)
                features[int(label)] = 5.0
                points.append(LabeledPoint(label, features + 0.1))
        ds = Dataset.from_records(points, 3)
        model = NaiveBayes.train(ds)
        assert model.predict(np.array([5.0, 0.1, 0.1])) == 0.0
        assert model.predict(np.array([0.1, 5.0, 0.1])) == 1.0
        assert model.predict(np.array([0.1, 0.1, 5.0])) == 2.0

    def test_negative_features_rejected(self):
        points = [LabeledPoint(0.0, np.array([-1.0]))]
        with pytest.raises(MLError, match="non-negative"):
            NaiveBayes.train(Dataset([points]))


class TestDecisionTree:
    def test_learns_xor(self):
        """XOR is the canonical not-linearly-separable case a tree nails."""
        rng = np.random.default_rng(2)
        points = []
        for _ in range(400):
            x, y = rng.random() * 2 - 1, rng.random() * 2 - 1
            label = float((x > 0) != (y > 0))
            points.append(LabeledPoint(label, np.array([x, y])))
        ds = Dataset.from_records(points, 4)
        model = DecisionTree.train(ds, max_depth=4)
        assert accuracy(model, ds) > 0.95
        assert model.depth >= 2

    def test_pure_leaf_stops_growth(self):
        points = [LabeledPoint(1.0, np.array([float(i)])) for i in range(20)]
        model = DecisionTree.train(Dataset([points]))
        assert model.depth == 0  # all one class: a single leaf

    def test_max_depth_respected(self):
        rng = np.random.default_rng(4)
        points = [
            LabeledPoint(float(rng.random() < 0.5), rng.random(3)) for _ in range(300)
        ]
        model = DecisionTree.train(Dataset.from_records(points, 2), max_depth=2)
        assert model.depth <= 2

    def test_nonbinary_labels_rejected(self):
        points = [LabeledPoint(2.0, np.array([1.0]))]
        with pytest.raises(MLError, match="binary"):
            DecisionTree.train(Dataset([points]))


class TestKMeans:
    def test_finds_three_blobs(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        records = [
            rng.normal(centers[i % 3], 0.5) for i in range(300)
        ]
        ds = Dataset.from_records(records, 4)
        model = KMeans.train(ds, k=3, seed=11)
        found = model.centers[np.argsort(model.centers[:, 0])]
        expected = centers[np.argsort(centers[:, 0])]
        assert np.allclose(found, expected, atol=0.5)

    def test_cost_decreases_with_more_clusters(self):
        rng = np.random.default_rng(6)
        records = [rng.random(2) * 10 for _ in range(200)]
        ds = Dataset.from_records(records, 2)
        cost2 = KMeans.train(ds, k=2, seed=1).cost
        cost8 = KMeans.train(ds, k=8, seed=1).cost
        assert cost8 < cost2

    def test_accepts_labeled_points(self):
        points = [LabeledPoint(0.0, np.array([float(i), 0.0])) for i in range(10)]
        model = KMeans.train(Dataset([points]), k=2)
        assert model.centers.shape == (2, 2)

    def test_k_larger_than_data_rejected(self):
        with pytest.raises(MLError):
            KMeans.train(Dataset([[np.array([1.0])]]), k=5)

    def test_predict(self):
        records = [np.array([0.0]), np.array([100.0])]
        model = KMeans.train(Dataset([records]), k=2)
        assert model.predict(np.array([1.0])) != model.predict(np.array([99.0]))


class TestLinearRegression:
    def test_exact_on_linear_data(self):
        rng = np.random.default_rng(7)
        X = rng.random((200, 3)) * 10
        y = X @ np.array([2.0, -1.0, 0.5]) + 4.0
        points = [LabeledPoint(label, row) for row, label in zip(X, y)]
        model = LinearRegression.train(Dataset.from_records(points, 4))
        assert np.allclose(model.weights, [2.0, -1.0, 0.5], atol=1e-8)
        assert model.intercept == pytest.approx(4.0, abs=1e-8)

    def test_ridge_shrinks(self):
        rng = np.random.default_rng(8)
        X = rng.random((100, 2))
        y = X @ np.array([5.0, 5.0]) + rng.normal(0, 0.1, 100)
        points = [LabeledPoint(label, row) for row, label in zip(X, y)]
        ds = Dataset.from_records(points, 2)
        free = LinearRegression.train(ds, reg_param=0.0)
        ridge = LinearRegression.train(ds, reg_param=100.0)
        assert np.linalg.norm(ridge.weights) < np.linalg.norm(free.weights)

    def test_sgd_approximates_closed_form(self):
        rng = np.random.default_rng(9)
        X = rng.random((300, 2))
        y = X @ np.array([1.5, -0.5]) + 1.0
        points = [LabeledPoint(label, row) for row, label in zip(X, y)]
        ds = Dataset.from_records(points, 4)
        exact = LinearRegression.train(ds)
        sgd = LinearRegression.train_sgd(ds, iterations=3000, step=0.5)
        assert np.allclose(sgd.weights, exact.weights, atol=0.05)

    def test_empty_rejected(self):
        with pytest.raises(MLError):
            LinearRegression.train(Dataset([[]]))


# ------------------------------------------------- partition invariance

def _svm_gradient(X, y, w, b):
    signed = np.where(y > 0.5, 1.0, -1.0)
    violated = signed * (X @ w + b) < 1.0
    return -(X[violated].T @ signed[violated]), -signed[violated].sum()


def _logistic_gradient(X, y, w, b):
    errors = 1.0 / (1.0 + np.exp(-np.clip(X @ w + b, -35.0, 35.0))) - y
    return X.T @ errors, errors.sum()


def _squared_gradient(X, y, w, b):
    errors = X @ w + b - y
    return X.T @ errors, errors.sum()


def full_batch_sgd(X, y, gradient, iterations, step, reg, fraction, seed):
    """The oracle: one gradient over every row (or each iteration's sampled
    rows) per step, written out with numpy."""
    rng = np.random.default_rng(seed)
    w, b = np.zeros(X.shape[1]), 0.0
    for t in range(1, iterations + 1):
        rows = rng.random(len(y)) < fraction if fraction < 1.0 else slice(None)
        Xt, yt = X[rows], y[rows]
        if len(yt):
            grad_w, grad_b = gradient(Xt, yt, w, b)
            w = w - step / np.sqrt(t) * (grad_w / len(yt) + reg * w)
            b = b - step / np.sqrt(t) * (grad_b / len(yt))
    return np.append(w, b)


#: (trainer, keyword arguments, oracle gradient, step, regularisation)
TRAINERS = {
    "svm": (SVMWithSGD.train, {}, _svm_gradient, 1.0, 0.01),
    "logistic": (LogisticRegressionWithSGD.train, {"reg_param": 0.1}, _logistic_gradient, 1.0, 0.1),
    "linreg_sgd": (LinearRegression.train_sgd, {}, _squared_gradient, 0.1, 0.0),
}
TRAINER_CASES = [
    ("svm", 1.0), ("svm", 0.5), ("logistic", 1.0), ("logistic", 0.5), ("linreg_sgd", 1.0)
]


def _train(name, fraction, dataset, iterations, checkpoint=None):
    train, kwargs, *_ = TRAINERS[name]
    kwargs = dict(kwargs, iterations=iterations, checkpoint=checkpoint)
    if fraction < 1.0:
        kwargs.update(minibatch_fraction=fraction, seed=5)
    model = train(dataset, **kwargs)
    return np.append(model.weights, model.intercept)


@st.composite
def layouts(draw):
    """Random rows and several ways of cutting them into partitions, empty
    partitions included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, width = draw(st.integers(1, 60)), draw(st.integers(1, 4))
    X = rng.normal(0.0, 3.0, (rows, width))
    y = (rng.random(rows) < 0.5).astype(float)
    cuts = st.lists(st.integers(0, rows), max_size=6).map(lambda c: [0, *sorted(c), rows])
    return X, y, draw(st.lists(cuts, min_size=2, max_size=4))


@pytest.mark.parametrize("name, fraction", TRAINER_CASES)
@settings(max_examples=40, deadline=None)
@given(case=layouts())
def test_training_does_not_depend_on_the_partition_layout(name, fraction, case):
    X, y, cut_lists = case
    _train_fn, _kwargs, gradient, step, reg = TRAINERS[name]
    expected = full_batch_sgd(X, y, gradient, 6, step, reg, fraction, seed=5)
    for cuts in cut_lists:
        dataset = ArrayDataset([(X[a:b], y[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert _train(name, fraction, dataset, 6).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name, fraction", TRAINER_CASES)
@settings(max_examples=10, deadline=None)
@given(case=layouts(), stop=st.integers(1, 5))
def test_resuming_from_a_checkpoint_gives_the_uninterrupted_weights(name, fraction, case, stop):
    X, y, cut_lists = case
    dataset = ArrayDataset([(X[a:b], y[a:b]) for a, b in zip(cut_lists[0], cut_lists[0][1:])])
    cluster = make_paper_cluster(2)
    store = CheckpointStore(DistributedFileSystem(cluster, block_size=64 * 1024, replication=2))
    checkpoint = TrainCheckpointer("job", store=store, interval=1)
    _train(name, fraction, dataset, stop, checkpoint)  # saves iteration `stop` last
    resumed = _train(name, fraction, dataset, 6, checkpoint)
    assert checkpoint.restored_iteration == stop
    assert resumed.tobytes() == _train(name, fraction, dataset, 6).tobytes()
