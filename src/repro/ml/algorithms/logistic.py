"""Logistic regression with distributed minibatch SGD."""

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MLError
from repro.ml.algorithms.sgd import minibatch_sgd
from repro.ml.dataset import Dataset


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() from overflowing on confident examples.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


@dataclass(frozen=True)
class LogisticRegressionModel:
    """A trained binary logistic model (labels 0/1)."""

    weights: np.ndarray
    intercept: float

    def predict_probability(self, features: np.ndarray) -> float:
        """P(label=1 | features)."""
        return float(_sigmoid(np.asarray(features @ self.weights + self.intercept)))

    def predict(self, features: np.ndarray) -> int:
        return 1 if self.predict_probability(features) >= 0.5 else 0

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return (_sigmoid(X @ self.weights + self.intercept) >= 0.5).astype(int)


class LogisticRegressionWithSGD:
    """Static trainer mirroring MLlib's LogisticRegressionWithSGD."""

    @staticmethod
    def train(
        dataset: Dataset,
        iterations: int = 50,
        step: float = 1.0,
        reg_param: float = 0.0,
        minibatch_fraction: float = 1.0,
        seed: int = 42,
        checkpoint=None,  # TrainCheckpointer | None (§6 resumable training)
    ) -> LogisticRegressionModel:
        """Train on LabeledPoint records with labels in {0, 1}."""
        X, y = dataset.to_arrays()
        if not len(X):
            raise MLError("cannot train logistic regression on an empty dataset")

        def log_loss_gradient(X, y, w, b):
            errors = _sigmoid(X @ w + b) - y
            return X.T @ errors, float(errors.sum())

        w, b = minibatch_sgd(
            "logistic", X, y, log_loss_gradient, iterations, step, reg_param, checkpoint,
            np.random.default_rng(seed), minibatch_fraction,
        )
        return LogisticRegressionModel(weights=w, intercept=b)
