"""Linear SVM trained with distributed minibatch SGD (MLlib's SVMWithSGD).

The paper's end-to-end experiment feeds the transformed cart data to
``SVMWithSGD`` for 10 iterations; this is that algorithm: hinge loss with L2
regularization, one gradient over every partition's rows per iteration,
step size decaying as step/sqrt(t).  Labels are 0/1 on the outside and
mapped to ±1 internally, as in MLlib.
"""

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MLError
from repro.ml.algorithms.sgd import minibatch_sgd
from repro.ml.dataset import Dataset


@dataclass(frozen=True)
class SVMModel:
    """A trained linear SVM."""

    weights: np.ndarray
    intercept: float

    def decision(self, features: np.ndarray) -> float:
        """Signed margin for one example."""
        return float(features @ self.weights + self.intercept)

    def predict(self, features: np.ndarray) -> int:
        """Predicted class in {0, 1}."""
        return 1 if self.decision(features) >= 0.0 else 0

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """Vectorized prediction over a matrix of examples."""
        return (X @ self.weights + self.intercept >= 0.0).astype(int)


class SVMWithSGD:
    """Static trainer, MLlib-style."""

    @staticmethod
    def train(
        dataset: Dataset,
        iterations: int = 10,
        step: float = 1.0,
        reg_param: float = 0.01,
        minibatch_fraction: float = 1.0,
        seed: int = 42,
        fit_intercept: bool = True,
        checkpoint=None,  # TrainCheckpointer | None (§6 resumable training)
    ) -> SVMModel:
        """Train on a Dataset of LabeledPoint with labels in {0, 1}."""
        X, y = dataset.to_arrays()
        if not len(X):
            raise MLError("cannot train SVM on an empty dataset")

        def hinge_gradient(X, y, w, b):
            violated = y * (X @ w + b) < 1.0
            return -(X[violated].T @ y[violated]), -float(y[violated].sum())

        w, b = minibatch_sgd(
            "svm", X, np.where(y > 0.5, 1.0, -1.0), hinge_gradient, iterations, step,
            reg_param, checkpoint, np.random.default_rng(seed), minibatch_fraction,
            fit_intercept,
        )
        return SVMModel(weights=w, intercept=b)
