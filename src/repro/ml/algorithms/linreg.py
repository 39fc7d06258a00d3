"""Linear regression: distributed normal equations (default) or SGD."""

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MLError
from repro.ml.algorithms.sgd import minibatch_sgd
from repro.ml.dataset import Dataset


@dataclass(frozen=True)
class LinearRegressionModel:
    """A trained linear model."""

    weights: np.ndarray
    intercept: float

    def predict(self, features: np.ndarray) -> float:
        return float(features @ self.weights + self.intercept)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.intercept


class LinearRegression:
    """Static trainers.

    ``train`` solves the (ridge-regularized) normal equations from the
    Gram/moment sums over the stacked partitions — one pass.
    ``train_sgd`` mirrors the SGD trainers of the other linear models.
    """

    @staticmethod
    def train(dataset: Dataset, reg_param: float = 0.0) -> LinearRegressionModel:
        X, y = dataset.to_arrays()
        if not len(X):
            raise MLError("cannot fit linear regression on an empty dataset")
        dim = X.shape[1]
        Xb = np.hstack([X, np.ones((len(X), 1))])
        gram = Xb.T @ Xb
        moment = Xb.T @ y
        if reg_param > 0.0:
            ridge = np.eye(dim + 1) * reg_param
            ridge[dim, dim] = 0.0  # never regularize the intercept
            gram += ridge
        solution, *_ = np.linalg.lstsq(gram, moment, rcond=None)
        return LinearRegressionModel(
            weights=solution[:dim], intercept=float(solution[dim])
        )

    @staticmethod
    def train_sgd(
        dataset: Dataset,
        iterations: int = 100,
        step: float = 0.1,
        reg_param: float = 0.0,
        checkpoint=None,  # TrainCheckpointer | None (§6 resumable training)
    ) -> LinearRegressionModel:
        X, y = dataset.to_arrays()
        if not len(X):
            raise MLError("cannot fit linear regression on an empty dataset")

        def squared_loss_gradient(X, y, w, b):
            errors = X @ w + b - y
            return X.T @ errors, float(errors.sum())

        w, b = minibatch_sgd(
            "linreg_sgd", X, y, squared_loss_gradient, iterations, step, reg_param, checkpoint
        )
        return LinearRegressionModel(weights=w, intercept=b)
