"""Lloyd's k-means with per-partition assignment/aggregation."""

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MLError
from repro.ml.dataset import Dataset


@dataclass(frozen=True)
class KMeansModel:
    """Trained centers plus final within-cluster cost."""

    centers: np.ndarray  # [k, dim]
    cost: float
    iterations_run: int

    def predict(self, features: np.ndarray) -> int:
        distances = np.linalg.norm(self.centers - np.asarray(features, float), axis=1)
        return int(np.argmin(distances))

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        distances = ((X[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(distances, axis=1)


def _kmeans_plus_plus_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding: each next center drawn proportionally to squared
    distance from the chosen ones (the sequential analogue of MLlib's
    k-means||), which avoids the empty/merged-cluster local minima of plain
    random initialization."""
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(len(points))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i] = points[rng.integers(len(points))]
            continue
        choice = rng.random() * total
        index = int(np.searchsorted(np.cumsum(d2), choice))
        centers[i] = points[min(index, len(points) - 1)]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


class KMeans:
    """Static trainer over feature-vector records (np arrays or LabeledPoint)."""

    @staticmethod
    def train(
        dataset: Dataset,
        k: int,
        max_iterations: int = 20,
        tolerance: float = 1e-4,
        seed: int = 42,
        n_init: int = 1,
        checkpoint=None,  # TrainCheckpointer | None (§6 resumable training)
    ) -> KMeansModel:
        """Train; ``n_init > 1`` runs that many restarts with derived seeds
        and keeps the lowest-cost model (k-means++ reduces but does not
        eliminate initialization sensitivity).  Checkpointing applies only
        to single-init runs — restarts would alias each other's state under
        one job id."""
        if n_init > 1:
            best: KMeansModel | None = None
            for restart in range(n_init):
                candidate = KMeans.train(
                    dataset,
                    k,
                    max_iterations=max_iterations,
                    tolerance=tolerance,
                    seed=seed + 7919 * restart,
                    n_init=1,
                )
                if best is None or candidate.cost < best.cost:
                    best = candidate
            return best
        parts = [X for X, _y in dataset.partition_arrays()]
        if not parts:
            raise MLError("cannot cluster an empty dataset")
        total = sum(len(p) for p in parts)
        if total < k:
            raise MLError(f"need at least k={k} points, have {total}")

        rng = np.random.default_rng(seed)
        all_points = np.vstack(parts)
        centers = _kmeans_plus_plus_init(all_points, k, rng)

        iterations_run = 0
        cost = float("inf")
        converged = False
        if checkpoint is not None:
            restored = checkpoint.restore("kmeans")
            if restored is not None:
                centers = np.array(restored["centers"], dtype=float)
                cost = float(restored["cost"])
                iterations_run = int(restored["iteration"])
                converged = bool(restored.get("converged", False))
        while not converged and iterations_run < max_iterations:
            iterations_run += 1
            sums = np.zeros_like(centers)
            counts = np.zeros(k, dtype=int)
            new_cost = 0.0
            for X in parts:
                d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                assignment = np.argmin(d2, axis=1)
                new_cost += float(d2[np.arange(len(X)), assignment].sum())
                for cluster in range(k):
                    mask = assignment == cluster
                    if mask.any():
                        sums[cluster] += X[mask].sum(axis=0)
                        counts[cluster] += int(mask.sum())
            moved = 0.0
            for cluster in range(k):
                if counts[cluster] == 0:
                    continue  # empty cluster keeps its center
                new_center = sums[cluster] / counts[cluster]
                moved = max(moved, float(np.linalg.norm(new_center - centers[cluster])))
                centers[cluster] = new_center
            cost = new_cost
            converged = moved < tolerance
            if checkpoint is not None:
                # The converged flag travels with the state: a run killed at
                # its final iteration resumes to the same early exit instead
                # of running one extra Lloyd step.
                checkpoint.iteration_done(
                    iterations_run,
                    lambda: {
                        "algorithm": "kmeans",
                        "iteration": iterations_run,
                        "centers": centers.copy(),
                        "cost": cost,
                        "converged": converged,
                        "rng_state": rng.bit_generator.state,
                    },
                )
        return KMeansModel(centers=centers, cost=cost, iterations_run=iterations_run)
