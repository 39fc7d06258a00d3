"""In-memory partitioned dataset — the RDD of this reproduction."""

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.common.errors import MLError


@dataclass(frozen=True)
class LabeledPoint:
    """A training example: numeric label plus a dense feature vector."""

    label: float
    features: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledPoint)
            and self.label == other.label
            and np.array_equal(self.features, other.features)
        )

    def __hash__(self) -> int:
        return hash((self.label, self.features.tobytes()))


class Dataset:
    """A list of record partitions with Spark-like bulk operations.

    Everything is eager and in-memory — the paper's streaming experiment
    measures precisely the time "till the in-memory RDD is constructed",
    so construction is the interesting part; transformation laziness is not.
    """

    def __init__(self, partitions: list[list]):
        self._partitions = [list(p) for p in partitions]

    @staticmethod
    def from_records(records: Iterable, num_partitions: int = 4) -> "Dataset":
        """Round-robin records into partitions."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        partitions: list[list] = [[] for _ in range(num_partitions)]
        for i, record in enumerate(records):
            partitions[i % num_partitions].append(record)
        return Dataset(partitions)

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def partitions(self) -> list[list]:
        """Direct (read-only by convention) access to the partition lists."""
        return self._partitions

    def count(self) -> int:
        return sum(len(p) for p in self._partitions)

    def collect(self) -> list:
        out: list = []
        for p in self._partitions:
            out.extend(p)
        return out

    def map(self, fn: Callable) -> "Dataset":
        return Dataset([[fn(r) for r in p] for p in self._partitions])

    def filter(self, fn: Callable) -> "Dataset":
        return Dataset([[r for r in p if fn(r)] for p in self._partitions])

    def sample(self, fraction: float, seed: int = 0) -> "Dataset":
        """Bernoulli sample per record (deterministic under the seed)."""
        rng = np.random.default_rng(seed)
        return Dataset(
            [[r for r in p if rng.random() < fraction] for p in self._partitions]
        )

    def first(self):
        for p in self._partitions:
            if p:
                return p[0]
        raise IndexError("dataset is empty")

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Every partition's (X, y) stacked into one pair."""
        return stack_pairs(self.partition_arrays())

    def partition_arrays(self) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Per-partition (X, y) arrays — what naive Bayes, the tree and
        k-means work over; the linear trainers stack them (``to_arrays``).
        Records are LabeledPoints or bare feature vectors (then y is None)."""
        out = []
        for p in self._partitions:
            if not p:
                continue
            X = np.stack([getattr(r, "features", r) for r in p]).astype(float)
            labeled = isinstance(p[0], LabeledPoint)
            out.append((X, np.array([r.label for r in p], dtype=float) if labeled else None))
        return out


class ArrayDataset(Dataset):
    """A Dataset whose partitions are (X, y) feature/label arrays.

    ML ingestion lands here: every received block becomes float64 arrays
    through ``batch_to_xy`` and the solvers read those arrays with no
    per-row object ever built.  ``y`` is None for unlabeled
    (``vector_csv``) input.  Row-oriented accessors (``collect``, ``map``,
    ``first``, ...) still work — the records (LabeledPoints, or feature
    vectors when unlabeled) are synthesized lazily, once, only when
    something actually asks for rows.
    """

    def __init__(self, arrays: list[tuple[np.ndarray, np.ndarray | None]]):
        self._arrays = [
            (np.asarray(X, dtype=float), None if y is None else np.asarray(y, dtype=float))
            for X, y in arrays
        ]
        self._rows: list[list] | None = None  # lazy record partitions

    # Base-class methods read ``self._partitions``; materialize it on first
    # row-level access so the fast paths below never pay for it.
    @property
    def _partitions(self) -> list[list]:
        if self._rows is None:
            self._rows = [
                [_record(X, y, i) for i in range(len(X))] for X, y in self._arrays
            ]
        return self._rows

    @property
    def num_partitions(self) -> int:
        return len(self._arrays)

    def count(self) -> int:
        return sum(len(X) for X, _ in self._arrays)

    def first(self):
        for X, y in self._arrays:
            if len(X):
                return _record(X, y, 0)
        raise IndexError("dataset is empty")

    def partition_arrays(self) -> list[tuple[np.ndarray, np.ndarray | None]]:
        return [(X, y) for X, y in self._arrays if len(X)]


def stack_pairs(pairs: list[tuple]) -> tuple[np.ndarray, np.ndarray | None]:
    """Concatenate (X, y) pairs, empty ones skipped, into one pair.  Their
    feature widths must agree: a CSV split takes its width from its own
    first record."""
    pairs = [(X, y) for X, y in pairs if len(X)]
    widths = sorted({X.shape[1] for X, _ in pairs})
    if len(widths) > 1:
        raise MLError(f"inconsistent feature dimensions across partitions: widths {widths}")
    if not pairs:
        return np.empty((0, 0)), np.empty((0,))
    if len(pairs) == 1:
        return pairs[0]
    ys = [y for _, y in pairs]
    return (
        np.concatenate([X for X, _ in pairs]),
        None if ys[0] is None else np.concatenate(ys),
    )


def _record(X: np.ndarray, y: np.ndarray | None, i: int):
    """Row ``i`` as the record the row path builds: a LabeledPoint, or the
    bare feature vector when unlabeled."""
    if y is None:
        return X[i]
    return LabeledPoint(float(y[i]), X[i])
