"""Independent reference results, recomputed with numpy from the generator's arrays.

Nothing here touches the system under test: the join, the ``country = 'USA'``
filter, recoding, dummy coding and the SVM are re-derived from
:class:`~bench_e2e.datagen.RetailData`.  Checks are order-independent (record
count, per-column sums, trained weights), because the system is free to
deliver rows in any partition order.
"""

from dataclasses import dataclass

import numpy as np

from bench_e2e import datagen

#: Summation order differs between the system and the reference, nothing else.
RTOL = 1e-9


@dataclass(frozen=True)
class Summary:
    """What one op delivered to the trainer, or what it should have."""

    records: int
    x_sums: np.ndarray
    y_sum: float
    #: trained weights with the intercept appended
    weights: np.ndarray


def summarize(X: np.ndarray, y: np.ndarray, weights: np.ndarray) -> Summary:
    X = np.asarray(X, dtype=float)
    return Summary(len(y), X.sum(axis=0), float(np.sum(y)), np.asarray(weights, dtype=float))


def svm_sgd(X: np.ndarray, y: np.ndarray, iterations: int) -> np.ndarray:
    """Full-batch hinge-loss SGD with L2, step ``1/sqrt(t)`` — MLlib's SVMWithSGD
    at its defaults (step 1.0, regularisation 0.01, whole batch)."""
    signed = np.where(y > 0.5, 1.0, -1.0)
    w = np.zeros(X.shape[1])
    b = 0.0
    for t in range(1, iterations + 1):
        violated = signed * (X @ w + b) < 1.0
        grad_w = -(X[violated].T @ signed[violated])
        grad_b = -signed[violated].sum()
        step = 1.0 / np.sqrt(t)
        w = w - step * (grad_w / len(y) + 0.01 * w)
        b = b - step * (grad_b / len(y))
    return np.append(w, b)


def retail_expected(data: datagen.RetailData, leg: str, iterations: int) -> Summary:
    """Expected result of one retail query leg after recode + dummy(gender).

    ``prep``: carts ⋈ users, country = 'USA' -> age, gender, amount | abandoned
    ``subset``: ... AND gender = 'F'          -> age, amount         | abandoned
    ``recode_reuse``: ... AND year = 2014     -> age, gender, amount, nItems | abandoned
    """
    uid = data.user_ids
    usa = data.countries[uid] == "USA"
    gender = data.genders[uid]
    # Codes are assigned over the distinct values of the *prep* result (the
    # follow-up legs reuse that map), in sorted order; the label is code - 1.
    categories = sorted(set(gender[usa]))
    labels = sorted({"Yes" if a else "No" for a in data.abandoned[usa]})
    mask = {
        "prep": usa,
        "subset": usa & (gender == "F"),
        "recode_reuse": usa & (data.years == 2014),
    }[leg]
    age = data.ages[uid][mask].astype(float)
    amount = data.amounts[mask]
    dummies = [(gender[mask] == c).astype(float) for c in categories]
    columns = {
        "prep": [age, *dummies, amount],
        "subset": [age, amount],
        "recode_reuse": [age, *dummies, amount, data.n_items[mask].astype(float)],
    }[leg]
    X = np.column_stack(columns)
    y = np.array([float(labels.index("Yes" if a else "No")) for a in data.abandoned[mask]])
    return summarize(X, y, svm_sgd(X, y, iterations))


def points_expected(iterations: int, num_points: int = datagen.NUM_POINTS) -> Summary:
    rows = np.array(datagen.points_rows(num_points))
    X, y = rows[:, 1:3], rows[:, 3]
    return summarize(X, y, svm_sgd(X, y, iterations))


def check(observed: Summary, expected: Summary) -> list[str]:
    """Every way ``observed`` differs from ``expected`` (empty = correct)."""
    problems = []
    if observed.records != expected.records:
        problems.append(f"record count {observed.records} != {expected.records}")
    if observed.x_sums.shape != expected.x_sums.shape or not np.allclose(
        observed.x_sums, expected.x_sums, rtol=RTOL, atol=0.0
    ):
        problems.append(f"feature column sums {observed.x_sums} != {expected.x_sums}")
    if not np.isclose(observed.y_sum, expected.y_sum, rtol=RTOL, atol=0.0):
        problems.append(f"label sum {observed.y_sum} != {expected.y_sum}")
    if observed.weights.shape != expected.weights.shape or not np.allclose(
        observed.weights, expected.weights, rtol=RTOL, atol=1e-12
    ):
        problems.append(f"model weights {observed.weights} != {expected.weights}")
    return problems
