"""Extensibility: plug a custom ML algorithm and a custom coding scheme in.

The paper's core generality claim: the solution must work with "any big ML
system" and "be easily extensible to any future ML system".  Here we

1. register a *custom* training algorithm (an averaged perceptron) with the
   ML system under its own command name — the SQL side streams to it with
   zero changes;
2. use *effect coding* (§2's "less common transformation") instead of dummy
   coding, composed at the SQL surface by the same TABLE(...) mechanism;
3. reuse the cached recode maps for a §5.2-style follow-up query.

Run:  python examples/custom_algorithm.py
"""

import numpy as np

from repro import make_deployment
from repro.ml.dataset import Dataset
from repro.ml import metrics
from repro.workloads import generate_retail


class AveragedPerceptronModel:
    """A minimal linear model trained by the averaged perceptron rule."""

    def __init__(self, weights: np.ndarray, intercept: float):
        self.weights = weights
        self.intercept = intercept

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return (X @ self.weights + self.intercept >= 0).astype(int)


def train_averaged_perceptron(dataset: Dataset, args: dict) -> AveragedPerceptronModel:
    """Custom trainer: per-partition passes with weight averaging."""
    epochs = int(args.get("epochs", 5))
    parts = dataset.partition_arrays()
    dim = parts[0][0].shape[1]
    w = np.zeros(dim)
    b = 0.0
    w_sum = np.zeros(dim)
    b_sum = 0.0
    updates = 0
    for _ in range(epochs):
        for X, y in parts:
            signed = np.where(y > 0.5, 1.0, -1.0)
            for xi, yi in zip(X, signed):
                if yi * (xi @ w + b) <= 0:
                    w = w + yi * xi
                    b = b + yi
                w_sum += w
                b_sum += b
                updates += 1
    if updates:
        w, b = w_sum / updates, b_sum / updates
    return AveragedPerceptronModel(w, float(b))


def main() -> None:
    dep = make_deployment(block_size=256 * 1024)
    wl = generate_retail(dep.engine, dep.dfs, num_users=1_500, num_carts=15_000)
    dep.pipeline.byte_scale = wl.byte_scale

    # 1. Plug the custom algorithm into the ML system.
    dep.ml.register_algorithm("averaged_perceptron", train_averaged_perceptron)

    prep = (
        "SELECT U.age, U.gender, C.amount / 100.0 AS amount, C.abandoned "
        "FROM carts C, users U "
        "WHERE C.userid = U.userid AND U.country = 'USA'"
    )
    result = dep.pipeline.run_insql_stream(
        prep, wl.spec, "averaged_perceptron", {"epochs": 3}
    )
    X, y = result.ml_result.dataset.to_arrays()
    predictions = result.ml_result.model.predict_many(X)
    print(f"custom algorithm over streamed data: "
          f"{result.ml_result.dataset.count()} rows, "
          f"accuracy {metrics.accuracy(y, predictions):.3f}")

    # 2. Effect coding through the same UDF surface the paper describes.
    plan = dep.pipeline.rewriter_no_cache.plan(prep, wl.spec)
    stage = dep.pipeline._run_pass1(plan, wl.spec)  # builds the recode map
    effect_sql = (
        f"SELECT * FROM TABLE(effect_code((SELECT * FROM TABLE(recode(({prep}), "
        f"'{plan.map_handle}', 'gender', 'abandoned')) AS r), "
        f"'{plan.map_handle}', 'gender')) AS e LIMIT 5"
    )
    print("\neffect-coded sample (gender -> K-1 contrast columns):")
    print(" ", dep.engine.plan(effect_sql).schema.names)
    for row in dep.engine.query_rows(effect_sql):
        print(" ", row)

    # 3. §5.2 follow-up: cache the recode maps, then a new query with an
    # extra year predicate reuses them (pass 1 skipped).
    dep.pipeline.populate_caches(prep, wl.spec, cache_recode_map=True)
    followup = (
        "SELECT U.age, U.gender, C.amount / 100.0 AS amount, C.abandoned "
        "FROM carts C, users U "
        "WHERE C.userid = U.userid AND U.country = 'USA' AND C.year = 2014"
    )
    reuse = dep.pipeline.run_insql_stream(
        followup, wl.spec, "averaged_perceptron", {"epochs": 3}, use_cache=True
    )
    print(f"\nfollow-up query rewrite: {reuse.rewrite_kind} "
          f"(recoding pass 1 skipped), total {reuse.total_sim_seconds:.1f}s simulated")


if __name__ == "__main__":
    main()
