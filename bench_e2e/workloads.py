"""The five workloads: what one *op* is, on which deployment, and why.

An op is one submit -> trained-model round trip through the public surface
of a deployment.  A session object owns the deployment and its inputs for one
round; ``op(i)`` runs the i-th op and ``observe(result)`` reduces what the op
delivered to the trainer to an :class:`Observation` checked against
:mod:`bench_e2e.reference`.
"""

from dataclasses import dataclass, field

import numpy as np

from bench_e2e import adapter, datagen, reference

BLOCK_SIZE = 256 * 1024
COMMAND = "svm_with_sgd"

#: The §1 data-preparation query and §5's two follow-ups that share work with it.
SQL = {
    "prep": (
        "SELECT U.age, U.gender, C.amount, C.abandoned "
        "FROM carts C, users U "
        "WHERE C.userid = U.userid AND U.country = 'USA'"
    ),
    "subset": (
        "SELECT U.age, C.amount, C.abandoned "
        "FROM carts C, users U "
        "WHERE C.userid = U.userid AND U.country = 'USA' AND U.gender = 'F'"
    ),
    "recode_reuse": (
        "SELECT U.age, U.gender, C.amount, C.nItems, C.abandoned "
        "FROM carts C, users U "
        "WHERE C.userid = U.userid AND U.country = 'USA' AND C.year = 2014"
    ),
}

#: ``PipelineResult`` stage names -> the ``integration.<key>_ms`` metric they feed.
STAGE_KEYS = {
    "recode pass 1": "pass1",
    "prep": "main_stage",
    "prep+trsfm": "main_stage",
    "prep+trsfm+input": "main_stage",
    "trsfm": "jaql_stage",
    "input for ml": "ml_input",
    "ml train": "ml_train",
}


@dataclass
class Observation:
    """What one op delivered, reduced to numbers."""

    records: int = 0
    problems: list = field(default_factory=list)
    #: wall seconds per integration stage key (empty when no pipeline ran)
    stages: dict = field(default_factory=dict)
    sim_s: float = 0.0
    ingest_s: float = 0.0
    ingest_records: int = 0
    weights: list = field(default_factory=list)


def _observe_job(obs: Observation, ml_result, expected: reference.Summary, leg: str) -> None:
    """Fold one ML job's ingested ``(X, y)`` and model into ``obs``."""
    X, y = ml_result.dataset.to_arrays()
    model = ml_result.model
    seen = reference.summarize(X, y, np.append(model.weights, model.intercept))
    obs.records += seen.records
    obs.problems += [f"{leg}: {p}" for p in reference.check(seen, expected)]
    obs.ingest_s += ml_result.ingest_stats.wall_seconds
    obs.ingest_records += ml_result.ingest_stats.records
    obs.weights.append([float(w) for w in seen.weights])


class RetailSession:
    """The paper's cart-abandonment scenario on one deployment."""

    iterations = 10

    def __init__(self, seed: int, knobs: dict, legs: tuple, naive=False, use_cache=False):
        self.legs, self.naive, self.use_cache = legs, naive, use_cache
        self.data = datagen.generate_retail(seed)
        self.dep = adapter.make_deployment(block_size=BLOCK_SIZE, **knobs)
        adapter.load_retail(self.dep, self.data)
        if use_cache:
            self.dep.pipeline.populate_caches(
                SQL["prep"], adapter.PAPER_SPEC, cache_transformed=True
            )
        self.expected = {
            leg: reference.retail_expected(self.data, leg, self.iterations) for leg in legs
        }
        self.last_dataset = None
        #: what the direct probes run against (see bench_e2e.probes)
        self.probe_sql = {
            "scan": "SELECT * FROM carts",
            "scan_2col": "SELECT userid, amount FROM carts",
            "scan_rows": len(self.data.user_ids),
            "csv_dir": "/warehouse/carts",
            "legs": [SQL[leg] for leg in legs],
        }

    def op(self, i: int) -> list:
        pipeline = self.dep.pipeline
        args = {"iterations": self.iterations}
        if self.naive:
            return [pipeline.run_naive(SQL[leg], adapter.PAPER_SPEC, COMMAND, args) for leg in self.legs]
        return [
            pipeline.run_insql_stream(
                SQL[leg], adapter.PAPER_SPEC, COMMAND, args, use_cache=self.use_cache
            )
            for leg in self.legs
        ]

    def observe(self, results: list) -> Observation:
        obs = Observation()
        for leg, result in zip(self.legs, results):
            _observe_job(obs, result.ml_result, self.expected[leg], leg)
            obs.sim_s += result.total_sim_seconds
            for stage in result.stages:
                key = STAGE_KEYS.get(stage.name, "other")
                obs.stages[key] = obs.stages.get(key, 0.0) + stage.wall_seconds
            self.last_dataset = result.ml_result.dataset
        return obs


class ServeSession:
    """Many short streaming sessions on a small table: per-session fixed cost."""

    iterations = 3

    def __init__(self, seed: int, knobs: dict):
        self.seed = seed
        self.dep = adapter.make_deployment(**knobs)
        adapter.load_points(self.dep)
        self.expected = reference.points_expected(self.iterations)
        self.last_dataset = None
        self.probe_sql = {
            "scan": "SELECT * FROM points",
            "scan_2col": "SELECT f1, label FROM points",
            "scan_rows": datagen.NUM_POINTS,
            "plan": self._sql("probe"),
            "rows": [row[1:] for row in datagen.points_rows()],
        }

    @staticmethod
    def _sql(session_id: str) -> str:
        return (
            "SELECT * FROM TABLE(stream_transfer((SELECT f1, f2, label "
            f"FROM points), '{session_id}')) AS s"
        )

    def op(self, i: int):
        session_id = f"bench_{i}"
        coordinator = self.dep.coordinator
        coordinator.create_session(
            session_id,
            command=COMMAND,
            args={"iterations": self.iterations, "seed": self.seed * 1_000_003 + i},
            conf_props={"record.format": "labeled_csv", "label.index": -1},
        )
        try:
            self.dep.engine.query_rows(self._sql(session_id))
            return coordinator.wait_result(session_id)
        finally:
            coordinator.close_session(session_id)

    def observe(self, ml_result) -> Observation:
        obs = Observation()
        _observe_job(obs, ml_result, self.expected, "session")
        self.last_dataset = ml_result.dataset
        return obs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # seed -> session
    #: closed-loop client threads (never more than the 2 cores of the sandbox)
    clients: int = 1
    #: ops run (and checked) before the clock starts, part of ``setup_s``
    warmup_ops: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stream_rows",
            "run_insql_stream, no cache, default rows plane + memory transport: "
            "the paper's headline path; sql scan/distinct/join, transform and byte accounting dominate",
            lambda seed: RetailSession(seed, {}, ("prep",)),
        ),
        Workload(
            "stream_columnar",
            "same op through the other fork (ColumnBatch, C frames, socket transport): "
            "a rows-only change must not move it, a columnar/socket change must not move stream_rows",
            lambda seed: RetailSession(seed, dict(columnar=True, transport="socket"), ("prep",)),
        ),
        Workload(
            "naive_dfs",
            "run_naive: two replicated DFS materialisations, Jaql/MapReduce transform and DFS ingest, "
            "layers the stream workloads bypass; a read speed-up paid for by writes shows here",
            lambda seed: RetailSession(seed, {}, ("prep",), naive=True),
        ),
        Workload(
            "cached_followups",
            "Figure 4 / section 5: three queries sharing work after populate_caches; two full-cache hits, "
            "one recode-map reuse; bypasses pass 1 and most base-table scans",
            lambda seed: RetailSession(
                seed, {}, ("prep", "subset", "recode_reuse"), use_cache=True
            ),
        ),
        Workload(
            "serve_sessions",
            "2 closed-loop clients running short streaming sessions on a 240-row table: per-session "
            "fixed cost (coordinator, admission, mux, plan, thread pools); data-proportional layers idle",
            lambda seed: ServeSession(
                seed, dict(max_concurrent_sessions=4, transport="socket")
            ),
            clients=2,
            warmup_ops=20,
        ),
    )
}
