"""The ML system facade: command-addressable jobs over InputFormats.

This is the unit the paper's coordinator launches in §3 step 2: the SQL-side
UDF passes along "the command and arguments to invoke the desired ML
algorithm"; when all SQL workers have registered, the coordinator calls
:meth:`MLSystem.run_job` with exactly those.  The input format is the *only*
ingestion path — swap ``TextInputFormat`` for ``SQLStreamInputFormat`` and
nothing else changes, which is the paper's generality claim made concrete.

§6 additions: when a :class:`~repro.checkpoint.CheckpointStore` is attached,
``run_job`` hands every iterative trainer a
:class:`~repro.checkpoint.TrainCheckpointer` (smuggled through the args dict
under the reserved ``checkpoint`` key) and retries a crashed training run in
place — the dataset is still in memory, so resume-from-checkpoint is the
cheapest recovery tier.  :meth:`train_local` trains on an already-built
Dataset, which is what the pipeline's lineage-replay tiers use.
"""

from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.cluster import Cluster
from repro.columnar.batch import batch_to_xy
from repro.common.errors import MLError
from repro.iofmt.inputformat import InputFormat, JobConf
from repro.ml.algorithms import (
    DecisionTree,
    KMeans,
    LinearRegression,
    LogisticRegressionWithSGD,
    NaiveBayes,
    SVMWithSGD,
)
from repro.ml.dataset import Dataset
from repro.ml.job import IngestStats, MLJob


@dataclass
class MLJobResult:
    """Everything one ML job produced."""

    command: str
    dataset: Dataset
    ingest_stats: IngestStats
    model: Any
    #: how many times training ran (1 = no fault; >1 = checkpoint resume)
    train_attempts: int = 1
    #: iteration the surviving training attempt resumed from (None = fresh)
    resumed_from_iteration: int | None = None
    #: recovery tier that produced this result (None = no recovery needed)
    recovered_via: str | None = None
    #: DatasetLineage describing how the training input was produced (§6)
    lineage: Any = None


def _default_algorithms() -> dict[str, Callable[[Dataset, dict], Any]]:
    return {
        "svm_with_sgd": lambda ds, args: SVMWithSGD.train(
            ds,
            iterations=int(args.get("iterations", 10)),
            step=float(args.get("step", 1.0)),
            reg_param=float(args.get("reg_param", 0.01)),
            minibatch_fraction=float(args.get("minibatch_fraction", 1.0)),
            seed=int(args.get("seed", 42)),
            checkpoint=args.get("checkpoint"),
        ),
        "logistic_regression": lambda ds, args: LogisticRegressionWithSGD.train(
            ds,
            iterations=int(args.get("iterations", 50)),
            step=float(args.get("step", 1.0)),
            reg_param=float(args.get("reg_param", 0.0)),
            seed=int(args.get("seed", 42)),
            checkpoint=args.get("checkpoint"),
        ),
        "naive_bayes": lambda ds, args: NaiveBayes.train(
            ds, smoothing=float(args.get("smoothing", 1.0))
        ),
        "decision_tree": lambda ds, args: DecisionTree.train(
            ds,
            max_depth=int(args.get("max_depth", 5)),
            min_samples_split=int(args.get("min_samples_split", 8)),
            max_bins=int(args.get("max_bins", 32)),
        ),
        "kmeans": lambda ds, args: KMeans.train(
            ds,
            k=int(args.get("k", 2)),
            max_iterations=int(args.get("max_iterations", 20)),
            seed=int(args.get("seed", 42)),
            n_init=int(args.get("n_init", 1)),
            checkpoint=args.get("checkpoint") if int(args.get("n_init", 1)) == 1 else None,
        ),
        "linear_regression": lambda ds, args: (
            LinearRegression.train_sgd(
                ds,
                iterations=int(args.get("iterations", 100)),
                step=float(args.get("step", 0.1)),
                reg_param=float(args.get("reg_param", 0.0)),
                checkpoint=args.get("checkpoint"),
            )
            if str(args.get("solver", "normal")) == "sgd"
            else LinearRegression.train(ds, reg_param=float(args.get("reg_param", 0.0)))
        ),
        # "ingest only" pseudo-command: build the RDD, skip training.  Used
        # by benchmarks that time exactly the paper's "input for ml" stage.
        "noop": lambda ds, args: None,
    }


class MLSystem:
    """A cluster-resident ML runtime with a registry of named algorithms."""

    def __init__(
        self,
        cluster: Cluster,
        workers_per_node: int = 6,
        checkpoint_store=None,  # CheckpointStore | None (§6 resumable training)
        checkpoint_interval: int = 0,  # iterations between saves; 0 = off
        fault_injector=None,  # FaultInjector | None (§6 training chaos)
    ):
        self.cluster = cluster
        self.workers_per_node = workers_per_node
        self.checkpoint_store = checkpoint_store
        self.checkpoint_interval = checkpoint_interval
        self.fault_injector = fault_injector
        self._algorithms = _default_algorithms()

    @property
    def default_parallelism(self) -> int:
        """Total worker slots (the paper runs 6 Spark workers per server)."""
        return len(self.cluster.workers) * self.workers_per_node

    def register_algorithm(
        self, command: str, trainer: Callable[[Dataset, dict], Any]
    ) -> None:
        """Add/replace an invocable algorithm — the extensibility the paper
        wants ("more ML systems and special algorithms are developed every
        day")."""
        self._algorithms[command.lower()] = trainer

    def known_commands(self) -> list[str]:
        return sorted(self._algorithms)

    def trainer(self, command: str) -> Callable[[Dataset, dict], Any]:
        """The registered trainer for a command (for out-of-job retraining,
        e.g. on a validation split)."""
        trainer = self._algorithms.get(command.lower())
        if trainer is None:
            raise MLError(
                f"unknown ML command {command!r}; known: {self.known_commands()}"
            )
        return trainer

    def run_job(
        self,
        command: str,
        args: dict | None,
        input_format: InputFormat,
        conf: JobConf,
        num_workers: int | None = None,
        record_parser: Callable | None = None,
    ) -> MLJobResult:
        """Ingest through ``input_format`` and train ``command`` on the RDD."""
        trainer = self.trainer(command)
        args = dict(args or {})
        job = MLJob(
            cluster=self.cluster,
            input_format=input_format,
            conf=conf,
            num_workers=num_workers or self.default_parallelism,
            record_parser=record_parser,
            batch_parser=(
                None if record_parser is not None else self._batch_parser_from_conf(conf)
            ),
        )
        dataset, stats = job.ingest()
        return self._train(trainer, command, args, dataset, stats, conf)

    def train_local(
        self,
        command: str,
        args: dict | None,
        dataset: Dataset,
        conf: JobConf | None = None,
    ) -> MLJobResult:
        """Train on an already-built Dataset — no ingest, no ``ml.ingest``
        accounting.  This is the §6 lineage-replay entry point: the pipeline
        rebuilds the exact streamed partition layout and retrains."""
        trainer = self.trainer(command)
        conf = conf or JobConf()
        stats = IngestStats(
            records=dataset.count(), num_splits=dataset.num_partitions
        )
        return self._train(trainer, command, dict(args or {}), dataset, stats, conf)

    # ------------------------------------------------------------- internals

    def _train(
        self,
        trainer: Callable,
        command: str,
        args: dict,
        dataset: Dataset,
        stats: IngestStats,
        conf: JobConf,
    ) -> MLJobResult:
        """Run the trainer, retrying in place via checkpoint resume (§6)."""
        checkpointer = self._make_checkpointer(command, conf)
        if checkpointer is not None:
            args = dict(args, checkpoint=checkpointer)
        can_resume = checkpointer is not None and checkpointer.can_resume
        max_retries = int(conf.get("train.retries", 1 if can_resume else 0))
        recovery = self._recovery_from_conf(conf)
        attempts = 0
        while True:
            attempts += 1
            try:
                model = trainer(dataset, args)
                break
            except MLError as exc:
                if not can_resume or attempts > max_retries:
                    raise
                if recovery is not None:
                    recovery.record_ml_recovery(
                        checkpointer.job_id, "resume_checkpoint", str(exc)
                    )
        return MLJobResult(
            command=command.lower(),
            dataset=dataset,
            ingest_stats=stats,
            model=model,
            train_attempts=attempts,
            resumed_from_iteration=(
                checkpointer.restored_iteration if checkpointer is not None else None
            ),
        )

    def _make_checkpointer(self, command: str, conf: JobConf):
        """Build the per-job iteration hooks, when anything needs them.

        A full checkpointer needs an attached store and a positive interval
        (``checkpoint.interval`` property overrides the system default); a
        store-less one is still created when an enabled injector is present,
        so the ``ml.iteration_kill`` chaos site fires even for runs testing
        the no-checkpoint recovery tiers — or when the session carries an
        *armed* budget, because the iteration hook is also where trainers
        observe cancellation and deadlines between iterations.
        """
        interval = int(conf.get("checkpoint.interval", self.checkpoint_interval))
        store = self.checkpoint_store if interval > 0 else None
        injector = self.fault_injector or conf.get_object("fault.injector")
        if injector is not None and not injector.enabled:
            injector = None
        # An unbounded, uncancelled budget still gets the hook: it can be
        # cancelled later, and this is where the trainer would notice.
        budget = conf.get_object("budget")
        if store is None and injector is None and budget is None:
            return None
        from repro.checkpoint import TrainCheckpointer

        job_id = str(conf.get("checkpoint.job_id") or f"mljob_{command.lower()}")
        return TrainCheckpointer(
            job_id=job_id,
            store=store,
            interval=interval if interval > 0 else 1,
            injector=injector,
            budget=budget,
        )

    @staticmethod
    def _recovery_from_conf(conf: JobConf):
        """The RecoveryManager reachable from this job's conf, if any."""
        recovery = conf.get_object("recovery")
        if recovery is not None:
            return recovery
        coordinator = conf.get_object("coordinator")
        return getattr(coordinator, "recovery", None)

    @staticmethod
    def _batch_parser_from_conf(conf: JobConf) -> Callable | None:
        """The ingest's ColumnBatch -> (X, y) kernel for the job's
        ``record.format`` property: ``labeled_csv`` (the label at
        ``label.index``, default last, less ``label.offset``), ``vector_csv``
        (every field a feature), or ``raw`` (None: records as read)."""
        record_format = conf.get("record.format", "labeled_csv")
        if record_format == "raw":
            return None
        if record_format == "labeled_csv":
            label_index = int(conf.get("label.index", -1))
            # Recoded categorical labels arrive as 1..K; binary trainers want
            # 0/1, so pipelines set label.offset=1 for recoded labels.
            label_offset = float(conf.get("label.offset", 0.0))
        elif record_format == "vector_csv":
            label_index, label_offset = None, 0.0
        else:
            raise MLError(f"unknown record.format {record_format!r}")
        return lambda batch: batch_to_xy(batch, label_index, label_offset)
