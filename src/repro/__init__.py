"""repro — a full reproduction of *"A Generic Solution to Integrate SQL and
Analytics for Big Data"* (Katsipoulakis et al., EDBT 2015).

The paper connects big SQL systems with big ML systems through three
techniques: In-SQL data transformation via parallel table UDFs (§2),
coordinator-brokered parallel streaming data transfer (§3, with a query
rewriter, §4), and caching of transformation results (§5).  This package
implements those techniques **and every substrate they run on** — a
partition-parallel SQL engine, a replicated distributed file system, a
MapReduce framework, Hadoop-style InputFormats, and an MLlib-like ML system
with from-scratch algorithms.

Quickstart::

   from repro import make_deployment
   from repro.workloads import generate_retail

   dep = make_deployment()
   wl = generate_retail(dep.engine, dep.dfs, num_users=500, num_carts=5_000)
   result = dep.pipeline.run_insql_stream(
       wl.prep_sql, wl.spec, command="svm_with_sgd", args={"iterations": 10}
   )
   print(result.breakdown())
   print(result.ml_result.model)

See DESIGN.md for the architecture map and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from dataclasses import dataclass

from repro.cluster.cluster import Cluster, make_paper_cluster
from repro.cluster.cost import CostModel, paper_cost_model
from repro.hdfs.filesystem import DistributedFileSystem
from repro.integration.pipeline import AnalyticsPipeline
from repro.integration.stages import PipelineResult
from repro.ml.system import MLSystem
from repro.sql.engine import BigSQL
from repro.transfer.coordinator import Coordinator
from repro.transform.spec import TransformSpec

__version__ = "1.0.0"

__all__ = [
    "AnalyticsPipeline",
    "BigSQL",
    "Cluster",
    "CostModel",
    "Deployment",
    "DistributedFileSystem",
    "MLSystem",
    "PipelineResult",
    "TransformSpec",
    "make_deployment",
    "make_paper_cluster",
    "paper_cost_model",
]


@dataclass
class Deployment:
    """One fully wired SQL+ML deployment on a simulated cluster."""

    cluster: Cluster
    dfs: DistributedFileSystem
    engine: BigSQL
    ml: MLSystem
    coordinator: Coordinator
    pipeline: AnalyticsPipeline
    #: the CoordinatorHAGroup when ``ha_standbys > 0`` (else None); its
    #: ``failovers`` / ``journal_dump()`` are the HA observability surface
    ha: object = None

    @property
    def broker(self):
        """The Kafka-like message broker (the §8 transfer alternative)."""
        return self.pipeline.broker


def make_deployment(
    num_workers: int = 4,
    block_size: int = 4 * 1024 * 1024,
    replication: int = 3,
    cost_model: CostModel | None = None,
    buffer_bytes: int = 4096,
    batch_rows: int = 256,
    columnar: bool = False,  # ignored; see below
    workers_per_node: int = 6,
    transport: str = "memory",
    fault_injector=None,  # FaultInjector | None (§6 chaos testing)
    recovery=None,  # RecoveryManager | None (§6 recovery protocol)
    checkpoint_interval: int = 0,  # iterations between saves; 0 = off
    ha_standbys: int = 0,  # standby coordinators; 0 = single coordinator
    max_concurrent_sessions: int = 1,  # >1 turns on multi-tenant serving
    tenant_quotas: dict | None = None,  # tenant -> max concurrent sessions
    admission_queue_depth: int = 64,  # bounded FIFO behind the quota gate
    tenant_priorities: dict | None = None,  # tenant -> shed priority (higher wins)
    default_deadline_s: float | None = None,  # end-to-end session budget; None = off
    retry_budget_tokens: int | None = None,  # deployment-wide retry allowance
    clock=None,  # repro.sim.clock.Clock | None — deployment-wide time source
    dfs_capacity_bytes: int | None = None,  # per-DataNode disk capacity
) -> Deployment:
    """Build the paper's testbed topology, fully wired.

    1 head + ``num_workers`` worker servers; a DFS with the given block size
    and replication; a BigSQL engine; an ML system with
    ``workers_per_node`` slots per server; a transfer coordinator with the
    paper's 4 KB buffers; and an :class:`AnalyticsPipeline` on top.

    ``transport`` selects the byte pipe under every stream channel:
    ``"memory"`` (a thread-safe spillable buffer, the default) or
    ``"socket"`` (one kernel socket pair per SQL worker, §3's literal TCP
    step, shared by that worker's channels as tagged streams).  Framing,
    byte accounting, replay dedup and abort/cancel live in the one channel
    class above the pipe and are identical on both.

    There is one SQL engine and one stream sink (DESIGN §10).  Every
    executor runs vector kernels over typed ColumnBatch partitions; an
    expression, UDF or column without a kernel falls back per partition to
    the tuple evaluator (one ``columnar.fallback`` tick each), never fails.
    :class:`~repro.transfer.stream_udf.StreamTransferUDF` cuts each SQL
    worker's batch into ``C`` frames of ``batch_rows`` rows, charged at the
    batch's typed ``logical_bytes`` (priced on the pickled basis, see
    ``STREAM_BYTES_PER_PICKLED_BYTE``); ``batch_rows`` is also the rows per broker record, and
    ledger bytes are the same at every setting.  ML jobs build (X, y)
    arrays through one kernel, ``batch_to_xy``.  ``columnar=`` is accepted
    and ignored: it used to pick a row-frame sink, and it goes (ROADMAP
    1(d)) once the benchmark harness no longer passes it.

    Every feature below is off by default, and off leaves the fault-free
    Figure 3/4 byte ledgers bit-identical:

    * ``fault_injector`` / ``recovery``: the §6 fault-tolerance stack
      (DESIGN §7), a seeded :class:`~repro.faults.injector.FaultInjector`
      and/or a :class:`~repro.faults.recovery.RecoveryManager` (heartbeats,
      send retries, coordinated partial restart); an injector alone is
      wrapped in a default RecoveryManager.
    * ``checkpoint_interval > 0``: resumable training (DESIGN §8), a
      :class:`~repro.checkpoint.CheckpointStore` under ``/checkpoints``
      snapshots iterative-model state every that-many iterations.
    * ``ha_standbys > 0``: coordinator high availability (DESIGN §9), a
      :class:`~repro.transfer.ha.CoordinatorHAGroup` leader plus standbys
      behind a ZooKeeperLite lease; ``deployment.coordinator`` becomes the
      :class:`~repro.transfer.ha.FailoverCoordinator` proxy.
    * ``max_concurrent_sessions > 1`` (or any ``tenant_quotas`` /
      ``tenant_priorities``): multi-tenant serving (DESIGN §11), a
      :class:`~repro.transfer.admission.SessionAdmission` gate with a
      bounded FIFO queue of ``admission_queue_depth`` in front of
      ``create_session`` and a
      :class:`~repro.transfer.admission.WorkerPoolScheduler` leasing the
      shared ML worker slots fairly.
    * ``default_deadline_s``: an end-to-end session budget (DESIGN §12)
      every blocking wait derives its timeout from, raising the typed
      :class:`~repro.common.errors.DeadlineExceeded`; per session through
      ``create_session(..., deadline_s=...)`` or ``stream.deadline_s``.
      ``tenant_priorities`` ranks tenants for queue load shedding;
      ``retry_budget_tokens`` installs the deployment-wide
      :class:`~repro.runtime.budget.RetryTokenBucket` every retry site
      draws from.
    * ``clock``: a :class:`~repro.sim.clock.Clock` for every timing site of
      the serving plane; ``None`` means :data:`~repro.sim.clock.WALL`.  The
      chaos harness passes a :class:`~repro.sim.clock.VirtualClock`
      (DESIGN §13).
    * ``dfs_capacity_bytes``: finite per-DataNode disks (DESIGN §14) whose
      overflow raises :class:`~repro.common.errors.StorageFullError`;
      ``deployment.dfs.run_repair_cycle()`` runs one heartbeat, scrub and
      re-replication pass.
    """
    from repro.sim.clock import WALL

    clock = clock or WALL
    cluster = make_paper_cluster(num_workers)
    # The DFS needs the injector at construction (DataNodes bind their
    # fault sites once); accept it from either the explicit argument or a
    # caller-built RecoveryManager.
    storage_injector = fault_injector or (
        getattr(recovery, "injector", None) if recovery is not None else None
    )
    dfs = DistributedFileSystem(
        cluster,
        block_size=block_size,
        replication=replication,
        fault_injector=storage_injector,
        clock=clock,
        capacity_bytes=dfs_capacity_bytes,
    )
    engine = BigSQL(cluster, dfs)
    if clock is not WALL:
        # Table-UDF workers and executor tasks look the clock up through
        # ExecutionContext.services to register as simulation-managed.
        engine.add_service("clock", clock)
    ml = MLSystem(cluster, workers_per_node=workers_per_node)
    admission = worker_pool = None
    multitenant = max_concurrent_sessions > 1 or tenant_quotas or tenant_priorities
    retry_budget = None
    if retry_budget_tokens is not None:
        from repro.runtime.budget import RetryTokenBucket

        retry_budget = RetryTokenBucket(
            capacity=retry_budget_tokens,
            ledger=cluster.ledger,
            clock=clock,
        )
    if multitenant:
        from repro.transfer.admission import SessionAdmission, WorkerPoolScheduler

        admission = SessionAdmission(
            max_concurrent_sessions=max_concurrent_sessions,
            tenant_quotas=tenant_quotas,
            max_queue_depth=admission_queue_depth,
            ledger=cluster.ledger,
            tenant_priorities=tenant_priorities,
            clock=clock,
        )
        worker_pool = WorkerPoolScheduler(
            total_slots=num_workers * workers_per_node,
            ledger=cluster.ledger,
            clock=clock,
        )
    ha_group = None
    if ha_standbys > 0:
        from repro.transfer.ha import CoordinatorHAGroup

        ha_group = CoordinatorHAGroup(
            cluster,
            standbys=ha_standbys,
            buffer_bytes=buffer_bytes,
            batch_rows=batch_rows,
            transport=transport,
            recovery=recovery,
            fault_injector=fault_injector,
            admission=admission,
            worker_pool=worker_pool,
            retry_budget=retry_budget,
            default_deadline_s=default_deadline_s,
            clock=clock,
        )
        coordinator = ha_group.proxy
    else:
        coordinator = Coordinator(
            cluster,
            buffer_bytes=buffer_bytes,
            batch_rows=batch_rows,
            transport=transport,
            recovery=recovery,
            fault_injector=fault_injector,
            admission=admission,
            worker_pool=worker_pool,
            retry_budget=retry_budget,
            default_deadline_s=default_deadline_s,
            clock=clock,
        )
    effective_injector = fault_injector or (
        coordinator.recovery.injector if coordinator.recovery is not None else None
    )
    ml.fault_injector = effective_injector
    if checkpoint_interval > 0:
        from repro.checkpoint import CheckpointStore

        ml.checkpoint_store = CheckpointStore(
            dfs,
            base_dir="/checkpoints",
            ledger=cluster.ledger,
            injector=effective_injector,
        )
        ml.checkpoint_interval = checkpoint_interval
    pipeline = AnalyticsPipeline(
        cluster=cluster,
        dfs=dfs,
        engine=engine,
        ml_system=ml,
        coordinator=coordinator,
        cost_model=cost_model,
    )
    return Deployment(
        cluster=cluster,
        dfs=dfs,
        engine=engine,
        ml=ml,
        coordinator=coordinator,
        pipeline=pipeline,
        ha=ha_group,
    )
