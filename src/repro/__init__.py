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
    columnar: bool = False,
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
    ``"socket"`` (one real kernel socket pair per SQL worker with a
    non-blocking sender — §3's literal TCP step — shared by that worker's
    channels as tagged streams).  Framing, byte accounting, replay dedup
    and abort/cancel semantics live in the one channel class above the
    pipe and are identical on both.

    ``batch_rows`` sets the block size of the row transfer stack — how many
    rows travel per frame/lock acquisition on every stream channel and
    broker record.  ``batch_rows=1`` sends one-row frames; ledger bytes are
    the same at every setting.

    There is one SQL engine: every deployment's executor runs vectorized
    kernels over typed ColumnBatch partitions (a value the typed storage
    cannot hold makes an ``object`` column of Python values), and an
    expression, UDF or column without a kernel falls back per partition to
    the tuple evaluator (one ``columnar.fallback`` tick each; a join keyed
    through Python values, one per statement), never fails.  ``columnar=`` selects
    only the wire, by the stream sink the pipeline registers.  With
    ``True`` it is
    :class:`~repro.transfer.stream_udf.ColumnarStreamTransferUDF`, which
    frames each channel's slice of the batch as one ``C`` frame.  Off by
    default — the sink sends the batch's rows as ``R`` frames, whose
    pickled bytes keep the Figure 3/4 ledgers bit-identical to the seed;
    moving the default to ``C`` frames waits on one byte basis for both
    frame kinds.  The ingest is the same either way: ML jobs build (X, y)
    arrays through one kernel, ``batch_to_xy``, from a ``C`` frame's batch,
    an ``R`` frame's block pivoted once, or a DFS text split cut by the SQL
    scan's byte kernel (an :class:`~repro.ml.dataset.ArrayDataset`).

    ``fault_injector`` / ``recovery`` install the §6 fault-tolerance stack:
    a seeded :class:`~repro.faults.injector.FaultInjector` (chaos source)
    and/or a :class:`~repro.faults.recovery.RecoveryManager` (heartbeats,
    send retries, coordinated partial restart).  Passing only an injector
    wraps it in a default RecoveryManager.

    ``checkpoint_interval > 0`` turns on §6 resumable training: a
    :class:`~repro.checkpoint.CheckpointStore` on the DFS (under
    ``/checkpoints``) snapshots iterative-model
    state every that-many iterations.  Off by default — the fault-free byte
    ledgers of Figures 3/4 stay bit-identical unless opted in.

    ``ha_standbys > 0`` turns on coordinator high availability: a
    :class:`~repro.transfer.ha.CoordinatorHAGroup` runs one leader plus
    that many standbys behind a ZooKeeperLite lease, every session mutation is
    journaled to ZK, and ``deployment.coordinator`` becomes the
    :class:`~repro.transfer.ha.FailoverCoordinator` proxy clients retry
    through after a takeover.  Off by default — no journal traffic, byte
    ledgers bit-identical to the single-coordinator deployment.

    ``max_concurrent_sessions > 1`` (or any ``tenant_quotas`` /
    ``tenant_priorities``) turns on multi-tenant serving: a
    :class:`~repro.transfer.admission.SessionAdmission` gate with per-tenant
    quotas and a bounded FIFO queue in front of ``create_session``, a
    :class:`~repro.transfer.admission.WorkerPoolScheduler` leasing the
    shared ML worker slots fairly across live sessions.  The
    default (1, None, None) is the seed single-session behavior: none of
    the objects exist, no new ledger categories are emitted, and the
    fault-free Figure 3/4 byte totals stay bit-identical.

    ``default_deadline_s`` arms every session with an end-to-end budget:
    one clock that every blocking wait (admission, worker slots,
    channel receives, broker fetches, the result wait) derives its
    timeout from, raising the typed, non-retryable
    :class:`~repro.common.errors.DeadlineExceeded` when spent — instead of
    the stacked per-layer defaults.  Per-session override:
    ``create_session(..., deadline_s=...)`` or the ``stream.deadline_s``
    conf prop.  ``tenant_priorities`` ranks tenants for admission-queue
    load shedding (lower-priority waiters are shed first when the queue is
    full); ``retry_budget_tokens`` installs a deployment-wide
    :class:`~repro.runtime.budget.RetryTokenBucket` that every retry site
    (HA failover proxy, broker producer appends, consumer refetches) draws
    from, so retries fail fast under overload instead of amplifying it.
    All three default to off — seed behavior, byte ledgers bit-identical.

    ``clock`` injects a :class:`~repro.sim.clock.Clock` into every timing
    site of the serving plane (budgets, retries, admission queues, channel
    timeouts, liveness sweeps).  ``None`` (the default) means
    :data:`~repro.sim.clock.WALL` — real time, byte-identical behavior.
    The chaos harness (:mod:`repro.sim.chaos`) passes a
    :class:`~repro.sim.clock.VirtualClock` so multi-second fault scenarios
    run deterministically in milliseconds (DESIGN §13).

    ``dfs_capacity_bytes`` gives the self-healing storage plane (DESIGN
    §14) finite per-DataNode disks whose overflow raises the typed
    :class:`~repro.common.errors.StorageFullError` (redirected by the write
    pipeline, laddered by spill buffers and checkpoint commits); off by
    default.  ``deployment.dfs.run_repair_cycle()`` runs the
    :class:`~repro.hdfs.scanner.StorageScanner` once: it pumps
    clock-injected heartbeats, scrubs replica checksums, and re-replicates
    under-replicated blocks.
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
        columnar=columnar,
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
