"""The end-to-end analytics pipeline: SQL -> transform -> transfer -> ML."""

import itertools
import pickle
import time

import numpy as np

from repro.broker.broker import MessageBroker
from repro.broker.inputformat import BrokerInputFormat
from repro.broker.transfer_udf import BrokerTransferUDF
from repro.cluster.cluster import Cluster
from repro.cluster.cost import CostModel, paper_cost_model
from repro.common.errors import (
    DeadlineExceeded,
    IngestError,
    MLError,
    ReproError,
    SessionCancelled,
)
from repro.hdfs.filesystem import DistributedFileSystem
from repro.integration.jaql import JaqlEngine
from repro.integration.stages import DatasetLineage, PipelineResult, StageTiming
from repro.iofmt.inputformat import JobConf
from repro.iofmt.text import CsvInputFormat
from repro.caching.cache import CacheManager
from repro.columnar.batch import ColumnBatch
from repro.ml.dataset import ArrayDataset
from repro.ml.system import MLJobResult, MLSystem
from repro.rewriter.rewriter import QueryRewriter, RewritePlan
from repro.sql.engine import BigSQL
from repro.sql.executor import DistRelation
from repro.sql.types import DataType, Schema
from repro.transfer.coordinator import Coordinator
from repro.transfer.launcher import connect
from repro.transfer.stream_udf import ColumnarStreamTransferUDF, StreamTransferUDF
from repro.transform.dummy import DummyCodeUDF
from repro.transform.effect import EffectCodeUDF, OrthogonalCodeUDF
from repro.transform.recode import LocalDistinctUDF, RecodeMap, RecodeUDF
from repro.transform.service import TransformService
from repro.transform.spec import TransformSpec

_run_counter = itertools.count(1)


class AnalyticsPipeline:
    """One integrated SQL+ML deployment, offering all connection strategies.

    ``byte_scale`` converts observed byte counts to paper scale: generate a
    scaled-down workload, set ``byte_scale`` to (paper bytes / generated
    bytes), and every simulated stage time comes out in paper-scale seconds.
    ``columnar`` registers the stream sink that sends ``C`` frames.
    """

    def __init__(
        self,
        cluster: Cluster,
        dfs: DistributedFileSystem,
        engine: BigSQL,
        ml_system: MLSystem,
        coordinator: Coordinator | None = None,
        cost_model: CostModel | None = None,
        byte_scale: float = 1.0,
        workdir: str = "/pipeline",
        columnar: bool = False,
    ):
        self.cluster = cluster
        self.dfs = dfs
        self.engine = engine
        self.ml_system = ml_system
        self.cost = cost_model or paper_cost_model()
        self.byte_scale = byte_scale
        self.workdir = workdir.rstrip("/")

        self.coordinator = coordinator or Coordinator(cluster)
        connect(self.coordinator, ml_system)
        engine.add_service("coordinator", self.coordinator)
        # §6: let the training-stage chaos sites (ml.iteration_kill,
        # checkpoint.*) reach the ML system even when it was constructed
        # before the fault machinery.
        if (
            getattr(ml_system, "fault_injector", None) is None
            and self.coordinator.recovery is not None
        ):
            ml_system.fault_injector = self.coordinator.recovery.injector

        self.broker = MessageBroker(
            ledger=cluster.ledger,
            clock=getattr(self.coordinator, "clock", None),
        )
        engine.add_service("broker", self.broker)
        if getattr(self.coordinator, "retry_budget", None) is not None:
            # Optional engine service: broker producers gate their append
            # retries on the deployment-wide retry token bucket.
            engine.add_service("retry_budget", self.coordinator.retry_budget)

        self.transforms = TransformService()
        self.cache = CacheManager(engine, self.transforms)
        self.rewriter = QueryRewriter(engine, self.transforms, cache=self.cache)
        self.rewriter_no_cache = QueryRewriter(engine, self.transforms, cache=None)
        self.jaql = JaqlEngine(cluster, dfs)

        for udf in (
            LocalDistinctUDF(),
            RecodeUDF(self.transforms),
            DummyCodeUDF(self.transforms),
            EffectCodeUDF(self.transforms),
            OrthogonalCodeUDF(self.transforms),
            ColumnarStreamTransferUDF() if columnar else StreamTransferUDF(),
            BrokerTransferUDF(),
        ):
            engine.register_table_udf(udf)

    # ----------------------------------------------------------------- naive

    def run_naive(
        self, user_sql: str, spec: TransformSpec, command: str, args: dict | None = None
    ) -> PipelineResult:
        """Figure 3 "naive": SQL -> DFS -> Jaql/MR -> DFS -> ML reads DFS."""
        run_id = next(_run_counter)
        result = PipelineResult(approach="naive")

        # Stage 1 (prep): run the query and materialize its result as text.
        before = self.cluster.ledger.snapshot()
        t0 = time.perf_counter()
        relation = self.engine.execute_distributed(user_sql)
        prep_dir = f"{self.workdir}/naive_{run_id}/prep"
        text_bytes = self._write_result_csv(relation, prep_dir)
        wall = time.perf_counter() - t0
        scan = self._delta(before, "sql.scan")
        result.stages.append(
            StageTiming(
                name="prep",
                sim_seconds=max(
                    self.cost.sql_scan_time(scan * self.byte_scale)
                    + self.cost.sql_output_time(text_bytes * self.byte_scale),
                    self.cost.dfs_write_time(text_bytes * self.byte_scale),
                ),
                wall_seconds=wall,
                bytes_in=scan * self.byte_scale,
                bytes_out=text_bytes * self.byte_scale,
            )
        )

        # Stage 2 (trsfm): the third-party Jaql/MapReduce hop.
        t0 = time.perf_counter()
        out_dir = f"{self.workdir}/naive_{run_id}/transformed"
        jaql_result = self.jaql.transform(prep_dir, out_dir, relation.schema, spec)
        wall = time.perf_counter() - t0
        transformed_bytes = self.dfs.total_size(out_dir)
        result.stages.append(
            StageTiming(
                name="trsfm",
                sim_seconds=(
                    self.cost.mr_pass_time(text_bytes * self.byte_scale, 0.0)
                    + self.cost.mr_pass_time(
                        text_bytes * self.byte_scale,
                        transformed_bytes * self.byte_scale,
                    )
                ),
                wall_seconds=wall,
                bytes_in=text_bytes * self.byte_scale,
                bytes_out=transformed_bytes * self.byte_scale,
            )
        )

        # Stage 3 (input for ml) + training.
        label_index, label_offset = self._label_position_after_transform(
            relation.schema, spec, jaql_result.recode_map
        )
        conf = JobConf(
            dict(
                self._ml_conf_props(label_index, label_offset),
                **{"input.path": out_dir},
            ),
            dfs=self.dfs,
        )
        ml_result, ingest_stage, train_stage = self._run_ml_from_dfs(
            command, args, conf, transformed_bytes
        )
        result.stages.append(ingest_stage)
        result.stages.append(train_stage)
        result.ml_result = ml_result
        return result

    # ----------------------------------------------------------------- insql

    def run_insql(
        self,
        user_sql: str,
        spec: TransformSpec,
        command: str,
        args: dict | None = None,
        use_cache: bool = False,
    ) -> PipelineResult:
        """Figure 3 "insql": UDF transformation pipelined with the query;
        the transformed result takes one DFS hop to the ML system."""
        run_id = next(_run_counter)
        plan = self._plan(user_sql, spec, use_cache)
        result = PipelineResult(approach="insql", rewrite_kind=plan.kind)

        pass1_stage = self._run_pass1(plan, spec)
        if pass1_stage is not None:
            result.stages.append(pass1_stage)

        before = self.cluster.ledger.snapshot()
        t0 = time.perf_counter()
        relation = self.engine.execute_distributed(plan.inner_sql)
        out_dir = f"{self.workdir}/insql_{run_id}/transformed"
        text_bytes = self._write_result_csv(relation, out_dir)
        wall = time.perf_counter() - t0
        scan = self._delta(before, "sql.scan")
        result.stages.append(
            StageTiming(
                name="prep+trsfm",
                sim_seconds=max(
                    self.cost.sql_scan_time(scan * self.byte_scale)
                    + self.cost.sql_output_time(text_bytes * self.byte_scale),
                    self.cost.dfs_write_time(text_bytes * self.byte_scale),
                ),
                wall_seconds=wall,
                bytes_in=scan * self.byte_scale,
                bytes_out=text_bytes * self.byte_scale,
            )
        )

        label_index, label_offset = self._label_position_from_plan(plan, spec)
        conf = JobConf(
            dict(
                self._ml_conf_props(label_index, label_offset),
                **{"input.path": out_dir},
            ),
            dfs=self.dfs,
        )
        ml_result, ingest_stage, train_stage = self._run_ml_from_dfs(
            command, args, conf, text_bytes
        )
        result.stages.append(ingest_stage)
        result.stages.append(train_stage)
        result.ml_result = ml_result
        result.lineage = DatasetLineage(
            approach="insql",
            user_sql=plan.user_query.to_sql(),
            rewrite_kind=plan.kind,
            inner_sql=plan.inner_sql,
            pass1_sql=plan.pass1_sql,
            map_handle=plan.map_handle,
            cached_view=plan.cached_view,
            spec=spec,
            command=command,
            args=dict(args or {}),
            job_id=f"mljob_{run_id}",
            cache_state=(
                self.cache.peek_kind(plan.user_query, spec) if use_cache else None
            ),
        )
        ml_result.lineage = result.lineage
        result.transform_stats = {
            "unseen_nulled": self._delta(before, "transform.unseen_nulled"),
            "rows_skipped": self._delta(before, "transform.rows_skipped"),
        }
        return result

    # ---------------------------------------------------------- insql+stream

    def run_insql_stream(
        self,
        user_sql: str,
        spec: TransformSpec,
        command: str,
        args: dict | None = None,
        use_cache: bool = False,
        max_attempts: int = 1,
        degrade_to_dfs: bool = False,
        tenant: str = "default",
        deadline_s: float | None = None,
    ) -> PipelineResult:
        """Figure 3 "insql+stream": everything pipelined, no DFS touch.

        ``deadline_s`` puts the whole run under one end-to-end budget: every
        blocking wait from the admission queue to the result wait derives
        from it, and an expired or cancelled session surfaces as the typed,
        *non-retryable* :class:`~repro.common.errors.DeadlineExceeded` /
        :class:`~repro.common.errors.SessionCancelled` — the attempt loop
        and the degrade tier below never retry a session whose budget is
        spent (a retry would just expire again, amplifying the overload).

        ``max_attempts > 1`` enables §6's recovery policy for streaming:
        since neither side supports mid-query recovery, a failed transfer
        restarts the *whole* pipeline from scratch ("the whole integration
        pipeline has to be restarted from scratch in case of a failure") —
        with a fresh session, up to the attempt budget.  (With a
        :class:`~repro.faults.recovery.RecoveryManager` installed on the
        coordinator, failures first go through the cheaper partial-restart
        tier; only exhausted budgets surface here.)

        ``degrade_to_dfs=True`` adds the last §6 tier: when every streaming
        attempt fails, fall back to the materialize-to-DFS path
        (:meth:`run_insql`) — slower but independent of the streaming
        machinery.  The returned result then has ``degraded_from`` set.
        """
        run_id = next(_run_counter)
        plan = self._plan(user_sql, spec, use_cache)
        result = PipelineResult(approach="insql+stream", rewrite_kind=plan.kind)

        pass1_stage = self._run_pass1(plan, spec)
        if pass1_stage is not None:
            result.stages.append(pass1_stage)

        label_index, label_offset = self._label_position_from_plan(plan, spec)
        job_id = f"mljob_{run_id}"
        # checkpoint.job_id is pinned per pipeline run (not per attempt), so
        # a full-pipeline restart resumes from the previous attempt's saves.
        conf_props = dict(
            self._ml_conf_props(label_index, label_offset),
            **self._checkpoint_props(job_id),
        )
        lineage = DatasetLineage(
            approach="insql+stream",
            user_sql=plan.user_query.to_sql(),
            rewrite_kind=plan.kind,
            inner_sql=plan.inner_sql,
            pass1_sql=plan.pass1_sql,
            map_handle=plan.map_handle,
            cached_view=plan.cached_view,
            spec=spec,
            command=command,
            args=dict(args or {}),
            job_id=job_id,
            cache_state=(
                self.cache.peek_kind(plan.user_query, spec) if use_cache else None
            ),
        )
        result.lineage = lineage

        attempt = 0
        before = self.cluster.ledger.snapshot()
        t0 = time.perf_counter()
        while True:
            attempt += 1
            session_id = f"session_{run_id}_a{attempt}"
            self.coordinator.create_session(
                session_id,
                command=command,
                args=dict(args or {}),
                conf_props=conf_props,
                tenant=tenant,
                deadline_s=deadline_s,
            )
            try:
                self.engine.execute(plan.final_sql(session_id))
                ml_result: MLJobResult = self.coordinator.wait_result(session_id)
                break
            except ReproError as exc:
                # Budget outcomes are terminal: no ladder tier, no fresh
                # attempt, no DFS degradation — re-raise typed immediately.
                if self._is_budget_failure(exc):
                    raise
                # §6 ML-stage ladder: a *training* fault (data fully
                # delivered) can be recovered without re-streaming — replay
                # the lineage.  Ingest/transfer faults fall through to the
                # full-restart attempt loop below, unchanged.
                recovered = self._recover_ml_stage(
                    exc, lineage, spec, command, args, conf_props, result
                )
                if recovered is not None:
                    ml_result = recovered
                    break
                if attempt >= max_attempts:
                    if degrade_to_dfs:
                        fallback = self.run_insql(
                            user_sql, spec, command, args=args, use_cache=use_cache
                        )
                        fallback.attempts = attempt
                        fallback.degraded_from = "insql+stream"
                        return fallback
                    raise
            finally:
                self.coordinator.close_session(session_id)
        wall = time.perf_counter() - t0
        result.attempts = attempt
        result.failovers = self._delta(before, "coordinator.failover")
        if result.ml_recovery_tier is None and ml_result.train_attempts > 1:
            # The cheapest tier ran *inside* the ML system: training crashed
            # and resumed in place from its checkpoint.
            result.ml_recovery_tier = "resume_checkpoint"

        scan = self._delta(before, "sql.scan")
        streamed = self._delta(before, "stream.sent")
        result.stages.append(
            StageTiming(
                name="prep+trsfm+input",
                sim_seconds=max(
                    self.cost.sql_scan_time(scan * self.byte_scale)
                    + self.cost.sql_output_time(streamed * self.byte_scale),
                    self.cost.ml_stream_ingest_time(streamed * self.byte_scale),
                ),
                wall_seconds=wall,
                bytes_in=scan * self.byte_scale,
                bytes_out=streamed * self.byte_scale,
            )
        )
        result.stages.append(
            self._train_stage(ml_result, streamed, args)
        )
        result.ml_result = ml_result
        ml_result.lineage = lineage
        result.transform_stats = {
            "unseen_nulled": self._delta(before, "transform.unseen_nulled"),
            "rows_skipped": self._delta(before, "transform.rows_skipped"),
        }
        return result

    # ---------------------------------------------------------- insql+broker

    def run_insql_broker(
        self,
        user_sql: str,
        spec: TransformSpec,
        command: str,
        args: dict | None = None,
        use_cache: bool = False,
        consumer_group: str = "ml",
        keep_topic: bool = False,
    ) -> PipelineResult:
        """§8's future-work alternative: transfer through a Kafka-like broker.

        The SQL side produces the transformed rows into a topic (one
        partition per ML consumer slot); the ML job then ingests through
        :class:`BrokerInputFormat`.  Compared to ``run_insql_stream`` this
        decouples the two systems in time and adds at-least-once recovery
        and replayability (``keep_topic=True`` retains the topic so further
        ML jobs can re-read it — the broker-as-cache use).

        Returns the result with the topic name in ``ml_result``'s conf via
        ``result.broker_topic``.
        """
        run_id = next(_run_counter)
        plan = self._plan(user_sql, spec, use_cache)
        result = PipelineResult(approach="insql+broker", rewrite_kind=plan.kind)

        pass1_stage = self._run_pass1(plan, spec)
        if pass1_stage is not None:
            result.stages.append(pass1_stage)

        topic = f"transfer_{run_id}"
        self.broker.create_topic(topic, self.ml_system.default_parallelism)
        label_index, label_offset = self._label_position_from_plan(plan, spec)

        # Phase 1: SQL produces into the topic (pipelined with the query).
        before = self.cluster.ledger.snapshot()
        t0 = time.perf_counter()
        self.engine.execute(
            f"SELECT * FROM TABLE(broker_transfer(({plan.inner_sql}), "
            f"'{topic}', {self.coordinator.batch_rows})) AS __broker"
        )
        produce_wall = time.perf_counter() - t0
        scan = self._delta(before, "sql.scan")
        produced = self._delta(before, "broker.in")
        result.stages.append(
            StageTiming(
                name="prep+trsfm+produce",
                sim_seconds=max(
                    self.cost.sql_scan_time(scan * self.byte_scale)
                    + self.cost.sql_output_time(produced * self.byte_scale),
                    self.cost.broker_hop_time(produced * self.byte_scale),
                ),
                wall_seconds=produce_wall,
                bytes_in=scan * self.byte_scale,
                bytes_out=produced * self.byte_scale,
            )
        )

        # Phase 2: the ML job consumes — decoupled in time, so it does NOT
        # overlap with the production phase (that independence is the point
        # of the broker; the serialization is its performance price).
        conf = JobConf(
            dict(
                self._ml_conf_props(label_index, label_offset),
                **{"broker.topic": topic, "broker.group": consumer_group},
            ),
            broker=self.broker,
        )
        if self.coordinator.recovery is not None:
            # §6 chaos reaches the broker path too: consumers survive
            # injected duplicate/corrupt fetches via offset dedup + refetch.
            conf.objects["fault.injector"] = self.coordinator.recovery.injector
        retry_budget = getattr(self.coordinator, "retry_budget", None)
        if retry_budget is not None:
            # Shared retry allowance: corrupted-record refetches draw from
            # the same deployment-wide bucket as every other retry site.
            conf.objects["retry.budget"] = retry_budget
        t0 = time.perf_counter()
        ml_result = self.ml_system.run_job(
            command=command,
            args=args,
            input_format=BrokerInputFormat(),
            conf=conf,
        )
        consume_wall = time.perf_counter() - t0
        result.stages.append(
            StageTiming(
                name="consume+input",
                sim_seconds=max(
                    produced * self.byte_scale / self.cost.broker_bps,
                    self.cost.ml_stream_ingest_time(produced * self.byte_scale),
                ),
                wall_seconds=consume_wall,
                bytes_in=produced * self.byte_scale,
                bytes_out=produced * self.byte_scale,
            )
        )
        result.stages.append(self._train_stage(ml_result, produced, args))
        result.ml_result = ml_result
        result.broker_topic = topic
        if not keep_topic:
            self.broker.delete_topic(topic)
        return result

    # -------------------------------------------------------------- caching

    def populate_caches(
        self,
        user_sql: str,
        spec: TransformSpec,
        cache_recode_map: bool = True,
        cache_transformed: bool = False,
    ) -> dict:
        """Build and store the §5 cache artifacts for a query+spec.

        Returns {"map_handle": ..., "view_name": ... or None}.
        """
        plan = self.rewriter_no_cache.plan(user_sql, spec)
        rows = self.engine.query_rows(plan.pass1_sql) if plan.pass1_sql else []
        recode_map = RecodeMap.from_distinct_rows(rows)
        if cache_recode_map:
            handle = self.cache.store_recode_map(plan.user_query, spec, recode_map)
        else:
            handle = plan.map_handle
            self.transforms.register(handle, recode_map)

        view_name = None
        if cache_transformed:
            view_name = f"__cache_view_{next(_run_counter)}"
            base_sql = plan.user_query.to_sql()
            columns = ", ".join(f"'{c}'" for c in spec.all_recoded)
            recode_sql = (
                f"SELECT * FROM TABLE(recode(({base_sql}), '{handle}', {columns})) "
                "AS __recoded"
                if spec.all_recoded
                else base_sql
            )
            if not cache_recode_map:
                # the view still needs its map resolvable at read time
                self.transforms.register(handle, recode_map)
            self.engine.create_materialized_view(view_name, recode_sql)
            self.cache.store_transformed(plan.user_query, spec, view_name, handle)
        return {"map_handle": handle, "view_name": view_name}

    # ------------------------------------------------------------- internals

    def _plan(self, user_sql: str, spec: TransformSpec, use_cache: bool) -> RewritePlan:
        rewriter = self.rewriter if use_cache else self.rewriter_no_cache
        return rewriter.plan(user_sql, spec)

    def _run_pass1(self, plan: RewritePlan, spec: TransformSpec) -> StageTiming | None:
        """Recoding phase 1: distinct scan + global recode map assignment."""
        if not plan.needs_pass1:
            return None
        before = self.cluster.ledger.snapshot()
        t0 = time.perf_counter()
        rows = self.engine.query_rows(plan.pass1_sql)
        recode_map = RecodeMap.from_distinct_rows(rows)
        self.transforms.register(plan.map_handle, recode_map)
        wall = time.perf_counter() - t0
        scan = self._delta(before, "sql.scan")
        return StageTiming(
            name="recode pass 1",
            sim_seconds=self.cost.distinct_pass_time(scan * self.byte_scale),
            wall_seconds=wall,
            bytes_in=scan * self.byte_scale,
            bytes_out=0.0,
        )

    def _checkpoint_props(self, job_id: str) -> dict:
        """Checkpointing conf for one pipeline run (empty when it is off)."""
        interval = getattr(self.ml_system, "checkpoint_interval", 0)
        store = getattr(self.ml_system, "checkpoint_store", None)
        if store is None or interval <= 0:
            return {}
        return {"checkpoint.interval": interval, "checkpoint.job_id": job_id}

    @staticmethod
    def _is_budget_failure(exc: BaseException) -> bool:
        """Is a spent budget (deadline/cancel) anywhere in the cause chain?

        Wrapping happens at several layers (``wait_result`` re-raises typed,
        but an error surfacing through the SQL executor may arrive wrapped
        in a generic :class:`TransferError`), so the walk covers both
        ``__cause__`` and ``__context__`` exactly like the train-stage test
        below.
        """
        seen: set[int] = set()
        node: BaseException | None = exc
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, (DeadlineExceeded, SessionCancelled)):
                return True
            node = node.__cause__ or node.__context__
        return False

    @staticmethod
    def _is_train_stage_failure(exc: BaseException) -> bool:
        """Did this failure happen *after* the data was fully delivered?

        The ladder is only sound for training-stage faults: an
        :class:`IngestError` anywhere in the cause chain means rows were
        lost in flight, so the input must be re-streamed (full restart), not
        replayed from lineage.
        """
        seen: set[int] = set()
        node: BaseException | None = exc
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, IngestError):
                return False
            if isinstance(node, MLError):
                return True
            node = node.__cause__ or node.__context__
        return False

    def _recover_ml_stage(
        self,
        exc: ReproError,
        lineage: DatasetLineage,
        spec: TransformSpec,
        command: str,
        args: dict | None,
        conf_props: dict,
        result: PipelineResult,
    ) -> MLJobResult | None:
        """§6 escalation ladder for an ML-stage fault; None = full restart.

        Resume-from-checkpoint already ran (and failed or was unavailable)
        inside the ML system by the time the fault surfaces here, so this
        walks the remaining tiers: replay the input from the §5 cache when
        one is warm, else re-run the rewritten query, else hand back to the
        caller's full-restart loop.
        """
        recovery = self.coordinator.recovery
        if recovery is None or not self._is_train_stage_failure(exc):
            return None
        cache_warm = lineage.cache_state is not None
        for tier in recovery.ml_stage_ladder(cache_warm):
            if tier == "full_restart":
                recovery.record_ml_recovery(lineage.job_id, tier, str(exc))
                return None
            try:
                if tier == "replay_cache":
                    plan = self.rewriter.plan(lineage.user_sql, spec)
                    if plan.kind == "no_cache":
                        continue  # cache went cold since planning
                    inner_sql = plan.inner_sql
                else:  # replay_query: the recorded rewritten transform query
                    inner_sql = lineage.inner_sql
                ml_result = self._train_from_replay(
                    inner_sql, command, args, conf_props
                )
            except ReproError:
                continue  # this tier failed too; escalate
            recovery.record_ml_recovery(lineage.job_id, tier, str(exc))
            result.ml_recovery_tier = tier
            ml_result.recovered_via = tier
            return ml_result
        return None

    def _train_from_replay(
        self, inner_sql: str, command: str, args: dict | None, conf_props: dict
    ) -> MLJobResult:
        """Re-run the transform query and train on a rebuilt stream layout.

        The rebuilt Dataset has the *exact* partition structure the killed
        streaming run had (per-worker round-robin over k channels), so the
        replayed training is weight-for-weight identical to an
        uninterrupted streamed run.  Replayed bytes charge the dedicated
        ``ml.replay`` counter, never the fault-free transfer categories.
        """
        relation = self.engine.execute_distributed(inner_sql)
        k = int(conf_props.get("stream.k", self.coordinator.default_k))
        conf = JobConf(dict(conf_props), coordinator=self.coordinator)
        parser = MLSystem._batch_parser_from_conf(conf)
        dataset = ArrayDataset(self._rebuild_stream_partitions(relation, k, parser))
        self.cluster.ledger.add(
            "ml.replay",
            len(pickle.dumps(dataset.partitions(), protocol=pickle.HIGHEST_PROTOCOL)),
        )
        return self.ml_system.train_local(command, args, dataset, conf)

    @staticmethod
    def _rebuild_stream_partitions(relation: DistRelation, group_size: int, parser) -> list:
        """The streamed Dataset layout, recomputed from SQL-side partitions.

        SQL worker w sends row i of its partition to its channel ``i % k``
        (:func:`repro.transfer.stream_udf.plan_blocks`), and the ML job gets
        one split per channel in global index order — so split ``w*k + j``
        holds rows ``j::k`` of worker w's partition, in order: one
        ``(X, y)`` pair each, through the ingest's own ``parser``.
        """
        partitions = []
        for part in relation.partitions:
            if not isinstance(part, ColumnBatch):
                part = ColumnBatch.from_rows(relation.schema, part)
            partitions.extend(parser(part.slice_step(j, group_size)) for j in range(group_size))
        return partitions

    def _run_ml_from_dfs(
        self, command: str, args: dict | None, conf: JobConf, input_bytes: int
    ) -> tuple[MLJobResult, StageTiming, StageTiming]:
        t0 = time.perf_counter()
        ml_result = self.ml_system.run_job(
            command=command,
            args=args,
            input_format=CsvInputFormat(),
            conf=conf,
        )
        wall = time.perf_counter() - t0
        ingest_stage = StageTiming(
            name="input for ml",
            sim_seconds=self.cost.ml_hdfs_ingest_time(input_bytes * self.byte_scale),
            wall_seconds=ml_result.ingest_stats.wall_seconds,
            bytes_in=input_bytes * self.byte_scale,
            bytes_out=input_bytes * self.byte_scale,
        )
        train_stage = self._train_stage(
            ml_result, input_bytes, None, wall - ml_result.ingest_stats.wall_seconds
        )
        return ml_result, ingest_stage, train_stage

    def _train_stage(
        self,
        ml_result: MLJobResult,
        data_bytes: int,
        args: dict | None,
        wall: float | None = None,
    ) -> StageTiming:
        iterations = int((args or {}).get("iterations", 10))
        # The training basis is the in-memory RDD size — (dim+1) doubles per
        # record — identical across connection strategies (the transport
        # format must not change what the solver iterates over).
        records = ml_result.dataset.count()
        rdd_bytes = 0.0
        if records:
            first = ml_result.dataset.first()
            dim = len(getattr(first, "features", ())) if hasattr(first, "features") else 0
            rdd_bytes = float(records) * (dim + 1) * 8.0
        return StageTiming(
            name="ml train",
            sim_seconds=iterations
            * self.cost.sgd_iteration_time(rdd_bytes * self.byte_scale),
            wall_seconds=wall if wall is not None else 0.0,
            bytes_in=rdd_bytes * self.byte_scale,
            counted=False,  # the paper excludes ML runtime from the comparison
        )

    def _write_result_csv(self, relation: DistRelation, out_dir: str) -> int:
        """Materialize a distributed result as per-worker CSV part files,
        rendered a column at a time (:func:`render_csv`)."""
        self.dfs.mkdirs(out_dir)
        total = 0
        worker_nodes = list(self.cluster.workers)
        for worker_id, partition in enumerate(relation.partitions):
            if not len(partition):
                continue
            if not isinstance(partition, ColumnBatch):
                partition = ColumnBatch.from_rows(relation.schema, partition)
            text = render_csv(partition)
            client_ip = worker_nodes[worker_id % len(worker_nodes)].ip
            self.dfs.write_text(
                f"{out_dir}/part-{worker_id:05d}", text, client_ip=client_ip
            )
            total += len(text.encode("utf-8"))
        return total

    def _ml_conf_props(self, label_index: int | None, label_offset: float) -> dict:
        """ML-side parsing configuration for this pipeline's record flow.

        With no label (unsupervised specs) records parse as plain feature
        vectors; otherwise as labeled points with the label at its computed
        position, offset-adjusted when the label was recoded."""
        if label_index is None:
            return {"record.format": "vector_csv"}
        return {
            "record.format": "labeled_csv",
            "label.index": label_index,
            "label.offset": label_offset,
        }

    def _label_position_from_plan(
        self, plan: RewritePlan, spec: TransformSpec
    ) -> tuple[int | None, float]:
        if spec.label is None:
            return None, 0.0
        schema = self.engine.plan(plan.inner_sql).schema
        names = [c.name.lower() for c in schema]
        label = spec.label.lower()
        if label not in names:
            raise ReproError(
                f"label column {spec.label!r} not in transformed output {names} "
                "(was it dummy-coded away?)"
            )
        offset = 1.0 if label in {c.lower() for c in spec.all_recoded} else 0.0
        return names.index(label), offset

    def _label_position_after_transform(
        self, schema: Schema, spec: TransformSpec, recode_map: RecodeMap
    ) -> tuple[int | None, float]:
        """Label index in the Jaql-transformed column layout."""
        if spec.label is None:
            return None, 0.0
        dummy_set = {c.lower() for c in spec.dummy}
        label = spec.label.lower()
        position = 0
        for column in schema:
            name = column.name.lower()
            if name == label:
                if name in dummy_set:
                    raise ReproError(f"label {label!r} cannot be dummy-coded")
                offset = 1.0 if name in {c.lower() for c in spec.all_recoded} else 0.0
                return position, offset
            position += recode_map.cardinality(name) if name in dummy_set else 1
        raise ReproError(f"label column {spec.label!r} not found in {schema.names}")

    def _delta(self, before: dict, category: str) -> int:
        return self.cluster.ledger.get(category) - before.get(category, 0)


def render_csv(batch: ColumnBatch) -> str:
    """The batch as CSV lines, byte for byte ``DataType.render`` of every
    value, rendered a column at a time: DOUBLE by ``float.__repr__``, INT by
    ``int.__repr__``, VARCHAR by gathering its dictionary words, BOOLEAN as
    ``true``/``false``, NULL as ``""``; an ``object`` column renders each
    Python value."""
    columns = []
    for column, vector in zip(batch.schema, batch.columns):
        dtype = column.dtype
        if vector.is_object:
            texts = list(map(dtype.render, vector.to_pylist()))
        elif dtype is DataType.VARCHAR:
            words = np.array([*(vector.dictionary or []), ""], dtype=object)
            texts = words[np.where(vector.valid, vector.data, -1)].tolist()
        elif dtype is DataType.BOOLEAN:
            words = np.array(["false", "true", ""], dtype=object)
            texts = words[np.where(vector.valid, vector.data, 2)].tolist()
        else:
            render = float.__repr__ if dtype is DataType.DOUBLE else int.__repr__
            texts = list(map(render, vector.data.tolist()))
            for i in np.flatnonzero(~vector.valid).tolist():
                texts[i] = ""
        columns.append(texts)
    return "\n".join(map(",".join, zip(*columns))) + "\n"
