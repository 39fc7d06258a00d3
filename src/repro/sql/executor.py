"""Physical execution: partition-parallel operators over worker slots.

The executor mirrors an MPP engine's runtime: every operator runs once per
worker slot on a thread pool, and data only crosses slots through explicit
exchanges (broadcast or hash repartition), whose bytes are recorded in the
cluster ledger under ``sql.shuffle``.  Scans record ``sql.scan`` and
project/table-function output records ``sql.output`` — the categories the
cost model converts into paper-scale seconds.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Any

import numpy as np

from repro.cluster.cost import CostLedger
from repro.cluster.node import Node
from repro.columnar.batch import ColumnBatch, ColumnVector
from repro.columnar.text import RecordWidthError, read_columns
from repro.common.errors import ExecutionError
from repro.iofmt.inputformat import JobConf
from repro.iofmt.text import FileSplit, TextInputFormat
from repro.sql import vectorized
from repro.sql.expressions import Binder, FunctionRegistry, Literal, Star
from repro.sql.plan import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTableFunction,
    LogicalUnionAll,
)
from repro.sql.planner import BROADCAST_THRESHOLD_BYTES
from repro.sql.types import Schema, estimate_row_bytes, estimate_rows_bytes
from repro.sql.udf import TableUDF, UdfContext


def partition_rows(partition) -> list[tuple]:
    """Row view of one partition — the seam adapter between columnar and
    row-oriented operators (a no-op for row partitions; ``to_rows`` is
    memoized on batches)."""
    if isinstance(partition, ColumnBatch):
        return partition.to_rows()
    return partition


# Runtime conditions under which a vectorized kernel abdicates to the row
# path: explicit fallbacks, plus numpy's type/shape errors on unexpected data.
_VECTOR_FALLBACK_ERRORS = (TypeError, ValueError, OverflowError)


@dataclass
class DistRelation:
    """An intermediate result: one partition per worker slot.

    A partition is a :class:`~repro.columnar.batch.ColumnBatch` — every
    scan, filter, projection and join produces one — or a ``list[tuple]``
    where a row-only operator (DISTINCT, aggregate, sort, limit, union, a
    UDF without a batch kernel) produced it.  Operators with vector kernels
    consume batches directly; everything else goes through
    :func:`partition_rows`.
    """

    schema: Schema
    partitions: list  # list[list[tuple] | ColumnBatch]

    def total_rows(self) -> int:
        return sum(len(p) for p in self.partitions)

    def all_rows(self) -> list[tuple]:
        rows: list[tuple] = []
        for p in self.partitions:
            rows.extend(partition_rows(p))
        return rows

    def estimated_bytes(self) -> int:
        # ColumnBatch.logical_bytes() computes the same per-row estimate
        # formula vectorized, so the two representations account equally.
        return sum(
            p.logical_bytes()
            if isinstance(p, ColumnBatch)
            else estimate_rows_bytes(p)
            for p in self.partitions
        )


@dataclass
class ExecutionContext:
    """Runtime facilities shared by all operators of one query."""

    num_workers: int
    worker_nodes: list[Node]
    ledger: CostLedger
    functions: FunctionRegistry
    services: dict[str, Any]
    dfs: Any = None  # DistributedFileSystem | None


class Executor:
    """Executes a logical plan and returns a :class:`DistRelation`."""

    def __init__(self, ctx: ExecutionContext):
        self._ctx = ctx

    def execute(self, plan: LogicalPlan) -> DistRelation:
        pool = ThreadPoolExecutor(max_workers=self._ctx.num_workers)
        self._pool = pool
        try:
            return self._execute(plan)
        finally:
            self._pool = None
            clock = self._ctx.services.get("clock")
            if clock is None:
                pool.shutdown(wait=True)
            else:
                # When a gathered future raises (an injected send fault),
                # sibling workers may still sit in clock-mediated retry
                # backoffs; joining them from inside the managed set would
                # gate the very time advancement they need to finish.
                with clock.unmanaged():
                    pool.shutdown(wait=True)

    # -------------------------------------------------------------- dispatch

    def _execute(self, plan: LogicalPlan) -> DistRelation:
        if isinstance(plan, LogicalScan):
            return self._exec_scan(plan)
        if isinstance(plan, LogicalTableFunction):
            return self._exec_table_function(plan)
        if isinstance(plan, LogicalFilter):
            return self._exec_filter(plan)
        if isinstance(plan, LogicalProject):
            return self._exec_project(plan)
        if isinstance(plan, LogicalJoin):
            return self._exec_join(plan)
        if isinstance(plan, LogicalDistinct):
            return self._exec_distinct(plan)
        if isinstance(plan, LogicalAggregate):
            return self._exec_aggregate(plan)
        if isinstance(plan, LogicalSort):
            return self._exec_sort(plan)
        if isinstance(plan, LogicalLimit):
            return self._exec_limit(plan)
        if isinstance(plan, LogicalUnionAll):
            return self._exec_union_all(plan)
        raise ExecutionError(f"no physical operator for {type(plan).__name__}")

    def _exec_union_all(self, plan: LogicalUnionAll) -> DistRelation:
        results = [self._execute(branch) for branch in plan.branches]
        partitions = self._empty_partitions()
        for relation in results:
            for worker_id, rows in enumerate(relation.partitions):
                partitions[worker_id].extend(partition_rows(rows))
        return DistRelation(schema=plan.schema, partitions=partitions)

    def _map_partitions(self, partitions, fn) -> list:
        """Run ``fn(worker_id, partition)`` once per slot, concurrently.

        Worker tasks register with the injected clock (virtual under the
        chaos harness) so blocking sends inside them — governed throttles,
        socket flushes — count toward quiescence; the gather steps out of
        the managed set while it blocks in ``Future.result()``.
        """
        clock = self._ctx.services.get("clock")
        if clock is None:
            futures = [
                self._pool.submit(fn, worker_id, partition)
                for worker_id, partition in enumerate(partitions)
            ]
            return [f.result() for f in futures]

        def task(worker_id: int, partition):
            with clock.managed(f"sql-worker-{worker_id}", expected=True):
                return fn(worker_id, partition)

        parts = list(partitions)
        # Never expect more concurrent tasks than the pool can run: excess
        # expectations would hold virtual time still for threads that cannot
        # start until running ones (possibly parked in clock waits) finish.
        clock.expect_threads(min(len(parts), self._ctx.num_workers))
        futures = [
            self._pool.submit(task, worker_id, partition)
            for worker_id, partition in enumerate(parts)
        ]
        with clock.unmanaged():
            return [f.result() for f in futures]

    def _empty_partitions(self) -> list[list[tuple]]:
        return [[] for _ in range(self._ctx.num_workers)]

    # ------------------------------------------------------------------ scan

    def _exec_scan(self, plan: LogicalScan) -> DistRelation:
        """Every table kind produces ``plan.columns`` only; ``sql.scan`` is
        charged for the whole table or split all the same, because that is
        what gets read (a text line cannot be read in part)."""
        table = plan.table
        if table.is_external:
            partitions = self._scan_external(plan)
        else:
            partitions = self._scan_table(plan)
            self._ctx.ledger.add("sql.scan", table.estimated_bytes())
        relation = DistRelation(schema=plan.schema, partitions=partitions)
        if plan.pushed_filter is not None:
            relation = self._apply_filter(relation, plan.pushed_filter)
        return relation

    def _scan_table(self, plan: LogicalScan) -> list:
        """An in-memory table's kept columns, a batch per partition (a table
        with another partition count is dealt out row ``i`` to slot
        ``i % n``)."""
        table, n, width = plan.table, self._ctx.num_workers, len(plan.table.schema)
        if len(table.partitions) == n:
            slots = [p.rows for p in table.partitions]
        else:
            rows = table.all_rows()
            slots = [rows[w::n] for w in range(n)]
        return [
            ColumnBatch.from_rows(plan.schema, _project_rows(s, plan.columns, width))
            for s in slots
        ]

    def _count_columnar_fallback(self) -> None:
        """Every vector->tuple degradation (unsupported tree at compile
        time, VectorFallback at runtime, a join keyed through Python values)
        charges one ``columnar.fallback`` tick, so no deployment can quietly
        decay into the tuple operators."""
        self._ctx.ledger.add("columnar.fallback", 1)

    def _scan_external(self, plan: LogicalScan) -> list:
        table = plan.table
        if self._ctx.dfs is None:
            raise ExecutionError(
                f"external table {table.name!r} requires a DFS-attached engine"
            )
        if table.external.format == "columnar":
            return self._scan_external_columnar(plan)
        conf = JobConf({"input.path": table.external.path}, dfs=self._ctx.dfs)
        fmt = TextInputFormat()
        splits = fmt.get_splits(conf, self._ctx.num_workers * 2)
        assignments = assign_splits(splits, self._ctx.worker_nodes)
        total_bytes = sum(s.length() for s in splits)
        self._ctx.ledger.add("sql.scan", total_bytes)

        def read_worker(worker_id: int, worker_splits):
            """split -> typed vectors of the kept columns, a split at a time
            so that only one split's index arrays are alive."""
            node = self._ctx.worker_nodes[worker_id % len(self._ctx.worker_nodes)]
            worker_conf = JobConf(
                dict(conf.props, **{"client.ip": node.ip}), dfs=self._ctx.dfs
            )
            parts = []
            for split in worker_splits:
                with fmt.create_record_reader(split, worker_conf) as reader:
                    raw = b"\n".join(reader.chunks())
                    parts.append(_scan_split(raw, plan, split))
            return ColumnBatch.concat(plan.schema, parts)

        return self._map_partitions(assignments, read_worker)

    def _scan_external_columnar(self, plan: LogicalScan) -> list:
        """Columnar scan: one part file at a time, rows arrive pre-typed.

        Scan bytes are the (dictionary-compressed) file bytes — columnar
        tables cost less I/O than text, exactly the Parquet/ORC advantage
        §2.1 alludes to.

        The scan skips row materialization entirely: each part file decodes
        straight into a :class:`~repro.columnar.batch.ColumnBatch`, adopting
        the file's dictionary encoding."""
        from repro.columnar.format import ColumnarInputFormat, decode_partition_batch

        table = plan.table
        conf = JobConf({"input.path": table.external.path}, dfs=self._ctx.dfs)
        fmt = ColumnarInputFormat()
        splits = fmt.get_splits(conf, self._ctx.num_workers)
        assignments = assign_splits(splits, self._ctx.worker_nodes)
        self._ctx.ledger.add("sql.scan", sum(s.length() for s in splits))

        def read_worker(worker_id: int, worker_splits):
            node = self._ctx.worker_nodes[worker_id % len(self._ctx.worker_nodes)]
            parts = []
            for split in worker_splits:
                data = self._ctx.dfs.read_bytes(split.path, client_ip=node.ip)
                batch = decode_partition_batch(data, table.schema, plan.columns)
                parts.append(
                    ColumnBatch.from_columns(plan.schema, batch.columns, batch.num_rows)
                )
            return ColumnBatch.concat(plan.schema, parts)

        return self._map_partitions(assignments, read_worker)

    # ------------------------------------------------------ simple operators

    def _exec_filter(self, plan: LogicalFilter) -> DistRelation:
        child = self._execute(plan.child)
        return self._apply_filter(child, plan.predicate)

    def _apply_filter(self, relation: DistRelation, predicate) -> DistRelation:
        vec_predicate = vectorized.compile_predicate(predicate, relation.schema)
        if vec_predicate is None:
            self._count_columnar_fallback()
        # The tuple evaluator is compiled only if a row partition needs it.
        evaluate = cache(lambda: predicate.bind_batch(self._binder(relation.schema)))

        def filter_partition(_w: int, partition) -> list[tuple]:
            if isinstance(partition, ColumnBatch):
                if vec_predicate is not None:
                    try:
                        return partition.filter(vec_predicate(partition))
                    except (vectorized.VectorFallback, *_VECTOR_FALLBACK_ERRORS):
                        self._count_columnar_fallback()
                rows = partition.to_rows()
                kept = [r for r, keep in zip(rows, evaluate()(rows)) if keep is True]
                return ColumnBatch.from_rows(relation.schema, kept)
            rows = partition
            # One batch evaluation per partition, then a zip-scan: no
            # per-row closure-tree dispatch on the hot path.
            return [r for r, keep in zip(rows, evaluate()(rows)) if keep is True]

        partitions = self._map_partitions(relation.partitions, filter_partition)
        return DistRelation(schema=relation.schema, partitions=partitions)

    def _binder(self, schema: Schema) -> Binder:
        return Binder(schema, self._ctx.functions)

    def _exec_project(self, plan: LogicalProject) -> DistRelation:
        child = self._execute(plan.child)
        vec_project = vectorized.compile_projection(plan.exprs, plan.schema, child.schema)
        if vec_project is None:
            self._count_columnar_fallback()
        evaluators = cache(
            lambda: [e.bind_batch(self._binder(child.schema)) for e in plan.exprs]
        )

        def project(_w: int, partition) -> list[tuple]:
            if isinstance(partition, ColumnBatch):
                if vec_project is not None:
                    try:
                        return vec_project(partition)
                    except (vectorized.VectorFallback, *_VECTOR_FALLBACK_ERRORS):
                        self._count_columnar_fallback()
                rows = partition.to_rows()
                columns = [fn(rows) for fn in evaluators()]
                out_rows = list(zip(*columns)) if rows else []
                return ColumnBatch.from_rows(plan.schema, out_rows)
            rows = partition
            # Column-at-a-time evaluation, re-zipped into row tuples.
            columns = [fn(rows) for fn in evaluators()]
            return list(zip(*columns)) if rows else []

        partitions = self._map_partitions(child.partitions, project)
        out = DistRelation(schema=plan.schema, partitions=partitions)
        self._ctx.ledger.add("sql.output", out.estimated_bytes())
        return out

    def _exec_table_function(self, plan: LogicalTableFunction) -> DistRelation:
        child = self._execute(plan.child)
        batch_kernel = type(plan.udf).process_batch is not TableUDF.process_batch

        def run_udf(worker_id: int, partition) -> list[tuple]:
            node = self._ctx.worker_nodes[worker_id % len(self._ctx.worker_nodes)]
            ctx = UdfContext(
                worker_id=worker_id,
                num_workers=self._ctx.num_workers,
                node=node,
                ledger=self._ctx.ledger,
                services=self._ctx.services,
            )
            if not isinstance(partition, ColumnBatch) and batch_kernel:
                # Seam adapter: a row-only operator upstream (sort, limit,
                # global distinct, ...) left the vector kernels; re-batch so
                # the UDF's batch kernel still engages.
                partition = ColumnBatch.from_rows(child.schema, partition)
            if isinstance(partition, ColumnBatch):
                # A UDF with a batch kernel consumes the batch directly;
                # returning None means "no batch path for these args".
                out = plan.udf.process_batch(partition, child.schema, plan.args, ctx)
                if out is not None:
                    return out
                rows = partition.to_rows()
            else:
                rows = partition
            return list(
                plan.udf.process_partition(rows, child.schema, plan.args, ctx)
            )

        partitions = self._map_partitions(child.partitions, run_udf)
        return DistRelation(schema=plan.schema, partitions=partitions)

    # ------------------------------------------------------------------ join

    def _exec_join(self, plan: LogicalJoin) -> DistRelation:
        left = self._execute(plan.left)
        right = self._execute(plan.right)
        left_bytes = left.estimated_bytes()
        right_bytes = right.estimated_bytes()

        # Build on the right input of a LEFT join, else on the smaller one.
        if plan.kind != "left" and left_bytes <= right_bytes:
            build_side, build_bytes = "left", left_bytes
        else:
            build_side, build_bytes = "right", right_bytes
        # None: a shuffle join, which builds on the right whatever the sizes.
        broadcast_bytes = build_bytes if build_bytes <= BROADCAST_THRESHOLD_BYTES else None
        if broadcast_bytes is None:
            build_side = "right"

        relation = self._array_join(plan, left, right, build_side, broadcast_bytes)
        if plan.residual is not None:
            if plan.kind == "left":
                raise ExecutionError(
                    "LEFT JOIN with non-equi residual conditions is unsupported"
                )
            relation = self._apply_filter(relation, plan.residual)
        return relation

    def _array_join(self, plan, left, right, build_side, broadcast_bytes) -> DistRelation:
        """The join (DESIGN §10): key arrays in, gathered columns out, no row
        tuple in between; a row input (DISTINCT, aggregate, sort, ...) is
        pivoted first.  A broadcast join probes each probe-side partition
        against the one :class:`_JoinIndex`; a shuffle join first re-buckets
        the probe side by ``hash(key) % n`` and charges both sides' moved
        bytes.  Its build side is probed whole: equal keys hash to the same
        slot, so slot *t* finds exactly the build rows a physical shuffle
        would have sent there, in the same order."""
        n = self._ctx.num_workers
        build, probe = (left, right) if build_side == "left" else (right, left)
        builds, probes = (
            [p if isinstance(p, ColumnBatch) else ColumnBatch.from_rows(r.schema, p)
             for p in r.partitions]
            for r in (build, probe)
        )
        build_exprs, probe_exprs = (
            (plan.left_keys, plan.right_keys)
            if build_side == "left"
            else (plan.right_keys, plan.left_keys)
        )
        # A cartesian product joins on the constant 0.
        build_keys = self._key_columns(build_exprs or [Literal(0)], build.schema)
        probe_keys = self._key_columns(probe_exprs or [Literal(0)], probe.schema)

        whole = ColumnBatch.concat(build.schema, builds)
        probe_key_parts = [probe_keys(p) for p in probes]
        index = _JoinIndex(whole, build_keys(whole), probe_key_parts, outer=plan.kind == "left")
        if index.python:
            self._count_columnar_fallback()
        probe_codes = [index.codes(keys, len(p)) for keys, p in zip(probe_key_parts, probes)]
        if broadcast_bytes is None:

            def placement(parts, key_parts) -> tuple[list, int]:
                # each partition's slots; bytes of the rows that change slot
                slots = [_hash_slots(keys, len(p), n) for p, keys in zip(parts, key_parts)]
                moved = sum(
                    int(p.row_bytes()[slot != source].sum())
                    for source, (p, slot) in enumerate(zip(parts, slots))
                )
                return slots, moved

            probe_slots, probe_moved = placement(probes, probe_key_parts)
            charges = [placement(builds, map(build_keys, builds))[1], probe_moved]
            probes = [
                ColumnBatch.concat(
                    probe.schema, [p.filter(slot == t) for p, slot in zip(probes, probe_slots)]
                )
                for t in range(n)
            ]
            probe_codes = [
                np.concatenate([c[slot == t] for c, slot in zip(probe_codes, probe_slots)])
                for t in range(n)
            ]
        else:
            charges = [broadcast_bytes * max(n - 1, 0)]

        def probe_partition(w: int, partition: ColumnBatch) -> ColumnBatch:
            probe_rows, build_rows = index.match(probe_codes[w])
            mine = partition.take(probe_rows).columns
            other = index.batch.take(build_rows).columns
            columns = mine + other if build_side == "right" else other + mine
            return ColumnBatch.from_columns(plan.schema, columns, len(probe_rows))

        partitions = self._map_partitions(probes, probe_partition)
        for moved in charges:
            self._ctx.ledger.add("sql.shuffle", moved)
        return DistRelation(schema=plan.schema, partitions=partitions)

    def _key_columns(self, exprs: list, schema: Schema):
        """``batch -> [key column, ...]``: a key's :class:`~repro.sql.
        vectorized.VCol`, or the Python values ``bind_batch`` computes where
        its kernel declines the expression or the batch."""
        kernels = [vectorized.compile_columns([e], schema) for e in exprs]
        evaluators = [cache(lambda e=e: e.bind_batch(self._binder(schema))) for e in exprs]

        def column(kernel, evaluate, batch: ColumnBatch):
            if kernel is not None:
                try:
                    return kernel(batch)[0]
                except (vectorized.VectorFallback, *_VECTOR_FALLBACK_ERRORS):
                    pass
            return evaluate()(batch.to_rows())

        return lambda batch: [column(k, e, batch) for k, e in zip(kernels, evaluators)]

    # --------------------------------------------------------------- distinct

    def _exec_distinct(self, plan: LogicalDistinct) -> DistRelation:
        child = self._execute(plan.child)
        n = self._ctx.num_workers
        local = self._map_partitions(
            child.partitions,
            lambda _w, rows: list(dict.fromkeys(partition_rows(rows))),
        )
        # Hash-repartition on the key tuple (row,): the seed path's placement.
        buckets = self._empty_partitions()
        moved_bytes = 0
        for source, rows in enumerate(local):
            moved: list[tuple] = []
            for row in rows:
                target = hash((row,)) % n
                if target != source:
                    moved.append(row)
                buckets[target].append(row)
            moved_bytes += estimate_rows_bytes(moved)
        self._ctx.ledger.add("sql.shuffle", moved_bytes)
        partitions = self._map_partitions(
            buckets, lambda _w, rows: list(dict.fromkeys(rows))
        )
        return DistRelation(schema=plan.schema, partitions=partitions)

    # -------------------------------------------------------------- aggregate

    def _exec_aggregate(self, plan: LogicalAggregate) -> DistRelation:
        child = self._execute(plan.child)
        agg_specs = [(call.func, call.distinct) for call in plan.agg_calls]
        arg_exprs = [
            None if call.func == "count" and isinstance(call.arg, Star) else call.arg
            for call in plan.agg_calls
        ]

        @cache
        def row_evaluators():
            # The tuple evaluators, compiled only if a row partition needs them.
            binder = self._binder(child.schema)
            key_fns = [e.bind_batch(binder) for e in plan.group_exprs]
            return key_fns, [None if e is None else e.bind_batch(binder) for e in arg_exprs]

        vec_global = vec_keys = vec_args = None
        if not plan.group_exprs:
            vec_global = vectorized.compile_global_aggregate(plan.agg_calls, child.schema)
        else:
            vec_keys = vectorized.compile_value_lists(plan.group_exprs, child.schema)
            vec_args = vectorized.compile_value_lists(
                [e for e in arg_exprs if e is not None], child.schema
            )
        if (vec_global is None) and (vec_keys is None or vec_args is None):
            self._count_columnar_fallback()

        def partial(_w: int, partition) -> dict[tuple, list]:
            if isinstance(partition, ColumnBatch):
                # Global aggregates reduce whole arrays; grouped aggregates
                # vectorize key/argument extraction and keep the (hash-based)
                # grouping loop.  Either way the partial shape matches the
                # row path, so merge/finalize below are shared.
                if vec_global is not None:
                    try:
                        return vec_global(partition)
                    except (vectorized.VectorFallback, *_VECTOR_FALLBACK_ERRORS):
                        self._count_columnar_fallback()
                if vec_keys is not None and vec_args is not None:
                    try:
                        keys = list(zip(*vec_keys(partition)))
                        values = iter(vec_args(partition))
                        arg_columns = [None if e is None else next(values) for e in arg_exprs]
                        return group_partial(keys, arg_columns)
                    except (vectorized.VectorFallback, *_VECTOR_FALLBACK_ERRORS):
                        self._count_columnar_fallback()
                rows = partition.to_rows()
            else:
                rows = partition
            # Group keys and aggregate arguments are evaluated once per
            # partition as columns; the grouping loop only indexes them.
            key_fns, arg_fns = row_evaluators()
            keys = _batch_key_tuples(key_fns, rows)
            arg_columns = [fn(rows) if fn is not None else None for fn in arg_fns]
            return group_partial(keys, arg_columns)

        def group_partial(keys: list[tuple], arg_columns: list) -> dict[tuple, list]:
            groups: dict[tuple, list] = {}
            for idx, key in enumerate(keys):
                acc = groups.get(key)
                if acc is None:
                    acc = [_new_accumulator(f, d) for f, d in agg_specs]
                    groups[key] = acc
                for i, (func, distinct) in enumerate(agg_specs):
                    column = arg_columns[i]
                    value = column[idx] if column is not None else 1
                    _accumulate(acc[i], func, value, distinct, star=column is None)
            return groups

        partials = self._map_partitions(child.partitions, partial)

        n = self._ctx.num_workers
        merged_buckets: list[dict[tuple, list]] = [dict() for _ in range(n)]
        moved = 0
        for source, groups in enumerate(partials):
            for key, acc in groups.items():
                target = hash(key) % n if plan.group_exprs else 0
                if target != source:
                    moved += estimate_row_bytes(key) + 32 * len(acc)
                bucket = merged_buckets[target]
                existing = bucket.get(key)
                if existing is None:
                    bucket[key] = acc
                else:
                    for i, (func, distinct) in enumerate(agg_specs):
                        _merge_accumulator(existing[i], acc[i], func, distinct)
        self._ctx.ledger.add("sql.shuffle", moved)

        partitions = self._empty_partitions()
        for worker_id, bucket in enumerate(merged_buckets):
            for key, acc in bucket.items():
                finals = [
                    _finalize(acc[i], func, distinct)
                    for i, (func, distinct) in enumerate(agg_specs)
                ]
                row = []
                for slot_kind, index in plan.output_slots:
                    row.append(key[index] if slot_kind == "group" else finals[index])
                partitions[worker_id].append(tuple(row))

        if not plan.group_exprs and not any(partitions):
            # Global aggregate over empty input still yields one row.
            empty_row = []
            for slot_kind, index in plan.output_slots:
                func, distinct = agg_specs[index]
                acc = _new_accumulator(func, distinct)
                empty_row.append(_finalize(acc, func, distinct))
            partitions[0].append(tuple(empty_row))

        return DistRelation(schema=plan.schema, partitions=partitions)

    # ------------------------------------------------------------ sort/limit

    def _exec_sort(self, plan: LogicalSort) -> DistRelation:
        child = self._execute(plan.child)
        rows = child.all_rows()
        binder = self._binder(child.schema)
        # Stable sorts applied in reverse key order implement multi-key sort;
        # each pass batch-evaluates its key as a column (decorate-sort-
        # undecorate) instead of calling the evaluator once per comparison.
        for expr, ascending in reversed(plan.keys):
            values = expr.bind_batch(binder)(rows)
            decorated = sorted(
                zip(values, rows),
                key=lambda pair: _null_safe_key(pair[0], ascending),
                reverse=not ascending,
            )
            rows = [row for _v, row in decorated]
        partitions = self._empty_partitions()
        partitions[0] = rows
        return DistRelation(schema=plan.schema, partitions=partitions)

    def _exec_limit(self, plan: LogicalLimit) -> DistRelation:
        child = self._execute(plan.child)
        partitions = self._empty_partitions()
        taken: list[tuple] = []
        for partition in child.partitions:
            if len(taken) >= plan.limit:
                break
            taken.extend(partition_rows(partition)[: plan.limit - len(taken)])
        partitions[0] = taken
        return DistRelation(schema=plan.schema, partitions=partitions)


class _JoinIndex:
    """The build side of a join: each row's key factorised into one int64
    code, the codes stably argsorted once, so a probe is two ``searchsorted``
    calls and rows of equal key keep build order.

    The code is a mixed radix over the key positions.  A position that is a
    typed array on every side is coded by the build's values: a VARCHAR part
    is its dictionary code, a numeric part its rank among the build's
    distinct values.  The other positions — Python values from
    ``bind_batch``, VARCHAR against non-VARCHAR, INT against DOUBLE beyond
    2**53, where numpy's comparison is not Python's — are coded together
    through one Python-value domain: a dict over the build side's key
    tuples, which matches by ``==`` and ``hash`` as a tuple hash join does.
    So is every position when the radix would pass 2**62.  A row with a
    NULL (or NaN) key part has no code and never matches."""

    def __init__(self, batch: ColumnBatch, keys: list, probes: list[list], outer: bool):
        positions = range(len(keys))
        self._domains = {
            p: _typed_domain(keys[p])
            for p in positions
            if _typed_position(keys[p], [probe[p] for probe in probes])
        }
        self.python = [p for p in positions if p not in self._domains]
        self._tuples = _tuple_domain(keys, self.python)
        domains = (*self._domains.values(), self._tuples)
        if math.prod(max(len(domain), 1) for domain in domains) >= 2**62:
            self._domains, self.python = {}, list(positions)
            self._tuples = _tuple_domain(keys, self.python)
        codes = self.codes(keys, batch.num_rows)
        order = np.argsort(codes, kind="stable")[np.count_nonzero(codes < 0) :]
        self._sorted = codes[order]
        # One slot past the sorted rows stands for "no match": the all-NULL
        # row a LEFT JOIN appends to the build side.
        self._order = np.append(order, batch.num_rows)
        self._outer = outer
        if outer:
            null_row = [ColumnVector.from_values(c.dtype, [None]) for c in batch.schema]
            batch = ColumnBatch.concat(
                batch.schema, [batch, ColumnBatch.from_columns(batch.schema, null_row, 1)]
            )
        self.batch = batch

    def codes(self, keys: list, num_rows: int) -> np.ndarray:
        """The build-side code of every row's key, -1 where a key part is
        NULL or is no build-side value."""
        codes = np.zeros(num_rows, dtype=np.int64)
        matched = np.ones(num_rows, dtype=np.bool_)
        for position, domain in self._domains.items():
            key = keys[position]
            if isinstance(domain, dict):
                lookup = np.fromiter(
                    (domain.get(word, -1) for word in key.dictionary),
                    dtype=np.int64,
                    count=len(key.dictionary),
                )
                part = np.append(lookup, -1)[np.where(key.valid, key.values, -1)]
            elif not len(domain):
                part = np.full(num_rows, -1)
            else:
                rank = np.searchsorted(domain, key.values).clip(max=len(domain) - 1)
                part = np.where(key.valid & (domain[rank] == key.values), rank, -1)
            codes = codes * max(len(domain), 1) + part
            matched &= part >= 0
        if self.python:
            part = np.fromiter(
                (self._tuples.get(key, -1) for key in _key_tuples(keys, self.python)),
                dtype=np.int64,
                count=num_rows,
            )
            codes = codes * max(len(self._tuples), 1) + part
            matched &= part >= 0
        return np.where(matched, codes, -1)

    def match(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(probe row, build row)`` index pairs of the join of the probe
        rows' ``codes``, in probe order and then build order.  An outer join
        pairs an unmatched probe row with the NULL row, once."""
        first = np.searchsorted(self._sorted, codes, "left")
        counts = np.searchsorted(self._sorted, codes, "right") - first
        first[counts == 0] = len(self._sorted)
        if self._outer:
            counts = np.maximum(counts, 1)
        probe_rows = np.repeat(np.arange(len(codes)), counts)
        run_starts = np.cumsum(counts) - counts
        within_run = np.arange(len(probe_rows)) - np.repeat(run_starts, counts)
        return probe_rows, self._order[np.repeat(first, counts) + within_run]


def _typed_position(build, probes: list) -> bool:
    """Whether numpy codes this key position as Python compares it: typed
    arrays on every side, VARCHAR only against VARCHAR, and no INT against
    DOUBLE past 2**53 (numpy compares the two in float64, Python exactly)."""
    columns = [build, *probes]
    if not all(isinstance(c, vectorized.VCol) for c in columns):
        return False
    if len({c.dictionary is None for c in columns}) > 1:
        return False
    for probe in probes:
        if {build.values.dtype.kind, probe.values.dtype.kind} == {"i", "f"}:
            ints = build.values if build.values.dtype.kind == "i" else probe.values
            if len(ints) and max(-int(ints.min()), int(ints.max())) > 2**53:
                return False
    return True


def _typed_domain(key):
    """A typed key position's build values: word -> code, or sorted uniques."""
    if key.dictionary is not None:
        return {word: code for code, word in enumerate(dict.fromkeys(key.dictionary))}
    return np.unique(key.values)


def _no_match(value) -> bool:
    """NULL, and NaN (``nan != nan``), equal nothing."""
    return value is None or value != value


def _key_tuples(keys: list, positions: list):
    """Every row's Python key tuple over ``positions``."""
    return zip(*(
        key.to_pylist() if isinstance(key, vectorized.VCol) else key
        for key in (keys[p] for p in positions)
    ))


def _tuple_domain(keys: list, positions: list) -> dict:
    """Key tuple -> code over the build rows with no NULL or NaN part."""
    if not positions:
        return {}
    matchable = (
        key for key in _key_tuples(keys, positions) if not any(map(_no_match, key))
    )
    return {key: code for code, key in enumerate(dict.fromkeys(matchable))}


def _hash_slots(keys: list, num_rows: int, n: int) -> np.ndarray:
    """``hash(key_tuple) % n`` of every row — the placement of a shuffle of
    Python key tuples, a NULL or NaN part placed as ``None`` (neither ever
    matches, and ``hash(nan)`` depends on the object) — hashed once per
    *distinct* key and spread through the inverse codes."""
    codes = np.zeros(num_rows, dtype=np.int64)
    domains = []
    for key in keys:
        values, part = _value_codes(key, num_rows)
        if len(values) * (int(codes.max(initial=0)) + 1) >= 2**62:
            codes = np.unique(codes, return_inverse=True)[1]  # dense again
        codes = codes * len(values) + part
        domains.append((values, part))
    _distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    parts = [[values[d] for d in part[first].tolist()] for values, part in domains]
    slots = np.fromiter(
        (hash(key) % n for key in zip(*parts)), dtype=np.int64, count=len(first)
    )
    return slots[inverse]


def _value_codes(key, num_rows: int) -> tuple[list, np.ndarray]:
    """A key column as ``(values, part)``: its distinct Python values, then
    ``None``, and each row's index into them — ``None``'s where the value is
    NULL or NaN."""
    if not isinstance(key, vectorized.VCol):
        lookup: dict = {}
        part = np.fromiter(
            (-1 if _no_match(v) else lookup.setdefault(v, len(lookup)) for v in key),
            dtype=np.int64,
            count=num_rows,
        )
        values, unset = list(lookup), part < 0
    elif key.dictionary is not None:
        values, part, unset = list(key.dictionary), key.values, ~key.valid
    else:
        uniques, part = np.unique(key.values, return_inverse=True)
        values, unset = uniques.tolist(), ~key.valid
        if key.values.dtype.kind == "f":
            unset |= np.isnan(key.values)
    values.append(None)
    return values, np.where(unset, len(values) - 1, part)


def _scan_split(raw: bytes, plan: LogicalScan, split: FileSplit) -> ColumnBatch:
    """The scan's columns of one split's lines as a typed batch
    (:func:`~repro.columnar.text.read_columns`); only kept columns are decoded."""
    table = plan.table
    try:
        vectors = read_columns(
            raw, split, table.external.delimiter, len(table.schema), plan.columns,
            [column.dtype for column in plan.schema],
        )
    except RecordWidthError as exc:
        raise ExecutionError(f"bad record in {table.name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ExecutionError(
            f"invalid UTF-8 in {table.name}: {exc.reason} (the split of "
            f"{split.path} starting at byte {split.start})"
        ) from exc
    return ColumnBatch.from_columns(plan.schema, vectors, len(vectors[0]))


def _project_rows(rows: list[tuple], columns, width: int) -> list[tuple]:
    """A copy of ``rows`` narrowed to the ``columns`` of ``width``-wide rows."""
    if len(columns) == width:
        return list(rows)
    if len(columns) == 1:  # itemgetter of one index returns the bare value
        (index,) = columns
        return [(row[index],) for row in rows]
    return list(map(itemgetter(*columns), rows))


def _batch_key_tuples(batch_fns, rows: list[tuple]) -> list[tuple]:
    """Key tuples for a whole partition: one batch evaluation per key expr.

    With no key exprs every row keys to ``()`` (the global-aggregate case).
    """
    if not rows:
        return []
    if not batch_fns:
        return [()] * len(rows)
    columns = [fn(rows) for fn in batch_fns]
    return list(zip(*columns))


# -------------------------------------------------------------- accumulators


def _new_accumulator(func: str, distinct: bool) -> list:
    if distinct:
        return [set()]
    if func == "count":
        return [0]
    if func == "avg":
        return [0.0, 0]
    return [None]  # sum / min / max


def _accumulate(acc: list, func: str, value, distinct: bool, star: bool) -> None:
    if value is None and not star:
        return
    if distinct:
        acc[0].add(value)
        return
    if func == "count":
        acc[0] += 1
    elif func == "sum":
        acc[0] = value if acc[0] is None else acc[0] + value
    elif func == "avg":
        acc[0] += value
        acc[1] += 1
    elif func == "min":
        acc[0] = value if acc[0] is None else min(acc[0], value)
    elif func == "max":
        acc[0] = value if acc[0] is None else max(acc[0], value)
    else:
        raise ExecutionError(f"unknown aggregate {func!r}")


def _merge_accumulator(target: list, source: list, func: str, distinct: bool) -> None:
    if distinct:
        target[0] |= source[0]
        return
    if func == "count":
        target[0] += source[0]
    elif func == "avg":
        target[0] += source[0]
        target[1] += source[1]
    elif func in ("sum", "min", "max"):
        if source[0] is None:
            return
        if target[0] is None:
            target[0] = source[0]
        elif func == "sum":
            target[0] += source[0]
        elif func == "min":
            target[0] = min(target[0], source[0])
        else:
            target[0] = max(target[0], source[0])
    else:
        raise ExecutionError(f"unknown aggregate {func!r}")


def _finalize(acc: list, func: str, distinct: bool):
    if distinct:
        values = acc[0]
        if func == "count":
            return len(values)
        if not values:
            return None
        if func == "sum":
            return sum(values)
        if func == "avg":
            return sum(values) / len(values)
        if func == "min":
            return min(values)
        if func == "max":
            return max(values)
        raise ExecutionError(f"unknown aggregate {func!r}")
    if func == "avg":
        return acc[0] / acc[1] if acc[1] else None
    return acc[0]


def _null_safe_key(value, ascending: bool):
    """NULLs sort last ascending (and, via reverse=, first descending)."""
    if value is None:
        return (1, 0)
    return (0, value)


def assign_splits(splits: list[FileSplit], worker_nodes: list[Node]) -> list[list]:
    """Distribute splits over worker slots, preferring local replicas.

    Greedy two-phase: first give every split a local worker when one has
    spare capacity; then round-robin the rest — the "best effort" locality
    the paper describes for spawning ML readers next to SQL workers applies
    the same way to DFS scans.
    """
    n = len(worker_nodes)
    target = -(-len(splits) // n) if splits else 0  # ceil
    assignments: list[list] = [[] for _ in range(n)]
    ip_to_worker = {node.ip: i for i, node in enumerate(worker_nodes)}
    leftovers = []
    for split in splits:
        placed = False
        for ip in split.locations():
            worker = ip_to_worker.get(ip)
            if worker is not None and len(assignments[worker]) < target:
                assignments[worker].append(split)
                placed = True
                break
        if not placed:
            leftovers.append(split)
    cursor = 0
    for split in leftovers:
        for _ in range(n):
            if len(assignments[cursor % n]) < target:
                break
            cursor += 1
        assignments[cursor % n].append(split)
        cursor += 1
    return assignments
