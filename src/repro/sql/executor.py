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
from functools import cache, reduce
from operator import add
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
from repro.sql.types import Column, DataType, Schema
from repro.sql.udf import UdfContext


# Runtime conditions under which a vectorized kernel abdicates to the
# expression fallback: explicit fallbacks, plus numpy's type/shape errors on
# unexpected data.
_VECTOR_FALLBACK_ERRORS = (TypeError, ValueError, OverflowError)


@dataclass
class DistRelation:
    """An intermediate result: one :class:`~repro.columnar.batch.ColumnBatch`
    per worker slot, whatever operator produced it (DESIGN §10)."""

    schema: Schema
    partitions: list[ColumnBatch]

    def total_rows(self) -> int:
        return sum(len(p) for p in self.partitions)

    def all_rows(self) -> list[tuple]:
        return [row for p in self.partitions for row in p.to_rows()]

    def estimated_bytes(self) -> int:
        """Every row's seed byte estimate (``ColumnBatch.row_bytes``), summed."""
        return sum(p.logical_bytes() for p in self.partitions)


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
        partitions = [
            ColumnBatch.concat(
                plan.schema,
                [ColumnBatch.from_columns(plan.schema, p.columns, len(p)) for p in slot],
            )
            for slot in zip(*(relation.partitions for relation in results))
        ]
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

    def _gathered(self, schema: Schema, batch: ColumnBatch) -> DistRelation:
        """``batch`` on slot 0, every other slot empty: a global operator's
        result (sort, limit)."""
        empty = ColumnBatch.concat(schema, [])
        return DistRelation(schema, [batch] + [empty] * (self._ctx.num_workers - 1))

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
        """An in-memory table's kept columns: a fresh batch per slot over the
        stored (read-only) arrays, no copy."""
        return [
            ColumnBatch.from_columns(plan.schema, [b.columns[i] for i in plan.columns], len(b))
            for b in plan.table.partitions
        ]

    def _count_columnar_fallback(self) -> None:
        """Every expression that leaves the vector kernels for
        ``bind_batch`` (unsupported tree at compile time, VectorFallback at
        runtime, a join keyed through Python values) charges one
        ``columnar.fallback`` tick, so no deployment can quietly decay into
        the tuple evaluator."""
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
        # The expression fallback is compiled only if a batch needs it.
        evaluate = cache(lambda: predicate.bind_batch(self._binder(relation.schema)))

        def filter_partition(_w: int, batch: ColumnBatch) -> ColumnBatch:
            if vec_predicate is not None:
                try:
                    return batch.filter(vec_predicate(batch))
                except (vectorized.VectorFallback, *_VECTOR_FALLBACK_ERRORS):
                    self._count_columnar_fallback()
            kept = evaluate()(batch.to_rows())
            return batch.filter(
                np.fromiter((keep is True for keep in kept), dtype=np.bool_, count=len(kept))
            )

        partitions = self._map_partitions(relation.partitions, filter_partition)
        return DistRelation(schema=relation.schema, partitions=partitions)

    def _binder(self, schema: Schema) -> Binder:
        return Binder(schema, self._ctx.functions)

    def _projection(self, exprs: list, out_schema: Schema, schema: Schema):
        """``batch -> batch`` of ``exprs``: the vector kernel, or the
        ``bind_batch`` fallback, one ``columnar.fallback`` tick where the
        kernel is missing (once) or declines a batch (per batch)."""
        vec_project = vectorized.compile_projection(exprs, out_schema, schema)
        if vec_project is None:
            self._count_columnar_fallback()
        evaluators = cache(lambda: [e.bind_batch(self._binder(schema)) for e in exprs])

        def project(batch: ColumnBatch) -> ColumnBatch:
            if vec_project is not None:
                try:
                    return vec_project(batch)
                except (vectorized.VectorFallback, *_VECTOR_FALLBACK_ERRORS):
                    self._count_columnar_fallback()
            rows = batch.to_rows()
            columns = [
                ColumnVector.from_values(column.dtype, list(fn(rows)))
                for fn, column in zip(evaluators(), out_schema)
            ]
            return ColumnBatch.from_columns(out_schema, columns, len(rows))

        return project

    def _exec_project(self, plan: LogicalProject) -> DistRelation:
        child = self._execute(plan.child)
        project = self._projection(plan.exprs, plan.schema, child.schema)
        partitions = self._map_partitions(child.partitions, lambda _w, batch: project(batch))
        out = DistRelation(schema=plan.schema, partitions=partitions)
        self._ctx.ledger.add("sql.output", out.estimated_bytes())
        return out

    def _exec_table_function(self, plan: LogicalTableFunction) -> DistRelation:
        child = self._execute(plan.child)

        def run_udf(worker_id: int, batch: ColumnBatch) -> ColumnBatch:
            node = self._ctx.worker_nodes[worker_id % len(self._ctx.worker_nodes)]
            ctx = UdfContext(
                worker_id=worker_id,
                num_workers=self._ctx.num_workers,
                node=node,
                ledger=self._ctx.ledger,
                services=self._ctx.services,
            )
            out = plan.udf.process_batch(batch, child.schema, plan.args, ctx)
            if out is not None:
                return out
            # The UDF seam: a row UDF's output is batched here, once.
            rows = plan.udf.process_partition(batch.to_rows(), child.schema, plan.args, ctx)
            return ColumnBatch.from_rows(plan.schema, list(rows))

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
        tuple in between.  A broadcast join probes each probe-side partition
        against the one :class:`_JoinIndex`; a shuffle join first re-buckets
        the probe side by :func:`_hash_slots` and charges both sides' moved
        bytes.  Its build side is probed whole: equal keys hash to the same
        slot, so slot *t* finds exactly the build rows a physical shuffle
        would have sent there, in the same order."""
        n = self._ctx.num_workers
        build, probe = (left, right) if build_side == "left" else (right, left)
        builds, probes = build.partitions, probe.partitions
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
        """Local unique, hash-repartition on the row ``(row,)``, unique per
        slot: a slot holds its rows in order of first appearance, source
        slot by source slot."""
        child = self._execute(plan.child)
        n = self._ctx.num_workers
        local = self._map_partitions(
            child.partitions, lambda _w, b: b.take(group_codes(b.columns, b.num_rows)[1])
        )
        rows = ColumnBatch.concat(plan.schema, local)
        source = np.repeat(np.arange(n), [b.num_rows for b in local])
        target = _hash_slots(rows.columns, rows.num_rows, n, nest=True)
        self._ctx.ledger.add("sql.shuffle", int(rows.row_bytes()[target != source].sum()))
        # Equal rows share a target, so a row's first appearance on its slot
        # is its first appearance over all slots.
        first = group_codes(rows.columns, rows.num_rows)[1]
        return DistRelation(plan.schema, [rows.take(first[target[first] == t]) for t in range(n)])

    # -------------------------------------------------------------- aggregate

    def _exec_aggregate(self, plan: LogicalAggregate) -> DistRelation:
        """Group keys and aggregate arguments are projected into one batch
        per slot; each row moves to its group's slot (:func:`_hash_slots` of
        the key, or slot 0 without GROUP BY), where one grouped kernel
        (:func:`_aggregate`) reduces it.  Every (slot, group) that moves is
        charged as a partial aggregate would be, ``estimate_row_bytes(key) +
        32`` per call — a global aggregate has one group on every slot, empty
        or not."""
        child = self._execute(plan.child)
        n, width = self._ctx.num_workers, len(plan.group_exprs)
        args = [call.arg for call in plan.agg_calls if not _counts_rows(call)]
        binder = self._binder(child.schema)
        inputs = Schema(
            list(plan.schema)[:width]
            + [Column(f"__arg{i}", arg.data_type(binder)) for i, arg in enumerate(args)]
        )
        project = self._projection(plan.group_exprs + args, inputs, child.schema)
        key_schema = Schema(list(inputs)[:width])
        partial_bytes = 32 * len(plan.agg_calls)

        def place(w: int, batch: ColumnBatch) -> tuple[ColumnBatch, np.ndarray, int]:
            batch = project(batch)
            keys = ColumnBatch.from_columns(key_schema, batch.columns[:width], batch.num_rows)
            if width:
                codes, first = group_codes(keys.columns, keys.num_rows)
                groups = keys.take(first)
                targets = _hash_slots(groups.columns, groups.num_rows, n)
            else:
                codes = np.zeros(batch.num_rows, dtype=np.int64)
                groups = ColumnBatch.from_columns(key_schema, [], 1)
                targets = np.zeros(1, dtype=np.int64)
            moved = targets != w
            charge = int(groups.row_bytes()[moved].sum()) + partial_bytes * int(moved.sum())
            return batch, targets[codes], charge

        placed = self._map_partitions(child.partitions, place)
        self._ctx.ledger.add("sql.shuffle", sum(charge for _b, _s, charge in placed))
        rows = ColumnBatch.concat(inputs, [b for b, _s, _c in placed])
        target = np.concatenate([s for _b, s, _c in placed])
        buckets = [rows.take(np.flatnonzero(target == t)) for t in range(n)]

        def aggregate(t: int, batch: ColumnBatch) -> ColumnBatch:
            if not width and t:
                return ColumnBatch.concat(plan.schema, [])
            return _aggregate(batch, width, plan.agg_calls, plan.schema)

        return DistRelation(plan.schema, self._map_partitions(buckets, aggregate))

    # ------------------------------------------------------------ sort/limit

    def _exec_sort(self, plan: LogicalSort) -> DistRelation:
        """A stable sort of all rows onto slot 0: NULLs last ascending and
        first descending, NaN after every number."""
        child = self._execute(plan.child)
        whole = ColumnBatch.concat(plan.schema, child.partitions)
        columns = self._key_columns([expr for expr, _asc in plan.keys], plan.schema)(whole)
        sort_keys = []
        for key, (_expr, ascending) in zip(columns, plan.keys):
            rank, size = _column_codes(key, whole.num_rows, ordered=True)
            sort_keys.append(rank if ascending else size - 1 - rank)
        return self._gathered(plan.schema, whole.take(np.lexsort(sort_keys[::-1])))

    def _exec_limit(self, plan: LogicalLimit) -> DistRelation:
        child = self._execute(plan.child)
        taken, left = [], plan.limit
        for batch in child.partitions:
            taken.append(batch.take(np.arange(min(left, batch.num_rows))))
            left -= taken[-1].num_rows
        return self._gathered(plan.schema, ColumnBatch.concat(plan.schema, taken))


class _JoinIndex:
    """The build side of a join: each row's key factorised into one int64
    code, the codes stably argsorted once, and rows of equal key keep build
    order.  Where the code space is small next to the build (a single-key
    join's always is), the build rows are also counted per code, so a probe
    finds its run of build rows by two gathers; elsewhere by two
    ``searchsorted`` calls.  Both give the same pairs.

    The code is a mixed radix over the key positions.  A position that is a
    typed array on every side is coded by the build's values: a VARCHAR part
    is its dictionary code, a numeric part its rank among the build's
    distinct values — read from a table over ``[min, max]`` for an integer
    key of narrow span, else found by ``searchsorted``.  The other
    positions — Python values from ``bind_batch``, VARCHAR against
    non-VARCHAR, INT against DOUBLE beyond 2**53, where numpy's comparison
    is not Python's — are coded together through one Python-value domain:
    a dict over the build side's key tuples, which matches by ``==`` and
    ``hash`` as a tuple hash join does.  So is every position when the
    radix would pass 2**62.  A row with a NULL (or NaN) key part has no code
    and never matches."""

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
        space = math.prod(max(len(domain), 1) for domain in domains)
        if space >= 2**62:
            self._domains, self.python = {}, list(positions)
            self._tuples = _tuple_domain(keys, self.python)
            space = max(len(self._tuples), 1)
        self._tables = {
            p: table for p, domain in self._domains.items()
            if (table := _rank_table(domain)) is not None
        }
        codes = self.codes(keys, batch.num_rows)
        order = np.argsort(codes, kind="stable")[np.count_nonzero(codes < 0) :]
        self._sorted = codes[order]
        # Each code's run of sorted build rows, (first, count), by address;
        # the slot past the last code counts 0, so code -1 reads no run.
        self._runs = None
        if _addressable(space, batch.num_rows):
            counts = np.bincount(self._sorted, minlength=space + 1)
            self._runs = (np.cumsum(counts) - counts, counts)
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
            elif position in self._tables and key.values.dtype.kind == "i":
                low, table = self._tables[position]
                values = key.values.astype(np.int64, copy=False)
                inside = key.valid & (values >= low) & (values <= low + len(table) - 1)
                part = np.where(inside, table[np.where(inside, values, low) - low], -1)
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
        if self._runs is None:
            first = np.searchsorted(self._sorted, codes, "left")
            counts = np.searchsorted(self._sorted, codes, "right") - first
        else:
            first, counts = (column[codes] for column in self._runs)
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


def _addressable(span: int, entries: int) -> bool:
    """Whether a table of ``span`` slots over ``entries`` entries is small
    enough to address directly: four slots an entry, plus 1 024."""
    return span <= 4 * entries + 1024


def _rank_table(domain) -> tuple[int, np.ndarray] | None:
    """An integer domain's ranks by address, ``(min, table)``: the table
    over ``[min, max]`` holds each value's rank and -1 between.  None for
    any other domain, or where the span is too wide for its size."""
    if isinstance(domain, dict) or domain.dtype.kind != "i" or not len(domain):
        return None
    low, high = int(domain[0]), int(domain[-1])  # Python ints: no overflow
    if not _addressable(high - low + 1, len(domain)):
        return None
    table = np.full(high - low + 1, -1, dtype=np.int64)
    table[domain - low] = np.arange(len(domain))
    return low, table


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


def _key_column(key):
    """A key as the codings read it: a ``VCol`` over typed storage, or the
    Python values of an ``object`` column or of ``bind_batch``."""
    if isinstance(key, ColumnVector):
        return key.to_pylist() if key.is_object else vectorized.VCol(
            key.data, key.valid, key.dictionary
        )
    return key


def _values_at(key, rows: np.ndarray) -> list:
    """The Python values of a key at ``rows``."""
    key = _key_column(key)
    if isinstance(key, vectorized.VCol):
        return vectorized.VCol(key.values[rows], key.valid[rows], key.dictionary).to_pylist()
    return [key[i] for i in rows.tolist()]


def _column_codes(key, num_rows: int, ordered: bool = False) -> tuple[np.ndarray, int]:
    """One key column as ``(part, size)``: each row's code in ``range(size)``,
    equal values sharing one, NaN coded ``size - 2`` and NULL ``size - 1``.
    ``ordered`` codes values in rising order (Python's; a VARCHAR by its
    words); otherwise a VARCHAR is coded by its dictionary and Python
    values by first appearance, which needs no order between them."""
    key = _key_column(key)
    if not isinstance(key, vectorized.VCol):
        distinct = list(dict.fromkeys(v for v in key if not _no_match(v)))
        if ordered:
            distinct.sort()
        lookup = {value: code for code, value in enumerate(distinct)}
        u = len(distinct)
        part = np.fromiter(
            (u + 1 if v is None else u if v != v else lookup[v] for v in key),
            dtype=np.int64,
            count=num_rows,
        )
        return part, u + 2
    if key.dictionary is not None:
        words = list(dict.fromkeys(key.dictionary))
        if ordered:
            words.sort()
        lookup = {word: code for code, word in enumerate(words)}
        u = len(words)
        codes = np.fromiter(map(lookup.__getitem__, key.dictionary), dtype=np.int64,
                            count=len(key.dictionary))
        return np.append(codes, u + 1)[np.where(key.valid, key.values, -1)], u + 2
    clean = key.valid.copy()
    nan = np.zeros(num_rows, dtype=np.bool_)
    if key.values.dtype.kind == "f":
        nan = clean & np.isnan(key.values)
        clean &= ~nan
    uniques, inverse = np.unique(key.values[clean], return_inverse=True)
    u = len(uniques)
    part = np.full(num_rows, u + 1, dtype=np.int64)
    part[clean] = inverse
    part[nan] = u
    return part, u + 2


def group_codes(keys: list, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The grouping primitive: key columns (``ColumnVector``, ``VCol`` or
    Python values) of ``num_rows`` rows -> ``(codes, first)``, each row's
    group numbered in order of first appearance and each group's first row.
    Rows group where every key is equal: NULL is one group and NaN another
    (PostgreSQL's NaN = NaN).  The codes are a mixed radix over the
    columns' codes, made dense again before it would pass 2**62."""
    codes = np.zeros(num_rows, dtype=np.int64)
    for key in keys:
        part, size = _column_codes(key, num_rows)
        if size * (int(codes.max(initial=0)) + 1) >= 2**62:
            codes = np.unique(codes, return_inverse=True)[1]
        codes = codes * size + part
    _distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


#: What a NULL or NaN key part hashes as.  ``hash(None)`` is an address on
#: CPython before 3.12 and ``hash(nan)`` depends on the object, so either
#: would place a NULL key differently in every process; an int hashes the
#: same everywhere, and sharing a slot with the key 0 is harmless.
_NULL_PART = 0


def _hash_slots(keys: list, num_rows: int, n: int, nest: bool = False) -> np.ndarray:
    """``hash(key) % n`` of every row's Python key tuple — ``hash((key,))``
    with ``nest``, DISTINCT's placement of a whole row — a NULL or NaN part
    placed as :data:`_NULL_PART`: the one placement of every shuffle, hashed
    once per distinct key."""
    codes, first = group_codes(keys, num_rows)
    parts = [
        [_NULL_PART if _no_match(v) else v for v in _values_at(key, first)] for key in keys
    ]
    slots = np.fromiter(
        (hash((key,) if nest else key) % n for key in zip(*parts)),
        dtype=np.int64,
        count=len(first),
    )
    return slots[codes]


def _counts_rows(call) -> bool:
    """COUNT(*): reads no argument."""
    return call.func == "count" and isinstance(call.arg, Star)


def _aggregate(batch: ColumnBatch, width: int, calls: list, schema: Schema) -> ColumnBatch:
    """One slot's rows — ``width`` group keys, then the argument of every
    call but COUNT(*) — as one row per group, groups in order of first
    appearance; with no key, all rows are one group, also when there are
    none."""
    keys = batch.columns[:width]
    if width:
        codes, first = group_codes(keys, batch.num_rows)
    else:
        codes, first = np.zeros(batch.num_rows, dtype=np.int64), np.zeros(1, dtype=np.int64)
    columns = [key.take(first) for key in keys]
    args = iter(batch.columns[width:])
    for call, column in zip(calls, list(schema)[width:]):
        arg = None if _counts_rows(call) else next(args)
        columns.append(_reduce(call, arg, codes, len(first), column.dtype))
    return ColumnBatch.from_columns(schema, columns, len(first))


def _reduce(call, arg, codes: np.ndarray, groups: int, dtype: DataType) -> ColumnVector:
    """One aggregate call over every group: COUNT by ``bincount``; SUM and
    AVG by Python's ``+`` over each group's values in row order (exact for
    integers); MIN/MAX as the group's first/last row in value order (NaN
    after every number).  A DISTINCT call reads each group's first row of
    each value."""
    every = np.ones(groups, dtype=np.bool_)
    if arg is None:
        return ColumnVector(dtype, np.bincount(codes, minlength=groups), every)
    rows = np.flatnonzero(arg.valid)
    if call.distinct:
        pairs = [vectorized.VCol(codes[rows], np.ones(len(rows), dtype=np.bool_)), arg.take(rows)]
        rows = rows[group_codes(pairs, len(rows))[1]]
    present = codes[rows]
    counts = np.bincount(present, minlength=groups)
    if call.func == "count":
        return ColumnVector(dtype, counts, every)
    if not len(rows):
        return ColumnVector.from_values(dtype, [None] * groups)
    if call.func in ("min", "max"):
        has = counts > 0
        rank, _size = _column_codes(arg.take(rows), len(rows), ordered=True)
        order = rows[np.lexsort((rank, present))]
        at = np.cumsum(counts) - (counts if call.func == "min" else 1)
        picked = arg.take(order[np.where(has, at, 0)])
        return ColumnVector(dtype, picked.data, picked.valid & has, picked.dictionary)
    members: list[list] = [[] for _ in range(groups)]
    for group, value in zip(present.tolist(), arg.take(rows).to_pylist()):
        members[group].append(value)
    totals = [reduce(add, values) if values else None for values in members]
    if call.func == "avg":
        totals = [t if t is None else t / len(m) for t, m in zip(totals, members)]
    return ColumnVector.from_values(dtype, totals)


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
