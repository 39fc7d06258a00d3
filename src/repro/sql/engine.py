"""The ``BigSQL`` engine facade — the library's stand-in for a big SQL system."""

from collections.abc import Callable
from typing import Any

from repro.cluster.cluster import Cluster
from repro.columnar.batch import ColumnBatch
from repro.common.errors import CatalogError, HdfsError
from repro.sql.ast import SelectQuery
from repro.sql.catalog import Catalog
from repro.sql.executor import DistRelation, ExecutionContext, Executor, group_codes
from repro.sql.expressions import FunctionRegistry
from repro.sql.parser import parse
from repro.sql.plan import LogicalPlan
from repro.sql.planner import Planner, PlannerContext
from repro.sql.table import Table, stored
from repro.sql.types import DataType, Schema
from repro.sql.udf import TableUDF


class BigSQL:
    """A partition-parallel SQL engine bound to a cluster.

    One worker slot per cluster worker node (the paper runs "1 Big SQL
    worker with multi-threading on each server").  Tables live either in
    memory, partitioned across slots, or externally as text on the attached
    DFS.  Extensibility — scalar UDFs and parallel table UDFs — is the
    public surface everything in this reproduction builds on.
    """

    def __init__(self, cluster: Cluster, dfs: Any = None):
        self.cluster = cluster
        self.dfs = dfs
        self.num_workers = len(cluster.workers)
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self.services: dict[str, Any] = {"engine": self}
        if dfs is not None:
            self.services["dfs"] = dfs

    # ----------------------------------------------------------------- DDL

    def create_table(self, name: str, schema: Schema, rows: list[tuple]) -> Table:
        """Create an in-memory table, round-robin partitioned across slots."""
        table = Table(name=name, schema=schema, partitions=self._dealt(schema, rows))
        self.catalog.add_table(table)
        return table

    def register_external_table(
        self,
        name: str,
        schema: Schema,
        path: str,
        delimiter: str = ",",
        format: str = "csv",
    ) -> Table:
        """Register a DFS-resident table, scanned and decoded on read.

        ``format`` is ``"csv"`` (line-oriented text, the paper's setup) or
        ``"columnar"`` (dictionary-encoded part files, see
        :mod:`repro.columnar`)."""
        if self.dfs is None:
            raise CatalogError("external tables require a DFS-attached engine")
        if format not in ("csv", "columnar"):
            raise CatalogError(f"unknown external format {format!r}")
        from repro.sql.table import ExternalLocation

        table = Table(
            name=name,
            schema=schema,
            external=ExternalLocation(path=path, delimiter=delimiter, format=format),
        )
        self.catalog.add_table(table)
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog (external data stays on the DFS)."""
        self.catalog.drop_table(name)

    def insert_rows(self, name: str, rows: list[tuple]) -> None:
        """Append rows to an in-memory table; bumps the table version so
        caches built on the old contents invalidate (§5 assumes no updates —
        this is the hook that enforces it)."""
        entry = self.catalog.get_entry(name)
        table = entry.table
        if table.is_external:
            raise CatalogError(f"cannot insert into external table {name!r}")
        table.partitions = [
            stored(ColumnBatch.concat(table.schema, [old, new]))
            for old, new in zip(table.partitions, self._dealt(table.schema, rows))
        ]
        self.catalog.bump_version(name)

    # ----------------------------------------------------------------- UDFs

    def register_scalar_udf(self, name: str, fn: Callable, return_type: DataType) -> None:
        """Make ``fn`` callable from any SQL expression."""
        self.functions.register(name, fn, return_type)

    def register_table_udf(self, udf: TableUDF) -> None:
        """Make ``udf`` invocable as ``TABLE(name(input, args...))``."""
        self.catalog.register_table_udf(udf)

    def add_service(self, name: str, service: Any) -> None:
        """Expose an object (coordinator, cache, ...) to table UDF contexts."""
        self.services[name] = service

    # ------------------------------------------------------------- ANALYZE

    def analyze(self, name: str):
        """Compute and store table statistics (row count, per-column NDV).

        One full scan through the normal executor — external tables pay
        their DFS read like any other scan.  A column's NDV counts its
        groups (:func:`~repro.sql.executor.group_codes`) but NULL's, so NaN
        counts once.  The planner consumes the stats for selectivity
        estimation and join ordering until the table's version changes."""
        from repro.sql.catalog import TableStats

        entry = self.catalog.get_entry(name)
        relation = self.execute_distributed(f"SELECT * FROM {name}")
        row_count = relation.total_rows()
        whole = ColumnBatch.concat(relation.schema, relation.partitions)
        stats = TableStats(
            row_count=row_count,
            avg_row_bytes=(relation.estimated_bytes() / row_count) if row_count else 0.0,
            ndv={
                column.name.lower(): len(group_codes([vector], row_count)[1])
                - int(not vector.valid.all())
                for column, vector in zip(relation.schema, whole.columns)
            },
            analyzed_version=entry.version,
        )
        entry.stats = stats
        return stats

    # ---------------------------------------------------------------- query

    def parse(self, sql: str) -> SelectQuery:
        """Parse only (used by the rewriter and tests)."""
        return parse(sql)

    def plan(self, query: str | SelectQuery) -> LogicalPlan:
        """Parse (if needed) and plan a query."""
        if isinstance(query, str):
            query = parse(query)
        planner = Planner(
            PlannerContext(
                resolve_table=self.catalog.get_table,
                resolve_table_udf=self.catalog.get_table_udf,
                functions=self.functions,
                estimate_table_bytes=self._estimate_table_bytes,
                table_stats=self._fresh_table_stats,
            )
        )
        return planner.plan(query)

    def explain(self, query: str | SelectQuery) -> str:
        """Human-readable plan tree."""
        return self.plan(query).explain()

    def execute_distributed(self, query: str | SelectQuery) -> DistRelation:
        """Run a query, keeping the per-slot partition structure."""
        plan = self.plan(query)
        executor = Executor(
            ExecutionContext(
                num_workers=self.num_workers,
                worker_nodes=list(self.cluster.workers),
                ledger=self.cluster.ledger,
                functions=self.functions,
                services=dict(self.services),
                dfs=self.dfs,
            )
        )
        return executor.execute(plan)

    def query_rows(self, sql: str) -> list[tuple]:
        """Run a query and gather its result rows, slot by slot: the
        engine's one row-out edge."""
        return self.execute_distributed(sql).all_rows()

    # ---------------------------------------------------------------- views

    def create_materialized_view(self, name: str, sql: str) -> Table:
        """Execute ``sql`` and store its result under ``name``.

        The parsed definition is kept in the catalog so the rewriter can
        match later queries against it (§5's "similar to utilizing
        materialized views in query optimization")."""
        query = parse(sql)
        relation = self.execute_distributed(query)
        table = Table(name=name, schema=relation.schema, partitions=relation.partitions)
        self.catalog.add_table(table, definition=query)
        return table

    # -------------------------------------------------------------- internal

    def _dealt(self, schema: Schema, rows) -> list[ColumnBatch]:
        """The row-in edge: row ``i`` to slot ``i % n``, each slot's rows
        pivoted once into a batch."""
        rows, n = list(rows), self.num_workers
        return [ColumnBatch.from_rows(schema, rows[w::n]) for w in range(n)]

    def _fresh_table_stats(self, table: Table):
        try:
            return self.catalog.get_entry(table.name).fresh_stats()
        except CatalogError:
            return None

    def _estimate_table_bytes(self, table: Table) -> float:
        if table.is_external:
            if self.dfs is None:
                return float(2**40)
            # Only a typed DFS failure (path missing, block lost) degrades to
            # the pessimistic 2^40 estimate — and each such degradation is
            # counted, so a planner silently costing on fiction is visible.
            # Any other exception is a bug and propagates.
            try:
                return float(self.dfs.total_size(table.external.path))
            except HdfsError:
                self.cluster.ledger.add("planner.estimate_fallback", 1)
                return float(2**40)
        return float(table.estimated_bytes())

