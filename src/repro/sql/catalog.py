"""Catalog: tables, materialized views, table UDFs, versions."""

import threading
from dataclasses import dataclass

from repro.common.errors import CatalogError
from repro.sql.ast import SelectQuery
from repro.sql.table import Table
from repro.sql.udf import TableUDF


@dataclass(frozen=True)
class TableStats:
    """ANALYZE output: cardinality and per-column distinct counts.

    ``ndv`` maps lowercase column name to the number of distinct non-NULL
    values; the planner uses it for equality-predicate selectivity and join
    ordering.  ``analyzed_version`` records the table version the stats were
    computed against — stale stats are ignored.
    """

    row_count: int
    avg_row_bytes: float
    ndv: dict[str, int]
    analyzed_version: int

    @property
    def total_bytes(self) -> float:
        return self.row_count * self.avg_row_bytes


@dataclass
class CatalogEntry:
    """One catalog object: the table plus bookkeeping.

    ``definition`` is set for materialized views: the parsed query whose
    result the table holds.  The rewriter's cache-matching (§5) consults it.
    ``version`` increments on every data change; caches remember the version
    they were built against and treat mismatches as stale.
    ``stats`` holds the latest ANALYZE result, if any.
    """

    table: Table
    definition: SelectQuery | None = None
    version: int = 0
    stats: TableStats | None = None

    def fresh_stats(self) -> TableStats | None:
        """Stats, unless the table changed since they were computed."""
        if self.stats is not None and self.stats.analyzed_version == self.version:
            return self.stats
        return None


class Catalog:
    """Thread-safe name -> entry registry."""

    def __init__(self):
        self._entries: dict[str, CatalogEntry] = {}
        self._table_udfs: dict[str, TableUDF] = {}
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- tables

    def add_table(self, table: Table, definition: SelectQuery | None = None) -> None:
        key = table.name.lower()
        with self._lock:
            if key in self._entries:
                raise CatalogError(f"table {table.name!r} already exists")
            self._entries[key] = CatalogEntry(table=table, definition=definition)

    def get_table(self, name: str) -> Table:
        return self.get_entry(name).table

    def get_entry(self, name: str) -> CatalogEntry:
        with self._lock:
            entry = self._entries.get(name.lower())
        if entry is None:
            raise CatalogError(
                f"unknown table {name!r}; known: {sorted(self._entries)}"
            )
        return entry

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._entries

    def drop_table(self, name: str) -> None:
        with self._lock:
            if self._entries.pop(name.lower(), None) is None:
                raise CatalogError(f"unknown table {name!r}")

    def bump_version(self, name: str) -> int:
        """Record a data change; returns the new version."""
        entry = self.get_entry(name)
        with self._lock:
            entry.version += 1
            return entry.version

    # ------------------------------------------------------------ table UDFs

    def register_table_udf(self, udf: TableUDF) -> None:
        if not udf.name:
            raise CatalogError("table UDF must set a name")
        key = udf.name.lower()
        with self._lock:
            if key in self._table_udfs:
                raise CatalogError(f"table UDF {udf.name!r} already registered")
            self._table_udfs[key] = udf

    def get_table_udf(self, name: str) -> TableUDF:
        with self._lock:
            udf = self._table_udfs.get(name.lower())
        if udf is None:
            raise CatalogError(
                f"unknown table UDF {name!r}; known: {sorted(self._table_udfs)}"
            )
        return udf
