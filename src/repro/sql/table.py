"""Table storage: in-memory partitioned tables and DFS-backed external tables."""

from dataclasses import dataclass

from repro.common.errors import CatalogError
from repro.sql.types import Schema, estimate_rows_bytes


@dataclass
class Partition:
    """One horizontal slice of a table, pinned to a worker slot."""

    rows: list[tuple]
    worker_id: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def estimated_bytes(self) -> int:
        """Approximate in-memory/wire size of this partition."""
        return estimate_rows_bytes(self.rows)


@dataclass
class ExternalLocation:
    """Where an external table's data lives on the DFS."""

    path: str
    format: str = "csv"
    delimiter: str = ","


class Table:
    """A named relation: either memory-resident partitions or a DFS path.

    In-memory tables hold their rows in :class:`Partition` objects, one per
    worker slot, mirroring an MPP engine's per-node storage.  External tables
    (the paper stores carts/users "in text format on HDFS") record only their
    location; the scan operator reads and parses them through the DFS with
    full byte accounting.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        partitions: list[Partition] | None = None,
        external: ExternalLocation | None = None,
    ):
        if (partitions is None) == (external is None):
            raise CatalogError(
                f"table {name!r} must be either in-memory or external, not both/neither"
            )
        self.name = name
        self.schema = schema
        self.partitions = partitions
        self.external = external
        self._estimated_bytes: int | None = None

    @property
    def is_external(self) -> bool:
        return self.external is not None

    def num_rows(self) -> int:
        """Row count (in-memory tables only)."""
        if self.partitions is None:
            raise CatalogError(f"row count of external table {self.name!r} unknown")
        return sum(len(p) for p in self.partitions)

    def all_rows(self) -> list[tuple]:
        """Gather every row (in-memory tables only) in partition order."""
        if self.partitions is None:
            raise CatalogError(f"cannot gather external table {self.name!r}")
        rows: list[tuple] = []
        for partition in self.partitions:
            rows.extend(partition.rows)
        return rows

    def estimated_bytes(self) -> int:
        """Approximate size (in-memory tables only), computed once per
        contents: :meth:`rows_changed` forgets it."""
        if self.partitions is None:
            raise CatalogError(f"size of external table {self.name!r} unknown")
        if self._estimated_bytes is None:
            self._estimated_bytes = sum(p.estimated_bytes() for p in self.partitions)
        return self._estimated_bytes

    def rows_changed(self) -> None:
        """Forget what was computed from the rows (after an insert)."""
        self._estimated_bytes = None

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        kind = f"external:{self.external.path}" if self.external else (
            f"{len(self.partitions)} partitions, {self.num_rows()} rows"
        )
        return f"Table({self.name!r}, {kind})"


def partition_rows(rows: list[tuple], num_partitions: int) -> list[Partition]:
    """Round-robin rows into ``num_partitions`` partitions (MPP load style)."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    buckets: list[list[tuple]] = [[] for _ in range(num_partitions)]
    for i, row in enumerate(rows):
        buckets[i % num_partitions].append(row)
    return [Partition(rows=b, worker_id=w) for w, b in enumerate(buckets)]
