"""Table storage: in-memory partitioned tables and DFS-backed external tables."""

from dataclasses import dataclass

from repro.columnar.batch import ColumnBatch
from repro.common.errors import CatalogError
from repro.sql.types import Schema


@dataclass
class ExternalLocation:
    """Where an external table's data lives on the DFS."""

    path: str
    format: str = "csv"
    delimiter: str = ","


class Table:
    """A named relation: either memory-resident partitions or a DFS path.

    In-memory tables hold one :class:`~repro.columnar.batch.ColumnBatch` per
    worker slot, mirroring an MPP engine's per-node storage; their column
    arrays are read-only, so no kernel can change a table in place.
    External tables (the paper stores carts/users "in text format on HDFS")
    record only their location; the scan operator reads and parses them
    through the DFS with full byte accounting.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        partitions: list[ColumnBatch] | None = None,
        external: ExternalLocation | None = None,
    ):
        if (partitions is None) == (external is None):
            raise CatalogError(
                f"table {name!r} must be either in-memory or external, not both/neither"
            )
        self.name = name
        self.schema = schema
        self.partitions = None if partitions is None else [stored(b) for b in partitions]
        self.external = external

    @property
    def is_external(self) -> bool:
        return self.external is not None

    def num_rows(self) -> int:
        """Row count (in-memory tables only)."""
        if self.partitions is None:
            raise CatalogError(f"row count of external table {self.name!r} unknown")
        return sum(len(p) for p in self.partitions)

    def estimated_bytes(self) -> int:
        """Approximate size (in-memory tables only): every slot's
        ``logical_bytes``."""
        if self.partitions is None:
            raise CatalogError(f"size of external table {self.name!r} unknown")
        return sum(p.logical_bytes() for p in self.partitions)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        kind = f"external:{self.external.path}" if self.external else (
            f"{len(self.partitions)} partitions, {self.num_rows()} rows"
        )
        return f"Table({self.name!r}, {kind})"


def stored(batch: ColumnBatch) -> ColumnBatch:
    """``batch`` as a table keeps it: its arrays set read-only."""
    for column in batch.columns:
        column.data.flags.writeable = False
        column.valid.flags.writeable = False
    return batch
