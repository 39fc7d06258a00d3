"""User-defined function interfaces — the engine's extensibility surface.

The paper's whole approach rests on this: "our techniques apply to any big
SQL system that supports UDFs".  Two kinds are supported:

* **scalar UDFs** — registered into the expression
  :class:`~repro.sql.expressions.FunctionRegistry`, usable anywhere an
  expression is;
* **parallel table UDFs** — subclasses of :class:`TableUDF`, invoked as
  ``SELECT ... FROM TABLE(name(input, args...))``.  The engine calls
  :meth:`TableUDF.process_batch` (or, where it declines,
  :meth:`TableUDF.process_partition`) once per partition, concurrently across
  worker slots, handing each invocation a :class:`UdfContext` describing its
  slot (worker id, node, total workers) and the engine services it may use
  (DFS handle, transfer coordinator, cost ledger).

All of §2's transformations and §3's streaming sender are implemented purely
against this interface — see :mod:`repro.transform` and
:mod:`repro.transfer`.
"""

from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.cost import CostLedger
from repro.cluster.node import Node
from repro.common.errors import ExecutionError
from repro.sql.types import Schema


@dataclass
class UdfContext:
    """What one table-UDF invocation knows about its execution slot."""

    worker_id: int
    num_workers: int
    node: Node
    ledger: CostLedger
    services: dict[str, Any] = field(default_factory=dict)

    def service(self, name: str) -> Any:
        """Fetch an engine service (e.g. ``"dfs"``, ``"coordinator"``)."""
        try:
            return self.services[name]
        except KeyError:
            raise KeyError(
                f"engine service {name!r} not available; registered: "
                f"{sorted(self.services)}"
            ) from None


class TableUDF(ABC):
    """A parallel table function: partitions in, rows out.

    Subclasses must be stateless across partitions (one instance serves all
    worker slots concurrently); per-invocation state belongs in local
    variables of :meth:`process_partition`.
    """

    #: Name used in ``TABLE(name(...))`` SQL syntax.
    name: str = ""

    @abstractmethod
    def output_schema(self, input_schema: Schema, args: tuple) -> Schema:
        """The schema of the rows this UDF produces for the given input."""

    def process_partition(
        self,
        rows: Iterable[tuple],
        input_schema: Schema,
        args: tuple,
        ctx: UdfContext,
    ) -> Iterable[tuple]:
        """Transform one input partition's rows into output rows; called
        only where :meth:`process_batch` declines."""
        raise ExecutionError(f"table UDF {self.name!r} has no row kernel")

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """The columnar kernel: consume one worker slot's
        :class:`~repro.columnar.batch.ColumnBatch` and return a ColumnBatch,
        a row list, or ``None`` to decline — the executor then calls
        :meth:`process_partition` over ``batch.to_rows()``.  The executor
        batches row output once, at this seam: every operator downstream
        reads batches."""
        return None
