"""User-defined function interfaces — the engine's extensibility surface.

The paper's whole approach rests on this: "our techniques apply to any big
SQL system that supports UDFs".  Two kinds are supported:

* **scalar UDFs** — registered into the expression
  :class:`~repro.sql.expressions.FunctionRegistry`, usable anywhere an
  expression is;
* **parallel table UDFs** — subclasses of :class:`TableUDF`, invoked as
  ``SELECT ... FROM TABLE(name(input, args...))``.  The engine calls
  :meth:`TableUDF.process_batch` once per partition, concurrently across
  worker slots, handing each invocation a :class:`UdfContext` describing its
  slot (worker id, node, total workers) and the engine services it may use
  (DFS handle, transfer coordinator, cost ledger).  A UDF without a batch
  kernel — a user's, written over rows — implements
  :meth:`TableUDF.process_partition` instead.

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
    """A parallel table function: one worker slot's partition in, that
    slot's output out.

    Subclasses must be stateless across partitions (one instance serves all
    worker slots concurrently); per-invocation state belongs in local
    variables of :meth:`process_batch` or :meth:`process_partition`.
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
        """The row hook: transform one partition's rows into output rows.
        Called only where :meth:`process_batch` returns ``None``; the
        executor batches the rows once, at this seam."""
        raise ExecutionError(f"table UDF {self.name!r} has no row kernel")

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """The batch kernel: consume one worker slot's
        :class:`~repro.columnar.batch.ColumnBatch` and return the output as a
        ColumnBatch of :meth:`output_schema`, or ``None`` (the default) to
        have the executor call :meth:`process_partition` over
        ``batch.to_rows()`` instead.  Every built-in UDF but the broker
        sender is a batch kernel."""
        return None
