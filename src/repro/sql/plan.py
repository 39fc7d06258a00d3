"""Logical plan nodes produced by the planner, consumed by the executor."""

from dataclasses import dataclass, field

from repro.sql.expressions import AggregateCall, Expr
from repro.sql.table import Table
from repro.sql.types import Schema
from repro.sql.udf import TableUDF


class LogicalPlan:
    """Base class; every node exposes its output :attr:`schema`."""

    schema: Schema

    def children(self) -> list["LogicalPlan"]:
        return []

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan tree (for tests and debugging)."""
        line = "  " * indent + self.describe()
        return "\n".join([line] + [c.explain(indent + 1) for c in self.children()])

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class LogicalScan(LogicalPlan):
    """Scan a catalog table under a binding qualifier, with an optional
    pushed-down filter.

    ``columns`` are the indices into ``table.schema`` the scan produces, in
    table order; ``schema`` is exactly those columns (projection pushdown)."""

    table: Table
    qualifier: str | None
    schema: Schema
    columns: tuple[int, ...]
    pushed_filter: Expr | None = None

    def describe(self) -> str:
        text = f"Scan({self.table.name}"
        if self.qualifier and self.qualifier != self.table.name:
            text += f" AS {self.qualifier}"
        if len(self.columns) < len(self.table.schema):
            text += f", columns=[{', '.join(self.schema.names)}]"
        if self.pushed_filter is not None:
            text += f", filter={self.pushed_filter.to_sql()}"
        return text + ")"


@dataclass
class LogicalTableFunction(LogicalPlan):
    """Parallel table UDF over a child plan's partitions."""

    udf: TableUDF
    child: LogicalPlan
    args: tuple
    qualifier: str | None
    schema: Schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"TableFunction({self.udf.name})"


@dataclass
class LogicalFilter(LogicalPlan):
    """Row filter (predicate must be TRUE, not NULL)."""

    child: LogicalPlan
    predicate: Expr
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


@dataclass
class LogicalProject(LogicalPlan):
    """Compute output expressions; schema carries the output names."""

    child: LogicalPlan
    exprs: list[Expr]
    schema: Schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return "Project(" + ", ".join(e.to_sql() for e in self.exprs) + ")"


@dataclass
class LogicalJoin(LogicalPlan):
    """Equi-join with optional residual predicate; kind inner or left."""

    left: LogicalPlan
    right: LogicalPlan
    kind: str
    left_keys: list[Expr]
    right_keys: list[Expr]
    residual: Expr | None
    schema: Schema

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def describe(self) -> str:
        keys = ", ".join(
            f"{l.to_sql()}={r.to_sql()}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"Join({self.kind}, {keys})"


@dataclass
class LogicalDistinct(LogicalPlan):
    """Global row deduplication."""

    child: LogicalPlan
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]


@dataclass
class LogicalAggregate(LogicalPlan):
    """Grouped aggregation: one row per group, its ``group_exprs`` values
    and then one column per call of ``agg_calls``."""

    child: LogicalPlan
    group_exprs: list[Expr]
    agg_calls: list[AggregateCall]
    schema: Schema
    having: Expr | None = None

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        aggs = ", ".join(a.to_sql() for a in self.agg_calls)
        keys = ", ".join(e.to_sql() for e in self.group_exprs)
        return f"Aggregate(keys=[{keys}], aggs=[{aggs}])"


@dataclass
class LogicalUnionAll(LogicalPlan):
    """Bag union: branches concatenated per worker slot."""

    branches: list[LogicalPlan]
    schema: Schema

    def children(self) -> list[LogicalPlan]:
        return list(self.branches)

    def describe(self) -> str:
        return f"UnionAll({len(self.branches)} branches)"


@dataclass
class LogicalSort(LogicalPlan):
    """Global sort by (expr, ascending) keys; result lands on one partition."""

    child: LogicalPlan
    keys: list[tuple[Expr, bool]]
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        keys = ", ".join(e.to_sql() + ("" if asc else " DESC") for e, asc in self.keys)
        return f"Sort({keys})"


@dataclass
class LogicalLimit(LogicalPlan):
    """Keep the first n rows (global)."""

    child: LogicalPlan
    limit: int
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.limit})"
