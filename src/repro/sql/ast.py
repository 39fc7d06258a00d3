"""Query-level AST nodes (above the expression layer)."""

from dataclasses import dataclass

from repro.sql.expressions import Expr


@dataclass(frozen=True)
class SelectItem:
    """One entry of a SELECT list: an expression plus optional alias."""

    expr: Expr
    alias: str | None = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()


class TableRef:
    """Base of FROM-clause items."""


@dataclass(frozen=True)
class NamedTable(TableRef):
    """A catalog table with an optional alias: ``users U``."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


@dataclass(frozen=True)
class TableFunction(TableRef):
    """A parallel table UDF in the FROM clause.

    Syntax: ``TABLE(udf_name(input, arg, ...)) AS alias`` where ``input`` is
    a table name or a parenthesized subquery, and the remaining arguments are
    constant expressions handed to the UDF.  This is the paper's
    extensibility hook: recoding pass 1, dummy coding, and the streaming
    sender are all invoked this way.
    """

    udf_name: str
    input_ref: TableRef
    args: tuple = ()
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.udf_name

    def to_sql(self) -> str:
        parts = [self.input_ref.to_sql()]
        parts.extend(a.to_sql() for a in self.args)
        text = f"TABLE({self.udf_name}({', '.join(parts)}))"
        if self.alias:
            text += f" AS {self.alias}"
        return text


@dataclass(frozen=True)
class SubqueryRef(TableRef):
    """A derived table: ``(SELECT ...) AS alias``, or a UNION ALL of them."""

    query: "SelectQuery | UnionAll"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias

    def to_sql(self) -> str:
        return f"({self.query.to_sql()}) AS {self.alias}"


@dataclass(frozen=True)
class Join(TableRef):
    """An explicit ``A [INNER|LEFT] JOIN B ON cond``."""

    left: TableRef
    right: TableRef
    kind: str  # "inner" | "left"
    condition: Expr

    def to_sql(self) -> str:
        keyword = "LEFT JOIN" if self.kind == "left" else "JOIN"
        return f"{self.left.to_sql()} {keyword} {self.right.to_sql()} ON {self.condition.to_sql()}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    ascending: bool = True

    def to_sql(self) -> str:
        return self.expr.to_sql() + ("" if self.ascending else " DESC")


@dataclass(frozen=True)
class UnionAll:
    """``query UNION ALL query [UNION ALL ...]`` — bag union of branches."""

    branches: tuple["SelectQuery", ...]

    def to_sql(self) -> str:
        return " UNION ALL ".join(b.to_sql() for b in self.branches)


@dataclass(frozen=True)
class SelectQuery:
    """A full SELECT statement."""

    items: tuple[SelectItem, ...]
    from_refs: tuple[TableRef, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.items))
        parts.append("FROM " + ", ".join(ref.to_sql() for ref in self.from_refs))
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql())
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)
