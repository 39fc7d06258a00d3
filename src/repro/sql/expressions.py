"""Expression AST: evaluation, typing, references, and SQL rendering.

Expressions are frozen dataclasses, so two structurally identical expressions
compare and hash equal — the property the cache fingerprints (§5) and the
rewriter's predicate matching (§5.1/§5.2) are built on.  Their sub-expressions
are their fields: :func:`walk`, :meth:`Expr.references` and :func:`transform`
read them from ``dataclasses.fields``, so a node declares no traversal.

Evaluation uses SQL's three-valued logic: comparisons and arithmetic with a
NULL operand yield NULL; AND/OR follow Kleene logic; filters keep only rows
where the predicate is exactly TRUE.  :meth:`Expr.bind_batch` is the one row
evaluator (rows -> values over a whole partition); AND, OR, IN, CASE and
COALESCE run an operand only on the rows the earlier operands left
undecided, so ``a <> 0 AND 10 / a > 1`` never divides by zero.
"""

import dataclasses
import functools
import re
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ExecutionError, PlanError
from repro.sql.types import DataType, Schema


class Binder:
    """Resolution context for binding expressions to a row layout."""

    def __init__(self, schema: Schema, functions: "FunctionRegistry | None" = None):
        self.schema = schema
        self.functions = functions or FunctionRegistry()


class Expr(ABC):
    """Base class of all expression nodes."""

    @abstractmethod
    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        """Compile to a rows -> values evaluator over a whole partition: the
        one row evaluator, the executor's fallback where a vector kernel is
        missing or declines a batch.  AND, OR, IN, CASE and COALESCE are
        lazy: each operand runs only on the rows the earlier operands left
        undecided."""

    @abstractmethod
    def data_type(self, binder: Binder) -> DataType:
        """Static result type under the binder's schema."""

    @abstractmethod
    def to_sql(self) -> str:
        """Render back to SQL text (parseable by our parser)."""

    def references(self) -> set[tuple[str | None, str]]:
        """All (qualifier, column) pairs this expression reads."""
        return {(n.qualifier, n.name) for n in walk(self) if isinstance(n, ColumnRef)}

    def contains_aggregate(self) -> bool:
        """True when an AggregateCall appears anywhere in this tree."""
        return any(isinstance(node, AggregateCall) for node in walk(self))


@functools.cache
def _expr_fields(cls: type) -> tuple[str, ...] | None:
    """The field names of an expression class, None for any other type."""
    return tuple(f.name for f in dataclasses.fields(cls)) if issubclass(cls, Expr) else None


def walk(expr: Expr):
    """Yield ``expr`` and all its descendants, pre-order in field order (a
    tuple field, like CASE's ``whens``, is walked item by item)."""
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            stack.extend(reversed(node))
        elif (names := _expr_fields(type(node))) is not None:
            yield node
            stack.extend([getattr(node, name) for name in reversed(names)])


def _on(fn: Callable[[list[tuple]], list], rows: list[tuple], pending):
    """``(index, value)`` pairs of ``fn`` run on only the rows at the
    ascending ``pending`` indices."""
    subset = rows if len(pending) == len(rows) else [rows[i] for i in pending]
    return zip(pending, fn(subset))


def _sql_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


# --------------------------------------------------------------------- leaves


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference like ``U.age`` or ``gender``."""

    qualifier: str | None
    name: str

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        index = binder.schema.resolve(self.qualifier, self.name)
        return lambda rows: [row[index] for row in rows]

    def data_type(self, binder: Binder) -> DataType:
        index = binder.schema.resolve(self.qualifier, self.name)
        return binder.schema.column(index).dtype

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean, or NULL."""

    value: Any

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        value = self.value
        return lambda rows: [value] * len(rows)

    def data_type(self, binder: Binder) -> DataType:
        if self.value is None:
            return DataType.VARCHAR
        if isinstance(self.value, bool):
            return DataType.BOOLEAN
        if isinstance(self.value, int):
            return DataType.BIGINT
        if isinstance(self.value, float):
            return DataType.DOUBLE
        if isinstance(self.value, str):
            return DataType.VARCHAR
        raise PlanError(f"unsupported literal type: {type(self.value).__name__}")

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return _sql_string(self.value)
        return repr(self.value)


@dataclass(frozen=True)
class Star(Expr):
    """``*`` — valid only in SELECT lists and COUNT(*)."""

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        raise PlanError("* cannot be evaluated as a scalar expression")

    def data_type(self, binder: Binder) -> DataType:
        raise PlanError("* has no scalar type")

    def to_sql(self) -> str:
        return "*"


# ----------------------------------------------------------------- operators

def _sql_divide(a: Any, b: Any) -> Any:
    """SQL division: true division with a DOUBLE operand, otherwise integer
    division truncating toward zero (like DB2/Hive, unlike Python's floor)."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1
    return quotient


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _sql_divide,
    "%": lambda a, b: a % b,
}

CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _binary_batch(
    fn: Callable[[Any, Any], Any], expr: "Arithmetic | Comparison", binder: Binder
) -> Callable[[list[tuple]], list]:
    """``fn(left, right)`` per row, NULL when either side is NULL."""
    lhs, rhs = expr.left.bind_batch(binder), expr.right.bind_batch(binder)

    def evaluate(rows: list[tuple]) -> list:
        pairs = zip(lhs(rows), rhs(rows))
        try:
            return [None if a is None or b is None else fn(a, b) for a, b in pairs]
        except ZeroDivisionError:
            raise ExecutionError(f"division by zero in {expr.to_sql()}") from None

    return evaluate


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic (+ - * / %) with NULL propagation.

    ``/`` between two integers performs SQL-style integer division truncating
    toward zero; with any DOUBLE operand it is true division.
    """

    op: str
    left: Expr
    right: Expr

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        if self.op not in _ARITH_OPS:
            raise PlanError(f"unknown arithmetic operator {self.op!r}")
        return _binary_batch(_ARITH_OPS[self.op], self, binder)

    def data_type(self, binder: Binder) -> DataType:
        lt, rt = self.left.data_type(binder), self.right.data_type(binder)
        if not (lt.is_numeric and rt.is_numeric):
            if self.op == "+" and lt == rt == DataType.VARCHAR:
                return DataType.VARCHAR
            raise PlanError(
                f"arithmetic {self.op!r} needs numeric operands, got {lt} and {rt}"
            )
        if DataType.DOUBLE in (lt, rt):
            return DataType.DOUBLE
        if DataType.BIGINT in (lt, rt):
            return DataType.BIGINT
        return DataType.INT

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class Comparison(Expr):
    """Binary comparison with NULL propagation."""

    op: str
    left: Expr
    right: Expr

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        if self.op not in CMP_OPS:
            raise PlanError(f"unknown comparison operator {self.op!r}")
        return _binary_batch(CMP_OPS[self.op], self, binder)

    def data_type(self, binder: Binder) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"

    def flipped(self) -> "Comparison":
        """Mirror image: ``a < b`` becomes ``b > a`` (same truth value)."""
        flip = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return Comparison(flip[self.op], self.right, self.left)


def _kleene_batch(
    operands: tuple[Expr, ...], binder: Binder, decisive: bool
) -> Callable[[list[tuple]], list]:
    """AND (``decisive=False``) or OR (``decisive=True``): a row is decided
    by the first operand that yields ``decisive``, and later operands run
    only on the rows still undecided.  Those end NULL if an operand was."""
    fns = [op.bind_batch(binder) for op in operands]

    def evaluate(rows: list[tuple]) -> list:
        out = [not decisive] * len(rows)
        pending = range(len(rows))
        for fn in fns:
            undecided = []
            for i, value in _on(fn, rows, pending):
                if value is None:
                    out[i] = None
                    undecided.append(i)
                elif bool(value) is decisive:
                    out[i] = decisive
                else:
                    undecided.append(i)
            pending = undecided
        return out

    return evaluate


@dataclass(frozen=True)
class And(Expr):
    """Kleene conjunction over two or more operands."""

    operands: tuple[Expr, ...]

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        return _kleene_batch(self.operands, binder, decisive=False)

    def data_type(self, binder: Binder) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        return "(" + " AND ".join(op.to_sql() for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expr):
    """Kleene disjunction over two or more operands."""

    operands: tuple[Expr, ...]

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        return _kleene_batch(self.operands, binder, decisive=True)

    def data_type(self, binder: Binder) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        return "(" + " OR ".join(op.to_sql() for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation (NULL stays NULL)."""

    operand: Expr

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        fn = self.operand.bind_batch(binder)
        return lambda rows: [None if v is None else (not v) for v in fn(rows)]

    def data_type(self, binder: Binder) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"


@dataclass(frozen=True)
class Negate(Expr):
    """Unary minus."""

    operand: Expr

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        fn = self.operand.bind_batch(binder)
        return lambda rows: [None if v is None else -v for v in fn(rows)]

    def data_type(self, binder: Binder) -> DataType:
        return self.operand.data_type(binder)

    def to_sql(self) -> str:
        return f"(-{self.operand.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL`` — never returns NULL itself."""

    operand: Expr
    negated: bool = False

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        fn = self.operand.bind_batch(binder)
        if self.negated:
            return lambda rows: [v is not None for v in fn(rows)]
        return lambda rows: [v is None for v in fn(rows)]

    def data_type(self, binder: Binder) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.to_sql()} {suffix}"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal members."""

    operand: Expr
    values: tuple[Expr, ...]
    negated: bool = False

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        fn = self.operand.bind_batch(binder)
        member_fns = [v.bind_batch(binder) for v in self.values]
        negated = self.negated

        def evaluate(rows: list[tuple]) -> list:
            values = fn(rows)
            out = [None] * len(rows)
            # Members are evaluated only where the operand is not NULL.
            pending = [i for i, value in enumerate(values) if value is not None]
            kept = [rows[i] for i in pending]
            member_columns = [m(kept) for m in member_fns]
            for k, i in enumerate(pending):
                members = [column[k] for column in member_columns]
                found = values[i] in [m for m in members if m is not None]
                if found or all(m is not None for m in members):
                    out[i] = (not found) if negated else found
            return out

        return evaluate

    def data_type(self, binder: Binder) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        members = ", ".join(v.to_sql() for v in self.values)
        return f"{self.operand.to_sql()} {keyword} ({members})"


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN lo AND hi`` (inclusive both ends)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        fn = self.operand.bind_batch(binder)
        lo_fn, hi_fn = self.low.bind_batch(binder), self.high.bind_batch(binder)
        negated = self.negated

        def evaluate(rows: list[tuple]) -> list:
            out = []
            for value, lo, hi in zip(fn(rows), lo_fn(rows), hi_fn(rows)):
                if value is None or lo is None or hi is None:
                    out.append(None)
                else:
                    inside = lo <= value <= hi
                    out.append((not inside) if negated else inside)
            return out

        return evaluate

    def data_type(self, binder: Binder) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"{self.operand.to_sql()} {keyword} {self.low.to_sql()} AND {self.high.to_sql()}"


def like_regex(pattern: str) -> re.Pattern:
    """A LIKE pattern as an anchored regex: ``%`` any run, ``_`` one character."""
    return re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$", re.DOTALL
    )


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern`` with % and _ wildcards."""

    operand: Expr
    pattern: str
    negated: bool = False

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        fn = self.operand.bind_batch(binder)
        match = like_regex(self.pattern).match
        if self.negated:
            return lambda rows: [
                None if v is None else match(str(v)) is None for v in fn(rows)
            ]
        return lambda rows: [
            None if v is None else match(str(v)) is not None for v in fn(rows)
        ]

    def data_type(self, binder: Binder) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.operand.to_sql()} {keyword} {_sql_string(self.pattern)}"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN c1 THEN r1 [WHEN ...] [ELSE e] END``."""

    whens: tuple[tuple[Expr, Expr], ...]
    otherwise: Expr | None = None

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        compiled = [(c.bind_batch(binder), r.bind_batch(binder)) for c, r in self.whens]
        if self.otherwise is not None:  # ELSE: a WHEN that always fires
            compiled.append((lambda rows: [True] * len(rows), self.otherwise.bind_batch(binder)))

        def evaluate(rows: list[tuple]) -> list:
            out = [None] * len(rows)
            pending = range(len(rows))
            for cond, result in compiled:
                fired, undecided = [], []
                for i, value in _on(cond, rows, pending):
                    (fired if value else undecided).append(i)
                for i, value in _on(result, rows, fired):
                    out[i] = value
                pending = undecided
            return out

        return evaluate

    def data_type(self, binder: Binder) -> DataType:
        return self.whens[0][1].data_type(binder)

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, result in self.whens:
            parts.append(f"WHEN {cond.to_sql()} THEN {result.to_sql()}")
        if self.otherwise:
            parts.append(f"ELSE {self.otherwise.to_sql()}")
        parts.append("END")
        return " ".join(parts)


# ----------------------------------------------------------------- functions


class FunctionRegistry:
    """Scalar functions: builtins plus user-registered UDFs."""

    def __init__(self):
        self._functions: dict[str, tuple[Callable, DataType | None]] = {}
        self._register_builtins()

    def register(self, name: str, fn: Callable, return_type: DataType) -> None:
        """Register a scalar UDF (NULL-in -> NULL-out wrapping applied)."""
        self._functions[name.lower()] = (fn, return_type)

    def lookup(self, name: str) -> tuple[Callable, DataType | None]:
        try:
            return self._functions[name.lower()]
        except KeyError:
            raise PlanError(
                f"unknown function {name!r}; known: {sorted(self._functions)}"
            ) from None

    def known(self, name: str) -> bool:
        return name.lower() in self._functions

    def _register_builtins(self) -> None:
        self._functions.update(
            {
                "upper": (lambda s: s.upper(), DataType.VARCHAR),
                "lower": (lambda s: s.lower(), DataType.VARCHAR),
                "length": (lambda s: len(s), DataType.INT),
                "abs": (lambda x: abs(x), None),
                "round": (lambda x, digits=0: round(x, int(digits)), DataType.DOUBLE),
                "floor": (lambda x: int(x // 1), DataType.BIGINT),
                "ceil": (lambda x: int(-((-x) // 1)), DataType.BIGINT),
                "concat": (lambda *parts: "".join(str(p) for p in parts), DataType.VARCHAR),
                "substr": (
                    lambda s, start, length=None: (
                        s[int(start) - 1 :]
                        if length is None
                        else s[int(start) - 1 : int(start) - 1 + int(length)]
                    ),
                    DataType.VARCHAR,
                ),
                "mod": (lambda a, b: a % b, DataType.BIGINT),
                "int": (lambda x: int(x), DataType.BIGINT),
                "double": (lambda x: float(x), DataType.DOUBLE),
                "varchar": (lambda x: str(x), DataType.VARCHAR),
            }
        )


def _coalesce_batch(arg_fns: list) -> Callable[[list[tuple]], list]:
    """COALESCE: each argument runs only on the rows still NULL."""

    def evaluate(rows: list[tuple]) -> list:
        out = [None] * len(rows)
        pending = range(len(rows))
        for fn in arg_fns:
            undecided = []
            for i, value in _on(fn, rows, pending):
                if value is None:
                    undecided.append(i)
                else:
                    out[i] = value
            pending = undecided
        return out

    return evaluate


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar function/UDF invocation; NULL arguments yield NULL.

    COALESCE is special-cased (its whole point is accepting NULLs).
    """

    name: str
    args: tuple[Expr, ...]

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        if self.name.lower() == "coalesce":
            return _coalesce_batch([a.bind_batch(binder) for a in self.args])
        fn, _ = binder.functions.lookup(self.name)
        arg_fns = [a.bind_batch(binder) for a in self.args]

        def evaluate(rows: list[tuple]) -> list:
            arg_rows = zip(*[f(rows) for f in arg_fns]) if arg_fns else [()] * len(rows)
            try:
                return [
                    None if any(a is None for a in args) else fn(*args)
                    for args in arg_rows
                ]
            except ZeroDivisionError:
                raise ExecutionError(f"division by zero in {self.to_sql()}") from None

        return evaluate

    def data_type(self, binder: Binder) -> DataType:
        if self.name.lower() == "coalesce":
            return self.args[0].data_type(binder)
        _, return_type = binder.functions.lookup(self.name)
        if return_type is None:
            return self.args[0].data_type(binder)
        return return_type

    def to_sql(self) -> str:
        return f"{self.name}({', '.join(a.to_sql() for a in self.args)})"


AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateCall(Expr):
    """COUNT/SUM/AVG/MIN/MAX — planned specially, never row-evaluated."""

    func: str
    arg: Expr
    distinct: bool = False

    def bind_batch(self, binder: Binder) -> Callable[[list[tuple]], list]:
        raise PlanError(
            f"aggregate {self.func.upper()} cannot be evaluated per row; "
            "it must appear in a SELECT list with optional GROUP BY"
        )

    def data_type(self, binder: Binder) -> DataType:
        func = self.func.lower()
        if func == "count":
            return DataType.BIGINT
        if func == "avg":
            return DataType.DOUBLE
        if isinstance(self.arg, Star):
            raise PlanError(f"{self.func.upper()}(*) is only valid for COUNT")
        return self.arg.data_type(binder)

    def to_sql(self) -> str:
        inner = ("DISTINCT " if self.distinct else "") + self.arg.to_sql()
        return f"{self.func.upper()}({inner})"


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        result: list[Expr] = []
        for op in expr.operands:
            result.extend(conjuncts(op))
        return result
    return [expr]


def combine_conjuncts(parts: list[Expr]) -> Expr | None:
    """Inverse of :func:`conjuncts`: AND the parts back together."""
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def transform(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up rewrite: ``fn`` may replace any node (return None = keep).

    ``fn`` is offered each node *before* its children are rebuilt; returning
    a replacement short-circuits descent into that subtree.  Used by the
    planner (substituting aggregate calls with references into the aggregate
    operator's output) and by the query rewriter (re-rooting predicates onto
    a cached table).
    """
    replacement = fn(expr)
    if replacement is not None:
        return replacement

    def rebuild(value):
        if isinstance(value, Expr):
            return transform(value, fn)
        if isinstance(value, tuple):
            return tuple(rebuild(v) for v in value)
        return value

    kwargs = {name: rebuild(getattr(expr, name)) for name in _expr_fields(type(expr))}
    return type(expr)(**kwargs)
