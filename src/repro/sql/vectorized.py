"""Vectorized expression kernels over :class:`ColumnBatch` partitions.

This is the columnar counterpart of ``Expr.bind_batch``: instead of
compiling to a ``rows -> list`` evaluator, each supported expression node
compiles to a ``batch -> VCol`` kernel operating on whole numpy arrays.
NULL semantics are carried in explicit validity masks (SQL three-valued
logic: Kleene AND/OR, NULL-propagating comparisons and arithmetic).

VARCHAR values stay dictionary-encoded throughout: a predicate like
``name LIKE 'a%'`` or ``gender = 'F'`` is evaluated once per *dictionary
word* and then mapped over the code array — O(cardinality) regex/compare
work instead of O(rows).

The compiler is deliberately partial.  ``compile_*`` returns ``None`` when
any node in the tree falls outside the supported subset (scalar UDF calls,
COALESCE, ``/`` and ``%`` whose division-by-zero error and truncation are
row-defined, VARCHAR-vs-VARCHAR column comparisons), and a compiled kernel
raises :class:`VectorFallback` when a runtime shape/type doesn't match its
assumptions.  Callers fall back to ``Expr.bind_batch`` over
``batch.to_rows()`` in both cases, so vectorization is a pure optimization:
it can never change results, only skip itself.  One deliberate deviation is
documented: integer arithmetic runs in int64 (numpy) rather than Python's
arbitrary precision, so values beyond 2**63 would wrap where ``bind_batch``
would not — a column holding such a value is an ``object`` column of the
Python values, whose column-reference kernel raises ``VectorFallback``, so
no kernel ever computes on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.columnar.batch import ColumnBatch, ColumnVector
from repro.common.errors import PlanError
from repro.sql.expressions import (
    CMP_OPS,
    And,
    Arithmetic,
    Between,
    Binder,
    CaseWhen,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    like_regex,
)
from repro.sql.types import DataType, Schema


class VectorFallback(Exception):
    """A compiled kernel met data it cannot handle; use ``bind_batch``."""


@dataclass
class VCol:
    """An evaluated column: values + validity (+ dictionary for VARCHAR).

    ``values`` holds numerics/bools directly, or int32 dictionary codes
    when ``dictionary`` is set.  Invalid lanes hold unspecified
    placeholders — every consumer masks with ``valid``.
    """

    values: np.ndarray
    valid: np.ndarray
    dictionary: list[str] | None = None

    def to_pylist(self) -> list:
        raw = self.values.tolist()
        ok = self.valid.tolist()
        if self.dictionary is not None:
            words = self.dictionary
            return [words[c] if good else None for c, good in zip(raw, ok)]
        return [v if good else None for v, good in zip(raw, ok)]


Kernel = Callable[[ColumnBatch], VCol]

_CMP_UFUNCS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_ARITH_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _expr_type(expr: Expr, schema: Schema) -> DataType | None:
    # PlanError is the binder's typed "this expression doesn't type under
    # this schema" signal — the legitimate compile-to-row-path fallback.
    # Any other exception is a bug in the binder or a kernel and must
    # surface rather than silently degrade the columnar plane.
    try:
        return expr.data_type(Binder(schema))
    except PlanError:
        return None


def _all_true(n: int) -> np.ndarray:
    return np.ones(n, dtype=np.bool_)


# --------------------------------------------------------------- node kernels


def _compile(expr: Expr, schema: Schema) -> Kernel | None:
    if isinstance(expr, ColumnRef):
        return _compile_column_ref(expr, schema)
    if isinstance(expr, Literal):
        return _compile_literal(expr)
    if isinstance(expr, Comparison):
        return _compile_comparison(expr, schema)
    if isinstance(expr, Arithmetic):
        return _compile_arithmetic(expr, schema)
    if isinstance(expr, And):
        return _compile_and_or(expr, schema, is_and=True)
    if isinstance(expr, Or):
        return _compile_and_or(expr, schema, is_and=False)
    if isinstance(expr, Not):
        return _compile_not(expr, schema)
    if isinstance(expr, Negate):
        return _compile_negate(expr, schema)
    if isinstance(expr, IsNull):
        return _compile_is_null(expr, schema)
    if isinstance(expr, Between):
        return _compile_between(expr, schema)
    if isinstance(expr, InList):
        return _compile_in_list(expr, schema)
    if isinstance(expr, Like):
        return _compile_like(expr, schema)
    if isinstance(expr, CaseWhen):
        return _compile_case(expr, schema)
    return None  # FuncCall, Coalesce, Star, aggregates: bind_batch


def _compile_column_ref(expr: ColumnRef, schema: Schema) -> Kernel:
    index = schema.resolve(expr.qualifier, expr.name)

    def kernel(batch: ColumnBatch) -> VCol:
        vector = batch.columns[index]
        if vector.is_object:
            raise VectorFallback(f"column {expr.name!r} holds Python values")
        return VCol(vector.data, vector.valid, vector.dictionary)

    return kernel


def _compile_literal(expr: Literal) -> Kernel:
    value = expr.value

    def kernel(batch: ColumnBatch) -> VCol:
        n = batch.num_rows
        if value is None:
            return VCol(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.bool_))
        if isinstance(value, bool):
            return VCol(np.full(n, value, dtype=np.bool_), _all_true(n))
        if isinstance(value, int):
            return VCol(np.full(n, value, dtype=np.int64), _all_true(n))
        if isinstance(value, float):
            return VCol(np.full(n, value, dtype=np.float64), _all_true(n))
        if isinstance(value, str):
            return VCol(np.zeros(n, dtype=np.int32), _all_true(n), [value])
        raise VectorFallback(f"literal {type(value).__name__}")

    return kernel


def _compile_comparison(expr: Comparison, schema: Schema) -> Kernel | None:
    lt, rt = _expr_type(expr.left, schema), _expr_type(expr.right, schema)
    if lt is None or rt is None:
        return None
    left = _compile(expr.left, schema)
    right = _compile(expr.right, schema)
    if left is None or right is None:
        return None
    op = expr.op

    if lt is DataType.VARCHAR or rt is DataType.VARCHAR:
        if lt is not rt:
            return None
        # Dictionary-space comparison: only when one side is a single-word
        # dictionary (a literal) — the common point-predicate shape.
        py_op = CMP_OPS[op]

        def kernel(batch: ColumnBatch) -> VCol:
            lv, rv = left(batch), right(batch)
            if lv.dictionary is None or rv.dictionary is None:
                raise VectorFallback("VARCHAR comparison without dictionaries")
            if len(rv.dictionary) == 1 and rv.valid.all():
                word = rv.dictionary[0]
                table = np.fromiter(
                    (py_op(w, word) for w in lv.dictionary),
                    dtype=np.bool_,
                    count=len(lv.dictionary),
                )
                values = (
                    table[np.clip(lv.values, 0, None)]
                    if len(table)
                    else np.zeros(batch.num_rows, dtype=np.bool_)
                )
                return VCol(values, lv.valid & rv.valid)
            if len(lv.dictionary) == 1 and lv.valid.all():
                word = lv.dictionary[0]
                table = np.fromiter(
                    (py_op(word, w) for w in rv.dictionary),
                    dtype=np.bool_,
                    count=len(rv.dictionary),
                )
                values = (
                    table[np.clip(rv.values, 0, None)]
                    if len(table)
                    else np.zeros(batch.num_rows, dtype=np.bool_)
                )
                return VCol(values, lv.valid & rv.valid)
            raise VectorFallback("VARCHAR column-vs-column comparison")

        return kernel

    ufunc = _CMP_UFUNCS[op]

    def kernel(batch: ColumnBatch) -> VCol:
        lv, rv = left(batch), right(batch)
        if lv.dictionary is not None or rv.dictionary is not None:
            raise VectorFallback("dictionary operand in numeric comparison")
        return VCol(ufunc(lv.values, rv.values), lv.valid & rv.valid)

    return kernel


def _compile_arithmetic(expr: Arithmetic, schema: Schema) -> Kernel | None:
    if expr.op not in _ARITH_UFUNCS:
        return None  # / and % keep bind_batch's exact semantics
    lt, rt = _expr_type(expr.left, schema), _expr_type(expr.right, schema)
    if lt is None or rt is None or not (lt.is_numeric and rt.is_numeric):
        return None
    left = _compile(expr.left, schema)
    right = _compile(expr.right, schema)
    if left is None or right is None:
        return None
    ufunc = _ARITH_UFUNCS[expr.op]

    def kernel(batch: ColumnBatch) -> VCol:
        lv, rv = left(batch), right(batch)
        return VCol(ufunc(lv.values, rv.values), lv.valid & rv.valid)

    return kernel


def _compile_and_or(expr: And | Or, schema: Schema, is_and: bool) -> Kernel | None:
    parts = [_compile_predicate_vcol(op, schema) for op in expr.operands]
    if any(p is None for p in parts):
        return None

    def kernel(batch: ColumnBatch) -> VCol:
        vcols = [p(batch) for p in parts]
        trues = [v.valid & v.values.astype(np.bool_) for v in vcols]
        falses = [v.valid & ~v.values.astype(np.bool_) for v in vcols]
        if is_and:
            # False if any operand is False; True only if all are True.
            is_false = np.logical_or.reduce(falses)
            is_true = np.logical_and.reduce(trues)
        else:
            is_true = np.logical_or.reduce(trues)
            is_false = np.logical_and.reduce(falses)
        return VCol(is_true, is_true | is_false)

    return kernel


def _compile_predicate_vcol(expr: Expr, schema: Schema) -> Kernel | None:
    inner = _compile(expr, schema)
    if inner is None:
        return None

    def kernel(batch: ColumnBatch) -> VCol:
        vcol = inner(batch)
        if vcol.dictionary is not None:
            raise VectorFallback("non-boolean predicate operand")
        return vcol

    return kernel


def _compile_not(expr: Not, schema: Schema) -> Kernel | None:
    inner = _compile_predicate_vcol(expr.operand, schema)
    if inner is None:
        return None

    def kernel(batch: ColumnBatch) -> VCol:
        vcol = inner(batch)
        return VCol(~vcol.values.astype(np.bool_), vcol.valid)

    return kernel


def _compile_negate(expr: Negate, schema: Schema) -> Kernel | None:
    dtype = _expr_type(expr.operand, schema)
    if dtype is None or not dtype.is_numeric:
        return None
    inner = _compile(expr.operand, schema)
    if inner is None:
        return None

    def kernel(batch: ColumnBatch) -> VCol:
        vcol = inner(batch)
        return VCol(-vcol.values, vcol.valid)

    return kernel


def _compile_is_null(expr: IsNull, schema: Schema) -> Kernel | None:
    inner = _compile(expr.operand, schema)
    if inner is None:
        return None
    negated = expr.negated

    def kernel(batch: ColumnBatch) -> VCol:
        vcol = inner(batch)
        values = vcol.valid.copy() if negated else ~vcol.valid
        return VCol(values, _all_true(batch.num_rows))

    return kernel


def _compile_between(expr: Between, schema: Schema) -> Kernel | None:
    types = [_expr_type(e, schema) for e in (expr.operand, expr.low, expr.high)]
    if any(t is None or not t.is_numeric for t in types):
        return None
    parts = [_compile(e, schema) for e in (expr.operand, expr.low, expr.high)]
    if any(p is None for p in parts):
        return None
    operand, low, high = parts
    negated = expr.negated

    def kernel(batch: ColumnBatch) -> VCol:
        v, lo, hi = operand(batch), low(batch), high(batch)
        inside = (lo.values <= v.values) & (v.values <= hi.values)
        return VCol(~inside if negated else inside, v.valid & lo.valid & hi.valid)

    return kernel


def _compile_in_list(expr: InList, schema: Schema) -> Kernel | None:
    if not all(isinstance(v, Literal) for v in expr.values):
        return None
    members = [v.value for v in expr.values]
    if any(m is None for m in members):
        return None  # NULL members need three-valued not-found semantics
    inner = _compile(expr.operand, schema)
    if inner is None:
        return None
    operand_type = _expr_type(expr.operand, schema)
    negated = expr.negated

    if operand_type is DataType.VARCHAR:
        words = {m for m in members if isinstance(m, str)}

        def kernel(batch: ColumnBatch) -> VCol:
            vcol = inner(batch)
            if vcol.dictionary is None:
                raise VectorFallback("IN over non-dictionary VARCHAR")
            table = np.fromiter(
                (w in words for w in vcol.dictionary),
                dtype=np.bool_,
                count=len(vcol.dictionary),
            )
            found = (
                table[np.clip(vcol.values, 0, None)]
                if len(table)
                else np.zeros(batch.num_rows, dtype=np.bool_)
            )
            return VCol(~found if negated else found, vcol.valid)

        return kernel

    if operand_type is None or not (
        operand_type.is_numeric or operand_type is DataType.BOOLEAN
    ):
        return None
    member_arr = np.array(members)

    def kernel(batch: ColumnBatch) -> VCol:
        vcol = inner(batch)
        found = np.isin(vcol.values, member_arr)
        return VCol(~found if negated else found, vcol.valid)

    return kernel


def _compile_like(expr: Like, schema: Schema) -> Kernel | None:
    if _expr_type(expr.operand, schema) is not DataType.VARCHAR:
        return None
    inner = _compile(expr.operand, schema)
    if inner is None:
        return None
    regex = like_regex(expr.pattern)
    negated = expr.negated

    def kernel(batch: ColumnBatch) -> VCol:
        vcol = inner(batch)
        if vcol.dictionary is None:
            raise VectorFallback("LIKE over non-dictionary VARCHAR")
        # O(cardinality) regex work, O(rows) table lookup.
        table = np.fromiter(
            (regex.match(w) is not None for w in vcol.dictionary),
            dtype=np.bool_,
            count=len(vcol.dictionary),
        )
        matched = (
            table[np.clip(vcol.values, 0, None)]
            if len(table)
            else np.zeros(batch.num_rows, dtype=np.bool_)
        )
        return VCol(~matched if negated else matched, vcol.valid)

    return kernel


def _compile_case(expr: CaseWhen, schema: Schema) -> Kernel | None:
    cond_fns = [_compile_predicate_vcol(c, schema) for c, _r in expr.whens]
    result_fns = [_compile(r, schema) for _c, r in expr.whens]
    else_fn = _compile(expr.otherwise, schema) if expr.otherwise else None
    if any(f is None for f in cond_fns + result_fns):
        return None
    if expr.otherwise is not None and else_fn is None:
        return None
    out_type = _expr_type(expr, schema)
    if out_type is None:
        return None
    is_varchar = out_type is DataType.VARCHAR

    def kernel(batch: ColumnBatch) -> VCol:
        n = batch.num_rows
        masks = []
        taken = np.zeros(n, dtype=np.bool_)  # first matching WHEN wins
        for fn in cond_fns:
            cond = fn(batch)
            fires = cond.valid & cond.values.astype(np.bool_) & ~taken
            masks.append(fires)
            taken = taken | fires
        results = [fn(batch) for fn in result_fns]
        otherwise = else_fn(batch) if else_fn else None
        branches = results + ([otherwise] if otherwise is not None else [])
        if is_varchar:
            if any(b.dictionary is None for b in branches):
                raise VectorFallback("mixed-type CASE branches")
            union: list[str] = []
            positions: dict[str, int] = {}
            remapped = []
            for branch in branches:
                lookup = np.empty(max(len(branch.dictionary), 1), dtype=np.int32)
                for i, word in enumerate(branch.dictionary):
                    position = positions.get(word)
                    if position is None:
                        position = len(union)
                        positions[word] = position
                        union.append(word)
                    lookup[i] = position
                remapped.append(lookup[np.clip(branch.values, 0, None)])
            values = np.full(n, -1, dtype=np.int32)
            valid = np.zeros(n, dtype=np.bool_)
            active = otherwise is not None
            if active:
                values = remapped[-1].astype(np.int32, copy=True)
                valid = branches[-1].valid.copy()
            for mask, codes, branch in zip(masks, remapped, results):
                values[mask] = codes[mask]
                valid[mask] = branch.valid[mask]
            return VCol(values, valid, union)
        if any(b.dictionary is not None for b in branches):
            raise VectorFallback("mixed-type CASE branches")
        out_dtype = np.result_type(*(b.values.dtype for b in branches))
        values = np.zeros(n, dtype=out_dtype)
        valid = np.zeros(n, dtype=np.bool_)
        if otherwise is not None:
            values = otherwise.values.astype(out_dtype, copy=True)
            valid = otherwise.valid.copy()
        for mask, branch in zip(masks, results):
            values[mask] = branch.values[mask].astype(out_dtype)
            valid[mask] = branch.valid[mask]
        return VCol(values, valid)

    return kernel


# ----------------------------------------------------------------- public API


def compile_predicate(expr: Expr, schema: Schema) -> Callable[[ColumnBatch], np.ndarray] | None:
    """Compile a filter predicate to ``batch -> keep-mask`` (True lanes
    survive; NULL and False do not), or None if unsupported."""
    inner = _compile(expr, schema)
    if inner is None:
        return None

    def kernel(batch: ColumnBatch) -> np.ndarray:
        vcol = inner(batch)
        if vcol.dictionary is not None:
            raise VectorFallback("non-boolean filter predicate")
        return vcol.valid & vcol.values.astype(np.bool_)

    return kernel


def _to_vector(vcol: VCol, dtype: DataType) -> ColumnVector:
    """Adapt an evaluated VCol to a schema-typed ColumnVector, refusing any
    conversion that could change values (float into INT, etc.)."""
    if dtype is DataType.VARCHAR:
        if vcol.dictionary is None:
            raise VectorFallback("VARCHAR output without dictionary")
        return ColumnVector(
            dtype, vcol.values.astype(np.int32, copy=False), vcol.valid,
            list(vcol.dictionary),
        )
    if vcol.dictionary is not None:
        raise VectorFallback(f"dictionary values for {dtype.value} output")
    kind = vcol.values.dtype.kind
    if dtype in (DataType.INT, DataType.BIGINT):
        if kind not in "iub":
            raise VectorFallback(f"{kind}-kind values for {dtype.value} output")
        return ColumnVector(dtype, vcol.values.astype(np.int64, copy=False), vcol.valid)
    if dtype is DataType.DOUBLE:
        if kind not in "fiu":
            raise VectorFallback(f"{kind}-kind values for DOUBLE output")
        return ColumnVector(dtype, vcol.values.astype(np.float64, copy=False), vcol.valid)
    if dtype is DataType.BOOLEAN:
        if kind != "b":
            raise VectorFallback(f"{kind}-kind values for BOOLEAN output")
        return ColumnVector(dtype, vcol.values, vcol.valid)
    raise VectorFallback(f"unsupported output type {dtype}")


def compile_projection(
    exprs: list[Expr], out_schema: Schema, schema: Schema
) -> Callable[[ColumnBatch], ColumnBatch] | None:
    """Compile a SELECT list to ``batch -> batch``, or None if any
    expression is unsupported."""
    kernels = [_compile(e, schema) for e in exprs]
    if any(k is None for k in kernels):
        return None
    out_columns = list(out_schema)

    def kernel(batch: ColumnBatch) -> ColumnBatch:
        vectors = [
            _to_vector(fn(batch), column.dtype)
            for fn, column in zip(kernels, out_columns)
        ]
        return ColumnBatch.from_columns(out_schema, vectors, batch.num_rows)

    return kernel


def compile_columns(
    exprs: list[Expr], schema: Schema
) -> Callable[[ColumnBatch], list[VCol]] | None:
    """Compile expressions to ``batch -> [VCol, ...]`` (the join's and the
    sort's key arrays), or None if any expression is unsupported."""
    kernels = [_compile(e, schema) for e in exprs]
    if any(k is None for k in kernels):
        return None
    return lambda batch: [fn(batch) for fn in kernels]
