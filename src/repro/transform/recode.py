"""Recoding of categorical variables (§2.1): two-phase, distributed.

Phase 1 — each worker computes its *local* distinct ``(column, value)``
pairs in one scan over its partition (:class:`LocalDistinctUDF`), the engine
globalizes them with ``SELECT DISTINCT``, and a deterministic assignment
turns them into consecutive integers starting at 1 (what SystemML-style
consumers require; sorted order keeps runs reproducible).

Phase 2 — apply the map.  Two interchangeable implementations:

* the paper's SQL formulation (:func:`recode_join_sql`): register the map as
  a table ``M(colName, colVal, recodeVal)`` and join once per recoded
  column;
* the broadcast-map :class:`RecodeUDF`: one pipelined pass per partition,
  resolving the map through the :class:`~repro.transform.service.TransformService`.
"""

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.columnar.batch import ColumnBatch, ColumnVector
from repro.common.errors import ExecutionError, TransformError
from repro.sql.types import Column, DataType, Schema
from repro.sql.udf import TableUDF, UdfContext
from repro.transform.service import TransformService


@dataclass(frozen=True)
class RecodeMap:
    """Per-column value -> consecutive-integer code mappings."""

    mappings: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]

    @staticmethod
    def from_distinct_rows(rows: Iterable[tuple]) -> "RecodeMap":
        """Build from global ``(colName, colVal)`` rows (phase-1 output).

        Values are sorted per column and assigned 1..K — the deterministic
        stand-in for the paper's recode-value-assignment UDF.
        """
        per_column: dict[str, set[str]] = {}
        for col_name, col_val in rows:
            if col_val is None:
                continue
            per_column.setdefault(col_name.lower(), set()).add(col_val)
        mappings = []
        for col_name in sorted(per_column):
            values = sorted(per_column[col_name])
            mappings.append(
                (col_name, tuple((v, i + 1) for i, v in enumerate(values)))
            )
        return RecodeMap(tuple(mappings))

    def columns(self) -> list[str]:
        return [name for name, _ in self.mappings]

    def mapping(self, column: str) -> dict[str, int]:
        for name, pairs in self.mappings:
            if name == column.lower():
                return dict(pairs)
        raise TransformError(
            f"no recode mapping for column {column!r}", column=column
        )

    def mapping_or_empty(self, column: str) -> dict[str, int]:
        """Like :meth:`mapping`, but an all-NULL column (which phase 1 never
        observed) yields an empty mapping instead of an error — every value
        recodes to NULL, which is the only sound answer."""
        try:
            return self.mapping(column)
        except TransformError:
            return {}

    def cardinality(self, column: str) -> int:
        return len(self.mapping(column))

    def values_in_code_order(self, column: str) -> list[str]:
        mapping = self.mapping(column)
        return [v for v, _c in sorted(mapping.items(), key=lambda kv: kv[1])]

    def code(self, column: str, value) -> int | None:
        """Code for a value; None for NULL or unseen values."""
        if value is None:
            return None
        return self.mapping(column).get(value)

    def as_table_rows(self) -> list[tuple]:
        """``(colName, colVal, recodeVal)`` rows, for the join formulation."""
        rows = []
        for name, pairs in self.mappings:
            for value, code in pairs:
                rows.append((name, value, code))
        return rows


class LocalDistinctUDF(TableUDF):
    """Phase-1 table UDF: local distincts of every listed column, one scan.

    ``TABLE(local_distinct(input, 'gender', 'abandoned'))`` yields rows
    ``(colName, colVal)`` — the paper's example output
    ``{('gender','F'), ('gender','M'), ('abandoned','Yes')}``.  One scan
    covers *all* columns; the paper contrasts this with the one-SQL-query-
    per-column alternative that would rescan the data K times.
    """

    name = "local_distinct"

    def output_schema(self, input_schema: Schema, args: tuple) -> Schema:
        self._column_indexes(input_schema, args)  # validate early
        return Schema.of(
            ("colName", DataType.VARCHAR), ("colVal", DataType.VARCHAR)
        )

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """The local distincts of a dictionary-encoded column are just its
        *used* dictionary words — one ``np.unique`` over the code array
        instead of a per-row set insert."""
        indexes = self._column_indexes(input_schema, args)
        seen: set[tuple[str, str]] = set()
        for col_name, index in indexes:
            vector = batch.columns[index]
            if vector.dictionary is None:
                values = set(vector.to_pylist()) - {None}
            else:
                codes = np.unique(vector.data[vector.valid]).tolist()
                values = {vector.dictionary[code] for code in codes}
            seen.update((col_name, value) for value in values)
        rows = sorted(seen)
        return ColumnBatch.from_pylists(
            self.output_schema(input_schema, args), zip(*rows) if rows else ((), ()), len(rows)
        )

    @staticmethod
    def _column_indexes(schema: Schema, args: tuple) -> list[tuple[str, int]]:
        if not args:
            raise ExecutionError("local_distinct needs at least one column name")
        return [(str(a).lower(), schema.resolve(None, str(a))) for a in args]


class RecodeUDF(TableUDF):
    """Phase-2 table UDF: map listed categorical columns to their codes.

    ``TABLE(recode(input, 'map_handle', 'gender', 'abandoned'))`` replaces
    each listed column's string value with its integer code, leaving other
    columns untouched.  NULL input always recodes to NULL.

    A value phase 1 never observed (dirty data: the table mutated between
    passes, or a cached map went stale) is handled per the optional
    ``'on_unseen=<policy>'`` argument — ``null`` (default, matches the join
    formulation's inner-join-miss semantics), ``error`` (raise
    :class:`TransformError` naming the column and value), or ``skip_row``
    (drop the row).  Nulled/skipped row counts are charged to the ledger
    categories ``transform.unseen_nulled`` / ``transform.rows_skipped`` so
    pipelines can surface them in stage stats.
    """

    name = "recode"

    def __init__(self, transforms: TransformService):
        self._transforms = transforms

    def output_schema(self, input_schema: Schema, args: tuple) -> Schema:
        _handle, columns, _policy = self._parse_args(args)
        targets = {c.lower() for c in columns}
        out = []
        for column in input_schema:
            if column.name.lower() in targets:
                out.append(Column(column.name, DataType.INT, column.qualifier))
            else:
                out.append(column)
        return Schema(out)

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """Remap each target column's *dictionary* (K words) instead of its
        value array (N rows) — the O(cardinality) payoff of keeping VARCHAR
        dictionary-encoded end-to-end.  A column without a dictionary (an
        ``object`` or non-VARCHAR column) looks each value up."""
        handle, columns, policy = self._parse_args(args)
        recode_map: RecodeMap = self._transforms.get(handle)
        indexes = {input_schema.resolve(None, c): c for c in columns}
        n = batch.num_rows
        drop = np.zeros(n, dtype=np.bool_) if policy == "skip_row" else None
        # (row, column position, column, value) candidates for policy=error —
        # resolved after the scan so the raise matches row-major order.
        first_errors: list[tuple[int, int, str, object]] = []
        out_vectors: list[ColumnVector] = []
        nulled = 0
        for index, vector in enumerate(batch.columns):
            col_name = indexes.get(index)
            if col_name is None:
                out_vectors.append(vector)
                continue
            mapping = recode_map.mapping_or_empty(col_name)
            # Codes are 1..K, so 0 marks an unseen value (and NULL).
            if vector.dictionary is None:
                data = np.fromiter(map(mapping.get, vector.to_pylist(), repeat(0)), np.int64, n)
            else:
                words = vector.dictionary
                word_codes = np.fromiter(map(mapping.get, words, repeat(0)), np.int64, len(words))
                data = word_codes[np.clip(vector.data, 0, None)] if words else np.zeros(n, np.int64)
            unseen = vector.valid & (data == 0)
            if unseen.any():
                if policy == "error":
                    row = int(np.argmax(unseen))
                    value = vector.take([row]).to_pylist()[0]
                    first_errors.append((row, columns.index(col_name), col_name, value))
                elif policy == "skip_row":
                    drop |= unseen
                else:
                    nulled += int(unseen.sum())
            out_vectors.append(ColumnVector(DataType.INT, data, vector.valid & ~unseen))
        if first_errors:  # policy=error: nothing was nulled or skipped
            _row, _pos, col_name, value = min(first_errors)
            raise TransformError(
                f"unseen value {value!r} in recoded column {col_name!r}",
                column=col_name,
                value=value,
            )
        if nulled:
            ctx.ledger.add("transform.unseen_nulled", nulled)
        out = ColumnBatch.from_columns(self.output_schema(input_schema, args), out_vectors, n)
        if drop is not None and drop.any():
            ctx.ledger.add("transform.rows_skipped", int(drop.sum()))
            return out.filter(~drop)
        return out

    @staticmethod
    def _parse_args(args: tuple) -> tuple[str, list[str], str]:
        """``(handle, columns, on_unseen_policy)`` from the UDF argument list.

        The policy rides as an ``'on_unseen=<policy>'`` string anywhere after
        the handle, so existing two-plus-argument call sites stay valid.
        """
        if len(args) < 2:
            raise ExecutionError("recode needs a map handle and >=1 column")
        handle = str(args[0])
        policy = "null"
        columns: list[str] = []
        for arg in args[1:]:
            text = str(arg)
            if text.startswith("on_unseen="):
                policy = text[len("on_unseen=") :]
                if policy not in ("null", "error", "skip_row"):
                    raise ExecutionError(
                        f"unknown on_unseen policy {policy!r}; expected "
                        "null, error, or skip_row"
                    )
                continue
            columns.append(text)
        if not columns:
            raise ExecutionError("recode needs a map handle and >=1 column")
        return handle, columns, policy


def recode_join_sql(
    source: str,
    map_table: str,
    recode_columns: list[str],
    output_columns: list[str],
) -> str:
    """The paper's §2.1 join formulation of phase 2, as SQL text.

    ``source`` is the (aliased-as-T) table holding the data; ``map_table``
    the recode map registered as ``M(colName, colVal, recodeVal)``.  Each
    recoded column contributes one self-joined instance of M, exactly like
    the paper's example::

       SELECT T.age, Mg.recodeVal AS gender, T.amount, Ma.recodeVal AS abandoned
       FROM T, M AS Mg, M AS Ma
       WHERE Mg.colName='gender' AND T.gender=Mg.colVal
         AND Ma.colName='abandoned' AND T.abandoned=Ma.colVal
    """
    recode_set = {c.lower() for c in recode_columns}
    aliases = {c.lower(): f"M{i}" for i, c in enumerate(recode_columns)}
    select_parts = []
    for column in output_columns:
        if column.lower() in recode_set:
            select_parts.append(f"{aliases[column.lower()]}.recodeVal AS {column}")
        else:
            select_parts.append(f"T.{column}")
    from_parts = [f"{source} AS T"]
    where_parts = []
    for column in recode_columns:
        alias = aliases[column.lower()]
        from_parts.append(f"{map_table} AS {alias}")
        where_parts.append(f"{alias}.colName = '{column.lower()}'")
        where_parts.append(f"T.{column} = {alias}.colVal")
    sql = f"SELECT {', '.join(select_parts)} FROM {', '.join(from_parts)}"
    if where_parts:
        sql += " WHERE " + " AND ".join(where_parts)
    return sql
