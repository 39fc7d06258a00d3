"""Dummy coding / one-hot encoding (§2.2) as a single-pass table UDF."""

from collections.abc import Iterable

from repro.common.errors import ExecutionError
from repro.sql.types import Column, DataType, Schema
from repro.sql.udf import TableUDF, UdfContext
from repro.transform.recode import RecodeMap
from repro.transform.service import TransformService


def indicator_column_name(column: str, value: str) -> str:
    """Name of the indicator column for one categorical value.

    The paper's Figure 1(c) names them after the values ("female", "male");
    we prefix with the source column to keep names collision-free:
    ``gender_F``, ``gender_M``.  Non-identifier characters are mangled.
    """
    safe = "".join(ch if ch.isalnum() else "_" for ch in str(value))
    return f"{column}_{safe}"


class DummyCodeUDF(TableUDF):
    """``TABLE(dummy_code(input, 'map_handle', 'gender', ...))``.

    Expects the listed columns to be *already recoded* (integers 1..K, as
    §2.2 assumes).  Each such column is replaced in place by K binary
    columns; the i-th is 1 when the recoded value equals i.  Cardinalities
    come from the recode map built during phase 1 — "already obtained during
    recoding phase", as the paper puts it — so this is one parallel scan
    with no extra coordination.

    A NULL recoded value produces all-zero indicators.
    """

    name = "dummy_code"

    def __init__(self, transforms: TransformService):
        self._transforms = transforms

    def output_schema(self, input_schema: Schema, args: tuple) -> Schema:
        handle, columns = self._parse_args(args)
        recode_map: RecodeMap = self._transforms.get(handle)
        targets = {c.lower() for c in columns}
        out: list[Column] = []
        for column in input_schema:
            if column.name.lower() in targets:
                # An empty mapping (no rows survived the preparation query)
                # expands to zero indicator columns.
                values = (
                    recode_map.values_in_code_order(column.name)
                    if recode_map.mapping_or_empty(column.name)
                    else []
                )
                for value in values:
                    out.append(
                        Column(
                            indicator_column_name(column.name, value),
                            DataType.INT,
                            column.qualifier,
                        )
                    )
            else:
                out.append(column)
        return Schema(out)

    def process_partition(
        self, rows: Iterable[tuple], input_schema: Schema, args: tuple, ctx: UdfContext
    ) -> Iterable[tuple]:
        handle, columns = self._parse_args(args)
        recode_map: RecodeMap = self._transforms.get(handle)
        targets = {c.lower() for c in columns}
        layout: list[tuple[str, int]] = []  # ("copy", idx) or ("expand:K", idx)
        for i, column in enumerate(input_schema):
            if column.name.lower() in targets:
                k = len(recode_map.mapping_or_empty(column.name))
                layout.append((f"expand:{k}", i))
            else:
                layout.append(("copy", i))
        for row in rows:
            out: list = []
            for kind, index in layout:
                if kind == "copy":
                    out.append(row[index])
                else:
                    k = int(kind.split(":", 1)[1])
                    code = row[index]
                    indicators = [0] * k
                    if code is not None:
                        if not isinstance(code, int) or not (1 <= code <= k):
                            raise ExecutionError(
                                f"dummy_code expects recoded values in 1..{k}, "
                                f"got {code!r} (recode the column first)"
                            )
                        indicators[code - 1] = 1
                    out.extend(indicators)
            yield tuple(out)

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """Columnar one-hot: K equality comparisons over the whole code
        array per expanded column, no per-row indicator lists."""
        import numpy as np

        from repro.columnar.batch import ColumnBatch, ColumnVector

        handle, columns = self._parse_args(args)
        recode_map: RecodeMap = self._transforms.get(handle)
        targets = {c.lower() for c in columns}
        for i, column in enumerate(input_schema):
            vector = batch.columns[i]
            if column.name.lower() in targets and (
                vector.dtype not in (DataType.INT, DataType.BIGINT) or vector.is_object
            ):
                return None  # not recoded integers: the row path raises properly
        out_vectors: list[ColumnVector] = []
        n = batch.num_rows
        for i, column in enumerate(input_schema):
            vector = batch.columns[i]
            if column.name.lower() not in targets:
                out_vectors.append(vector)
                continue
            k = len(recode_map.mapping_or_empty(column.name))
            bad = vector.valid & ((vector.data < 1) | (vector.data > k))
            if bad.any():
                code = int(vector.data[np.argmax(bad)])
                raise ExecutionError(
                    f"dummy_code expects recoded values in 1..{k}, "
                    f"got {code!r} (recode the column first)"
                )
            ones = np.ones(n, dtype=np.bool_)
            for value in range(1, k + 1):
                # NULL input produces all-zero (non-NULL) indicators.
                indicator = (vector.valid & (vector.data == value)).astype(np.int64)
                out_vectors.append(ColumnVector(DataType.INT, indicator, ones))
        out_schema = self.output_schema(input_schema, args)
        return ColumnBatch.from_columns(out_schema, out_vectors, n)

    @staticmethod
    def _parse_args(args: tuple) -> tuple[str, list[str]]:
        if len(args) < 2:
            raise ExecutionError("dummy_code needs a map handle and >=1 column")
        return str(args[0]), [str(a) for a in args[1:]]
