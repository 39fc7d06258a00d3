"""Dummy coding / one-hot encoding (§2.2) as a single-pass table UDF."""

import numpy as np

from repro.columnar.batch import ColumnBatch, ColumnVector
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

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """One-hot: K equality comparisons over the whole code array per
        expanded column, no per-row indicator lists."""
        handle, columns = self._parse_args(args)
        recode_map: RecodeMap = self._transforms.get(handle)
        targets = {c.lower() for c in columns}
        out_vectors: list[ColumnVector] = []
        n = batch.num_rows
        ones = np.ones(n, dtype=np.bool_)
        for column, vector in zip(input_schema, batch.columns):
            if column.name.lower() not in targets:
                out_vectors.append(vector)
                continue
            k = len(recode_map.mapping_or_empty(column.name))
            codes = _recoded(vector, k)
            for value in range(1, k + 1):
                # NULL input produces all-zero (non-NULL) indicators.
                indicator = (vector.valid & (codes == value)).astype(np.int64)
                out_vectors.append(ColumnVector(DataType.INT, indicator, ones))
        out_schema = self.output_schema(input_schema, args)
        return ColumnBatch.from_columns(out_schema, out_vectors, n)

    @staticmethod
    def _parse_args(args: tuple) -> tuple[str, list[str]]:
        if len(args) < 2:
            raise ExecutionError("dummy_code needs a map handle and >=1 column")
        return str(args[0]), [str(a) for a in args[1:]]


def _recoded(vector: ColumnVector, k: int) -> np.ndarray:
    """A recoded column's codes as int64 (0 where NULL), raising at its
    first value that is not an ``int`` in 1..k."""
    if vector.dtype in (DataType.INT, DataType.BIGINT) and not vector.is_object:
        codes = vector.data
        fits = (codes >= 1) & (codes <= k)
    else:  # Python values: an int, a bool or anything else
        values = vector.to_pylist()
        fits = np.array([isinstance(v, int) and 1 <= v <= k for v in values], np.bool_)
        codes = np.array([int(v) if ok else 0 for v, ok in zip(values, fits)], np.int64)
    bad = vector.valid & ~fits
    if bad.any():
        code = vector.take([int(np.argmax(bad))]).to_pylist()[0]
        raise ExecutionError(
            f"dummy_code expects recoded values in 1..{k}, "
            f"got {code!r} (recode the column first)"
        )
    return codes
