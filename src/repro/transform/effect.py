"""Effect coding and orthogonal (polynomial contrast) coding.

§2.2 notes that "some less common transformations, such as effect coding and
orthogonal coding, can be implemented in similar ways as dummy coding" — so
here they are, as the same kind of single-pass parallel table UDFs.

* **Effect coding**: a K-level categorical becomes K-1 columns.  Level i<K
  sets column i to 1; the last level sets *all* columns to -1 (the reference
  level carries the negative weight, making coefficients deviations from the
  grand mean).
* **Orthogonal coding**: K-1 polynomial contrast columns (linear, quadratic,
  ...), mutually orthogonal and zero-sum, built from centered powers via
  Gram-Schmidt — the classic trend contrasts for ordered categories.
"""

import numpy as np

from repro.columnar.batch import ColumnBatch, ColumnVector
from repro.common.errors import ExecutionError
from repro.sql.types import Column, DataType, Schema
from repro.sql.udf import TableUDF, UdfContext
from repro.transform.recode import RecodeMap
from repro.transform.service import TransformService


def effect_row(code: int, k: int) -> list[int]:
    """Effect-coded vector (length K-1) for recoded value ``code`` in 1..K."""
    if not 1 <= code <= k:
        raise ExecutionError(f"effect coding expects 1..{k}, got {code}")
    if code == k:
        return [-1] * (k - 1)
    row = [0] * (k - 1)
    row[code - 1] = 1
    return row


def orthogonal_contrast_matrix(k: int) -> np.ndarray:
    """K x (K-1) matrix of normalized polynomial contrasts.

    Columns are mutually orthogonal, orthogonal to the constant vector, and
    scaled to unit norm (matching R's ``contr.poly``).
    """
    if k < 2:
        raise ExecutionError("orthogonal coding needs >= 2 levels")
    levels = np.arange(1, k + 1, dtype=float)
    raw = np.vander(levels, k, increasing=True)  # 1, x, x^2, ...
    q, _r = np.linalg.qr(raw)
    contrasts = q[:, 1:]  # drop the constant column
    # Fix signs so the linear contrast increases with the level.
    for j in range(contrasts.shape[1]):
        pivot = contrasts[-1, j]
        if pivot < 0:
            contrasts[:, j] = -contrasts[:, j]
    return contrasts


class _ContrastCodeUDF(TableUDF):
    """Shared machinery: replace recoded columns with K-1 contrast columns."""

    #: subclass hooks
    suffixes: str = "c"
    out_type: DataType = DataType.INT
    min_levels: int = 0  # fewer levels than this reject every non-NULL code

    def __init__(self, transforms: TransformService):
        self._transforms = transforms

    def output_schema(self, input_schema: Schema, args: tuple) -> Schema:
        handle, columns = self._parse_args(args)
        recode_map: RecodeMap = self._transforms.get(handle)
        targets = {c.lower() for c in columns}
        out: list[Column] = []
        for column in input_schema:
            if column.name.lower() in targets:
                k = len(recode_map.mapping_or_empty(column.name))
                for j in range(max(k - 1, 0)):
                    out.append(
                        Column(
                            f"{column.name}_{self.suffixes}{j + 1}",
                            self.out_type,
                            column.qualifier,
                        )
                    )
            else:
                out.append(column)
        return Schema(out)

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """Each recoded column's codes gather rows of its K x (K-1) contrast
        matrix by ``codes - 1``; a NULL code gives NULL outputs.  A code the
        coding rejects raises its error, the first in row-major order."""
        handle, columns = self._parse_args(args)
        recode_map: RecodeMap = self._transforms.get(handle)
        targets = {c.lower() for c in columns}
        first_errors: list[tuple[int, int, int, int]] = []  # (row, position, code, k)
        out_vectors: list[ColumnVector] = []
        for position, (column, vector) in enumerate(zip(input_schema, batch.columns)):
            if column.name.lower() not in targets:
                out_vectors.append(vector)
                continue
            k = len(recode_map.mapping_or_empty(column.name))
            codes = _codes(vector)
            wrong = vector.valid & ((codes < 1) | (codes > k) | (k < self.min_levels))
            if wrong.any():
                row = int(np.argmax(wrong))
                first_errors.append((row, position, int(codes[row]), k))
                continue
            if k > 1:
                at = np.where(vector.valid, codes - 1, 0).astype(np.int64)
                block = np.take(self._matrix(k).T, at, axis=1)
                out_vectors.extend(ColumnVector(self.out_type, b, vector.valid) for b in block)
        if first_errors:
            _row, _position, code, k = min(first_errors)
            self._matrix(k)  # orthogonal coding raises its k < 2 error here
            coding = self.name.removesuffix("_code")
            raise ExecutionError(f"{coding} coding expects 1..{k}, got {code}")
        out_schema = self.output_schema(input_schema, args)
        return ColumnBatch.from_columns(out_schema, out_vectors, batch.num_rows)

    def _matrix(self, k: int) -> np.ndarray:
        """The K x (K-1) matrix whose row ``code - 1`` codes ``code``."""
        raise NotImplementedError

    @staticmethod
    def _parse_args(args: tuple) -> tuple[str, list[str]]:
        if len(args) < 2:
            raise ExecutionError("contrast coding needs a map handle and >=1 column")
        return str(args[0]), [str(a) for a in args[1:]]


class EffectCodeUDF(_ContrastCodeUDF):
    """``TABLE(effect_code(input, 'map_handle', col, ...))``."""

    name = "effect_code"
    suffixes = "e"
    out_type = DataType.INT

    def _matrix(self, k: int) -> np.ndarray:
        return np.array([effect_row(code, k) for code in range(1, k + 1)])


class OrthogonalCodeUDF(_ContrastCodeUDF):
    """``TABLE(orthogonal_code(input, 'map_handle', col, ...))``."""

    name = "orthogonal_code"
    suffixes = "o"
    out_type = DataType.DOUBLE
    min_levels = 2

    def _matrix(self, k: int) -> np.ndarray:
        return orthogonal_contrast_matrix(k)


def _codes(vector: ColumnVector) -> np.ndarray:
    """A recoded column's codes: its int64 array, or ``int()`` of each value
    (0 for NULL) where the column is not typed INT."""
    if vector.dtype in (DataType.INT, DataType.BIGINT) and not vector.is_object:
        return vector.data
    return np.array([0 if v is None else int(v) for v in vector.to_pylist()], dtype=object)
