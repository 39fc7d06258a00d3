"""Typed columnar batches: one numpy array per column plus a validity mask.

A :class:`ColumnBatch` is the in-memory unit of the columnar data plane
(DESIGN §10): the scan produces one per RCOL1 part file, the executor's
vectorized kernels filter/project it without materializing Python tuples,
the transfer layer ships it as a single ``C`` wire frame, and ML ingestion
turns it into ``(X, y)`` arrays with no per-row ``LabeledPoint``
construction.

Storage per SQL type:

========  ===================  ================
SQL type  numpy storage        NULL placeholder
========  ===================  ================
INT       int64                0
BIGINT    int64                0
DOUBLE    float64              0.0
BOOLEAN   bool\\_               False
VARCHAR   int32 codes + dict   -1
========  ===================  ================

Every column carries an explicit boolean validity mask, so placeholders
never leak: a slot is NULL iff ``valid`` is False there.  VARCHAR columns
are dictionary-encoded in first-occurrence order (0-based) — the same
layout the RCOL1 part files use, so a columnar scan adopts file
dictionaries without re-encoding, and transforms can recode by mapping the
(tiny) dictionary instead of the (huge) value column.

Conversion from rows never coerces a value it cannot store faithfully: an
``int`` in a DOUBLE column widens, but a column holding a value its typed
storage cannot represent (an INT beyond int64, a ``bool`` in an INT column,
an ``int`` in a VARCHAR column) is an ``object`` array of the Python values,
with no dictionary.  Every batch kernel declines such a column, so the
operators' tuple evaluator reads it with Python's semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import IngestError
from repro.sql.types import DataType, Schema, estimate_value_bytes

_NUMPY_DTYPE = {
    DataType.INT: np.int64,
    DataType.BIGINT: np.int64,
    DataType.DOUBLE: np.float64,
    DataType.BOOLEAN: np.bool_,
    DataType.VARCHAR: np.int32,  # dictionary codes
}

# The Python types a column stores without per-value coercion, and the text
# parsers whose output numpy converts on the fly.
_EXACT_TYPES = {
    DataType.INT: {int},
    DataType.BIGINT: {int},
    DataType.DOUBLE: {int, float},
    DataType.BOOLEAN: {bool},
    DataType.VARCHAR: {str},
}
_TEXT_PARSERS = {DataType.INT: int, DataType.BIGINT: int, DataType.DOUBLE: float}
_NULL_MARKERS = ("", r"\N")  # the fields DataType.parse reads as NULL
# Widest field, in bytes, the byte kernel types exactly: 18 digits fit an
# int64, 15 digits are an integer below 2**53 (exact in a float64), and the
# 8 bytes of a word pack into one uint64.
_MAX_FIELD_BYTES = {
    DataType.INT: 18, DataType.BIGINT: 18, DataType.DOUBLE: 15, DataType.VARCHAR: 8,
}
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _dictionary_codes(words) -> tuple[np.ndarray, list[str]]:
    """int32 codes and the dictionary of ``words``, first-occurrence order."""
    positions = {word: code for code, word in enumerate(dict.fromkeys(words))}
    codes = np.fromiter(
        map(positions.__getitem__, words), dtype=np.int32, count=len(words)
    )
    return codes, list(positions)


def _coerce(dtype: DataType, value):
    """Validate/widen one non-NULL Python value for columnar storage."""
    if dtype in (DataType.INT, DataType.BIGINT):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{dtype.value} column got {type(value).__name__}")
        return value
    if dtype is DataType.DOUBLE:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"DOUBLE column got {type(value).__name__}")
        return float(value)
    if dtype is DataType.BOOLEAN:
        if not isinstance(value, bool):
            raise TypeError(f"BOOLEAN column got {type(value).__name__}")
        return value
    if not isinstance(value, str):
        raise TypeError(f"VARCHAR column got {type(value).__name__}")
    return value


def _widened(value):
    """An ``int`` as the ``float`` a DOUBLE column stores, where one holds it."""
    try:
        return float(value) if type(value) is int else value
    except OverflowError:
        return value


def _boxed(values) -> np.ndarray:
    """``values`` as a one-dimensional ``object`` array (a tuple stays one
    element)."""
    return np.fromiter(values, dtype=object, count=len(values))


@dataclass
class ColumnVector:
    """One typed column: data array + validity mask (+ dictionary)."""

    dtype: DataType
    data: np.ndarray
    valid: np.ndarray
    dictionary: list[str] | None = None

    @classmethod
    def from_values(cls, dtype: DataType, values: list) -> "ColumnVector":
        """Build a vector from Python values (``None`` marks NULL).

        Total: where one value does not fit the typed storage (``_coerce``
        or numpy refuses it), the column is an ``object`` array of the values.
        """
        n = len(values)
        # Fast path: a clean, NULL-free column skips per-value _coerce.
        # Exact types (not isinstance) keep _coerce's strictness — bool is
        # not an INT and not a DOUBLE operand here; mixed, subclassed or
        # NULL-bearing columns take the per-value path below.
        try:
            if set(map(type, values)) <= _EXACT_TYPES[dtype]:
                if dtype is DataType.VARCHAR:
                    codes, dictionary = _dictionary_codes(values)
                    return cls(dtype, codes, np.ones(n, dtype=np.bool_), dictionary)
                return cls(
                    dtype,
                    np.array(values, dtype=_NUMPY_DTYPE[dtype]),
                    np.ones(n, dtype=np.bool_),
                )
            valid = np.fromiter((v is not None for v in values), dtype=np.bool_, count=n)
            if dtype is DataType.VARCHAR:
                codes = np.full(n, -1, dtype=np.int32)
                codes[valid], dictionary = _dictionary_codes(
                    [_coerce(dtype, v) for v in values if v is not None]
                )
                return cls(dtype, codes, valid, dictionary)
            zero = False if dtype is DataType.BOOLEAN else 0
            data = np.fromiter(
                (zero if v is None else _coerce(dtype, v) for v in values),
                dtype=_NUMPY_DTYPE[dtype],
                count=n,
            )
            return cls(dtype, data, valid)
        except (TypeError, OverflowError):
            if dtype is DataType.DOUBLE:  # an int widens here too
                values = list(map(_widened, values))
            valid = np.fromiter((v is not None for v in values), dtype=np.bool_, count=n)
            return cls(dtype, _boxed(values), valid)

    @classmethod
    def from_texts(cls, dtype: DataType, texts: list[str]) -> "ColumnVector":
        """``from_values(dtype, dtype.parse_column(texts))`` for one column of
        CSV fields, without the Python values in between: numerics parse
        into the array, VARCHAR fields become dictionary codes (-1 for a
        NULL marker).  A numeric column with a NULL marker, an unparsable
        field or an INT beyond int64 takes that expression instead."""
        n = len(texts)
        if dtype is DataType.VARCHAR:
            codes, dictionary = _dictionary_codes(texts)
            word = np.array([w not in _NULL_MARKERS for w in dictionary], dtype=np.bool_)
            if not word.all():  # NULL is code -1 and no word
                codes = np.where(word, np.cumsum(word) - 1, -1).astype(np.int32)[codes]
                dictionary = [w for w in dictionary if w not in _NULL_MARKERS]
            return cls(dtype, codes, codes >= 0, dictionary)
        if dtype in _TEXT_PARSERS:
            try:
                data = np.fromiter(
                    map(_TEXT_PARSERS[dtype], texts), dtype=_NUMPY_DTYPE[dtype], count=n
                )
                return cls(dtype, data, np.ones(n, dtype=np.bool_))
            except (ValueError, OverflowError):
                pass
        return cls.from_values(dtype, dtype.parse_column(texts))

    @classmethod
    def from_fields(
        cls, dtype: DataType, buf: np.ndarray, starts: np.ndarray, lens: np.ndarray
    ) -> "ColumnVector | None":
        """``from_texts`` of the fields ``buf[starts[i] : starts[i] + lens[i]]``
        (at least one) of a uint8 buffer, computed on the bytes with no
        ``str`` per field — or ``None`` where only ``from_texts`` types the
        column exactly: an empty field or ``\\N`` (NULL), BOOLEAN, a numeric
        that is not plain ``-?digits[.digits]``, any field wider than
        ``_MAX_FIELD_BYTES``, a word holding a NUL.  Invalid UTF-8 in a word
        raises ``UnicodeDecodeError``."""
        if dtype is DataType.BOOLEAN:
            return None
        if dtype is not DataType.VARCHAR:  # the sign is not one of the digits
            negative = buf[starts] == ord("-")
            starts, lens = starts + negative, lens - negative
        widest = int(lens.max())
        if widest > _MAX_FIELD_BYTES[dtype] or not lens.all():
            return None
        # One column per field, bottom-aligned: row r holds the r-th byte from
        # the field's end, so a digit's row is its power of ten; above the
        # field's start a number is padded with "0", a word with NUL.
        back = np.arange(widest)[:, None]
        pad = 0 if dtype is DataType.VARCHAR else ord("0")
        cells = np.where(
            back < lens, buf.take((starts + lens - 1).astype(np.intp) - back), pad
        )
        valid = np.ones(len(starts), dtype=np.bool_)
        if dtype is DataType.VARCHAR:
            if np.count_nonzero(cells) != lens.sum():  # a NUL packs like padding
                return None
            packed = np.zeros((len(starts), 8), dtype=np.uint8)
            packed[:, :widest] = cells.T
            _, first, inverse = np.unique(
                packed.view(np.uint64).ravel(), return_index=True, return_inverse=True
            )
            order = np.argsort(first)  # distinct words by first appearance
            codes = np.empty(len(order), dtype=np.int32)
            codes[order] = np.arange(len(order), dtype=np.int32)
            where = first[order]
            spans = zip(starts[where].tolist(), lens[where].tolist())
            words = [buf[at : at + n].tobytes().decode("utf-8") for at, n in spans]
            if any(word in _NULL_MARKERS for word in words):
                return None
            return cls(dtype, codes[inverse], valid, words)
        dots = cells == ord(".")
        dotted = dots.sum(axis=0)
        digits = cells - ord("0")  # uint8 wraps: anything but a digit is > 9
        digits[dots] = 0
        if (
            digits.max() > 9
            or dotted.max() > int(dtype is DataType.DOUBLE)  # one dot, in a DOUBLE only
            or not (lens - dotted).all()  # "-", "." and "-." have no digit
        ):
            return None
        values = _POW10[:widest] @ digits
        if dtype is DataType.DOUBLE:
            # With the dot r bytes from the end, values is whole * 10**(r+1) +
            # fraction.  Mantissa and 10**r are exact in float64, so the one
            # division rounds the exact decimal value once, as float(text) does.
            scale = _POW10[(dots * back).sum(axis=0)]
            mantissa = values // (scale * 10) * scale + values % scale
            values = np.where(dotted, mantissa, values) / scale.astype(np.float64)
        return cls(dtype, np.where(negative, -values, values), valid)

    @classmethod
    def from_dict_codes(
        cls, codes: list[int | None] | np.ndarray, dictionary: list[str]
    ) -> "ColumnVector":
        """Adopt an RCOL1-style dictionary column (``None``/-1 = NULL)."""
        as_float = np.asarray(codes, dtype=np.float64)  # None -> nan
        arr = np.nan_to_num(as_float, nan=-1.0).astype(np.int32)
        return cls(DataType.VARCHAR, arr, arr >= 0, list(dictionary))

    def __len__(self) -> int:
        return len(self.data)

    @property
    def is_object(self) -> bool:
        """Whether the column holds Python values, not typed storage."""
        return self.data.dtype == object

    def take(self, indices: np.ndarray) -> "ColumnVector":
        return ColumnVector(
            self.dtype, self.data[indices], self.valid[indices], self.dictionary
        )

    def to_pylist(self) -> list:
        """Back to Python values, ``None`` where invalid."""
        if self.dtype is DataType.VARCHAR and not self.is_object:
            # NULL's code -1 picks the None that follows the last word
            words = np.array([*(self.dictionary or []), None], dtype=object)
            return words[np.where(self.valid, self.data, -1)].tolist()
        if self.valid.all():
            return self.data.tolist()
        values = self.data.astype(object)
        values[~self.valid] = None
        return values.tolist()

    def value_bytes(self) -> np.ndarray:
        """Seed-formula byte estimate of each value (``estimate_value_bytes``:
        NULL=1, bool=1, int/float=8, str=len+4)."""
        if self.is_object:
            values = self.to_pylist()
            return np.fromiter(map(estimate_value_bytes, values), dtype=np.int64, count=len(values))
        if self.dtype is DataType.BOOLEAN:
            return np.ones(len(self.data), dtype=np.int64)  # 1 byte either way
        if self.dtype is DataType.VARCHAR:
            words = self.dictionary or []
            sizes = np.fromiter(map(len, words), dtype=np.int64, count=len(words)) + 4
            return np.append(sizes, 1)[np.where(self.valid, self.data, -1)]
        return np.where(self.valid, 8, 1)


class ColumnBatch:
    """A batch of rows stored column-wise; the executor/transfer/ML unit."""

    def __init__(self, schema: Schema, columns: list[ColumnVector]):
        self.schema = schema
        self.columns = columns
        self.num_rows = len(columns[0]) if columns else 0

    # ------------------------------------------------------------- building

    @classmethod
    def from_rows(cls, schema: Schema, rows: list[tuple]) -> "ColumnBatch":
        """Pivot row tuples into typed columns (single ``zip(*rows)`` pass).

        Raises ``TypeError`` only when the rows are not as wide as the schema.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        pivoted = list(zip(*rows)) if rows else [[] for _ in schema]
        if len(pivoted) != len(schema):
            raise TypeError(
                f"rows have {len(pivoted)} fields, schema has {len(schema)}"
            )
        return cls.from_pylists(schema, pivoted, len(rows))

    @classmethod
    def from_pylists(cls, schema: Schema, columns, num_rows: int) -> "ColumnBatch":
        """Typed columns from one sequence of Python values per column
        (``None`` marks NULL)."""
        vectors = [
            ColumnVector.from_values(col.dtype, list(values))
            for col, values in zip(schema, columns)
        ]
        return cls.from_columns(schema, vectors, num_rows)

    @classmethod
    def from_columns(
        cls, schema: Schema, columns: list[ColumnVector], num_rows: int | None = None
    ) -> "ColumnBatch":
        batch = cls(schema, columns)
        if num_rows is not None:
            batch.num_rows = num_rows
        return batch

    # ------------------------------------------------------------ accessors

    def __len__(self) -> int:
        return self.num_rows

    def to_rows(self) -> list[tuple]:
        """The rows as tuples: what ``bind_batch``, a row UDF's
        ``process_partition`` and a query's result read."""
        if not self.columns:
            return [()] * self.num_rows
        return list(zip(*(c.to_pylist() for c in self.columns)))

    # ------------------------------------------------------------- kernels

    def filter(self, mask: np.ndarray) -> "ColumnBatch":
        """Keep rows where ``mask`` is True (boolean array, len == rows)."""
        columns = [c.take(mask) for c in self.columns]
        batch = ColumnBatch(self.schema, columns)
        batch.num_rows = int(mask.sum()) if not columns else batch.num_rows
        return batch

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """Row subset/reorder by integer index array."""
        columns = [c.take(indices) for c in self.columns]
        batch = ColumnBatch(self.schema, columns)
        batch.num_rows = len(indices) if not columns else batch.num_rows
        return batch

    def slice_step(self, start: int, step: int) -> "ColumnBatch":
        """Rows ``start::step`` — the round-robin channel fan-out split."""
        return self.take(np.arange(start, self.num_rows, step))

    @classmethod
    def concat(cls, schema: Schema, batches: list["ColumnBatch"]) -> "ColumnBatch":
        """Stack batches vertically.  VARCHAR columns are re-mapped into a
        union dictionary (dictionary-sized work, not row-sized); a column
        that is ``object`` in any batch is ``object`` in the result."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.from_columns(
                schema, [ColumnVector.from_values(c.dtype, []) for c in schema], 0
            )
        num_rows = sum(b.num_rows for b in batches)
        vectors = []
        for index, column in enumerate(schema):
            parts = [b.columns[index] for b in batches]
            valid = np.concatenate([p.valid for p in parts])
            if any(p.is_object for p in parts):
                data = np.concatenate([_boxed(p.to_pylist()) for p in parts])
                vectors.append(ColumnVector(column.dtype, data, valid))
            elif column.dtype is DataType.VARCHAR:
                union: list[str] = []
                positions: dict[str, int] = {}
                remapped = []
                for part in parts:
                    words = part.dictionary or []
                    lookup = np.empty(max(len(words), 1), dtype=np.int32)
                    for i, word in enumerate(words):
                        position = positions.get(word)
                        if position is None:
                            position = len(union)
                            positions[word] = position
                            union.append(word)
                        lookup[i] = position
                    remapped.append(
                        np.where(part.data >= 0, lookup[np.clip(part.data, 0, None)], -1)
                    )
                codes = (
                    np.concatenate(remapped).astype(np.int32)
                    if remapped
                    else np.empty(0, dtype=np.int32)
                )
                vectors.append(ColumnVector(column.dtype, codes, valid, union))
            else:
                data = np.concatenate([p.data for p in parts])
                vectors.append(ColumnVector(column.dtype, data, valid))
        return cls.from_columns(schema, vectors, num_rows)

    # ----------------------------------------------------------- accounting

    def row_bytes(self) -> np.ndarray:
        """The seed ``estimate_row_bytes`` formula (2 per row + per-value
        estimate) for every row at once."""
        sizes = np.full(self.num_rows, 2, dtype=np.int64)
        for column in self.columns:
            sizes += column.value_bytes()
        return sizes

    def logical_bytes(self) -> int:
        """Ledger-accountable size: the sum of :meth:`row_bytes`, by column."""
        total = 2 * self.num_rows
        for c in self.columns:
            if c.is_object or c.dtype in (DataType.VARCHAR, DataType.BOOLEAN):
                total += int(c.value_bytes().sum())
            else:
                total += 8 * len(c.valid) - 7 * (len(c.valid) - int(np.count_nonzero(c.valid)))
        return total


def batch_to_xy(
    batch: ColumnBatch, label_index: int | None, label_offset: float = 0.0
) -> tuple[np.ndarray, np.ndarray | None]:
    """(features, labels) float64 arrays from a batch — the one ``(X, y)``
    kernel of ML ingestion, fed by ``C`` frames, pivoted broker ``R`` records
    and DFS text splits alike.

    The column at ``label_index`` (negative counts from the end), less
    ``label_offset``, is the label; every other column is a feature, in
    order.  ``label_index=None`` makes every column a feature and the labels
    ``None``.  Each value converts as ``float()`` would: typed storage by one
    casting assignment per column, a VARCHAR's dictionary words and an
    ``object`` column's values one ``float()`` each.  A NULL raises
    :class:`~repro.common.errors.IngestError` naming its column: a trainer
    has no reading of a missing feature or label.
    """
    n, width = batch.num_rows, len(batch.columns)
    if label_index is not None and not -width <= label_index < width:
        raise IngestError(f"label index {label_index} is outside {width} columns")
    label_at = None if label_index is None else label_index % width
    X = np.empty((n, width - (label_at is not None)), dtype=np.float64)
    y = None
    features = iter(range(X.shape[1]))
    for i, (column, col) in enumerate(zip(batch.schema, batch.columns)):
        if np.count_nonzero(col.valid) != n:
            role = "label" if i == label_at else "feature"
            raise IngestError(f"NULL {role} in column {column.name!r} (position {i})")
        if col.is_object:
            values = np.fromiter(map(float, col.data), dtype=np.float64, count=n)
        elif col.dtype is DataType.VARCHAR:
            words = col.dictionary or []
            values = np.fromiter(map(float, words), dtype=np.float64, count=len(words))[col.data]
        else:
            values = col.data
        if i == label_at:
            y = values.astype(np.float64) - float(label_offset)
        else:
            X[:, next(features)] = values
    return X, y
