"""The one text cut: a DFS split's undecoded lines (``LineRecordReader.chunks``)
-> typed column vectors, for the SQL text scan and the ML text reader alike."""

from itertools import repeat

import numpy as np

from repro.columnar.batch import ColumnVector


class RecordWidthError(ValueError):
    """A record of a split has more or fewer fields than the split's width."""


def read_columns(
    raw: bytes, split, delimiter: str, width: int, columns, dtypes
) -> list[ColumnVector]:
    """The ``columns`` of the ``width``-field records of ``raw`` typed as
    ``dtypes``: :func:`cut_fields` on the bytes where they allow it, else
    :func:`split_fields` as text.  Raises :class:`RecordWidthError` naming the
    split and the record, ``UnicodeDecodeError`` for invalid UTF-8 in a kept
    column, and ``ValueError`` for an unparsable numeric field."""
    vectors = cut_fields(raw, delimiter, width, columns, dtypes)
    if vectors is None:
        texts = split_fields(raw, split, delimiter, width, columns)
        vectors = list(map(ColumnVector.from_texts, dtypes, texts))
    return vectors


def cut_fields(
    raw: bytes, delimiter: str, width: int, columns, dtypes
) -> list[ColumnVector] | None:
    """The byte-domain cut.  One pass finds every delimiter and newline; laid
    out ``(lines, width)`` the positions are each field's end, and that they
    *can* be laid out so, newlines in the last column, is the full-width
    record check.  Kept columns are typed from their bytes
    (``ColumnVector.from_fields``); one it declines is decoded alone and read
    by ``from_texts``.  ``None`` — :func:`split_fields` reads the split — for
    a multi-character delimiter, no lines, blank lines or a malformed record."""
    delimiter = delimiter.encode()
    if len(delimiter) != 1 or not 0 < len(raw) < 2**31 - 1:
        return None
    buf = np.frombuffer(raw + b"\n", dtype=np.uint8)
    newlines = buf == 10
    ends = np.flatnonzero(newlines | (buf == delimiter[0])).astype(np.int32)
    if len(ends) % width:
        return None
    starts = np.empty_like(ends)  # a field starts after the previous one's end
    starts[0], starts[1:] = 0, ends[:-1] + 1
    starts, ends = starts.reshape(-1, width), ends.reshape(-1, width)
    if (
        np.count_nonzero(newlines) != len(ends)
        or not newlines[ends[:, -1]].all()
        or (starts[:, 0] == ends[:, -1]).any()  # a blank line of a 1-column table
    ):
        return None
    vectors = []
    for index, dtype in zip(columns, dtypes):
        at, lens = starts[:, index], ends[:, index] - starts[:, index]
        vector = ColumnVector.from_fields(dtype, buf, at, lens)
        if vector is None:
            # the column's fields, each with the separator after it, as lines
            spans = lens + 1
            stops = np.cumsum(spans)
            column = buf[np.repeat(at - (stops - spans), spans) + np.arange(stops[-1])]
            column[stops - 1] = 10
            texts = column[:-1].tobytes().decode("utf-8").split("\n")
            vector = ColumnVector.from_texts(dtype, texts)
        vectors.append(vector)
    return vectors


def split_fields(raw: bytes, split, delimiter: str, width: int, columns) -> list[list[str]]:
    """The ``columns`` of one split's lines as text — the general cut.
    Blank lines are dropped and every line's delimiter count is checked
    against the full ``width`` (so a malformed record fails the read even
    in a pruned column); then the split is cut into fields in one flat pass —
    delimiters become newlines, which no line contains, so a multi-character
    delimiter cannot match across two lines — and column *i* is every
    ``width``-th field from *i*.  All of it on bytes (UTF-8 never matches
    inside a character): only the kept columns are decoded."""
    delimiter = delimiter.encode()
    lines = raw.split(b"\n")
    if b"" in lines:
        lines = list(filter(None, lines))
        raw = b"\n".join(lines)
    if set(map(bytes.count, lines, repeat(delimiter))) - {width - 1}:
        index, got = next(
            (i, line.count(delimiter) + 1)
            for i, line in enumerate(lines, 1)
            if line.count(delimiter) != width - 1
        )
        raise RecordWidthError(
            f"expected {width} fields, got {got} (record {index} of the split "
            f"of {split.path} starting at byte {split.start})"
        )
    if not lines:
        return [[] for _ in columns]
    fields = raw.replace(delimiter, b"\n").split(b"\n")
    return [b"\n".join(fields[i::width]).decode("utf-8").split("\n") for i in columns]
