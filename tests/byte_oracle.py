"""The seed's per-row byte estimate, kept as the oracle of the engine's
column-wise accounting (``ColumnBatch.logical_bytes`` / ``row_bytes``)."""

from repro.sql.types import estimate_value_bytes


def estimate_row_bytes(row: tuple) -> int:
    """Rough wire size of one row."""
    return 2 + sum(estimate_value_bytes(v) for v in row)


def estimate_rows_bytes(rows: list[tuple]) -> int:
    """``sum(estimate_row_bytes(r) for r in rows)``, computed per column: one
    holding only ``int``/``float`` or only ``str`` objects (exact types, so
    not ``bool``, ``None``, subclasses or numpy scalars) is sized wholesale;
    any other column, and ragged input, takes the per-value ladder."""
    n = len(rows)
    if len(set(map(len, rows))) != 1:
        return sum(map(estimate_row_bytes, rows))
    total = 2 * n
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds <= {int, float}:
            total += 8 * n
        elif kinds == {str}:
            total += sum(map(len, column)) + 4 * n
        else:
            total += sum(map(estimate_value_bytes, column))
    return total
