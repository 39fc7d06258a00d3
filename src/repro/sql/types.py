"""SQL data types, columns, and schemas."""

import enum
from dataclasses import dataclass

from repro.common.errors import PlanError


class DataType(enum.Enum):
    """The scalar types the engine supports."""

    INT = "INT"
    BIGINT = "BIGINT"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.BIGINT, DataType.DOUBLE)

    def parse(self, text: str):
        """Parse a CSV field into a Python value (empty string -> NULL)."""
        if text == "" or text == r"\N":
            return None
        if self in (DataType.INT, DataType.BIGINT):
            return int(text)
        if self is DataType.DOUBLE:
            return float(text)
        if self is DataType.BOOLEAN:
            return text.strip().lower() in ("true", "t", "1", "yes")
        return text

    def parse_column(self, texts) -> list:
        """``[self.parse(t) for t in texts]`` as one C-level pass; a NULL
        marker, which ``int``/``float`` reject like any unparsable field,
        sends the column through that per-value loop instead."""
        try:
            if self in (DataType.INT, DataType.BIGINT):
                return list(map(int, texts))
            if self is DataType.DOUBLE:
                return list(map(float, texts))
            if self is DataType.VARCHAR and "" not in texts and r"\N" not in texts:
                return list(texts)
        except ValueError:
            pass
        return [self.parse(t) for t in texts]

    def render(self, value) -> str:
        """Render a Python value as a CSV field (NULL -> empty string)."""
        if value is None:
            return ""
        if self is DataType.DOUBLE:
            return repr(float(value))
        if self is DataType.BOOLEAN:
            return "true" if value else "false"
        return str(value)


@dataclass(frozen=True)
class Column:
    """A named, typed column, optionally qualified by its table alias."""

    name: str
    dtype: DataType
    qualifier: str | None = None

    def matches(self, qualifier: str | None, name: str) -> bool:
        """True when a reference ``qualifier.name`` resolves to this column."""
        if name.lower() != self.name.lower():
            return False
        if qualifier is None:
            return True
        return self.qualifier is not None and qualifier.lower() == self.qualifier.lower()

    def with_qualifier(self, qualifier: str | None) -> "Column":
        """Copy of this column under a new table alias."""
        return Column(self.name, self.dtype, qualifier)

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name} {self.dtype.value}"
        return f"{self.name} {self.dtype.value}"


class Schema:
    """An ordered list of columns with reference resolution.

    Column lookup implements SQL scoping: an unqualified name must match
    exactly one column; a qualified name must match a column carrying that
    qualifier.  Ambiguity and misses raise :class:`PlanError` with the
    candidate list, which makes planner errors debuggable.
    """

    def __init__(self, columns: list[Column] | tuple[Column, ...]):
        self.columns: tuple[Column, ...] = tuple(columns)

    @staticmethod
    def of(*pairs: tuple[str, DataType]) -> "Schema":
        """Shorthand: ``Schema.of(("age", DataType.INT), ...)``."""
        return Schema([Column(name, dtype) for name, dtype in pairs])

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return "Schema(" + ", ".join(str(c) for c in self.columns) + ")"

    def column(self, index: int) -> Column:
        return self.columns[index]

    def resolve(self, qualifier: str | None, name: str) -> int:
        """Index of the column referenced by ``qualifier.name``."""
        matches = [
            i for i, c in enumerate(self.columns) if c.matches(qualifier, name)
        ]
        ref = f"{qualifier}.{name}" if qualifier else name
        if not matches:
            raise PlanError(
                f"unknown column {ref!r}; available: "
                + ", ".join(str(c) for c in self.columns)
            )
        if len(matches) > 1:
            raise PlanError(
                f"ambiguous column {ref!r}; matches: "
                + ", ".join(str(self.columns[i]) for i in matches)
            )
        return matches[0]

    def maybe_resolve(self, qualifier: str | None, name: str) -> int | None:
        """Like :meth:`resolve` but returns None when not found (still raises
        on ambiguity)."""
        try:
            return self.resolve(qualifier, name)
        except PlanError as exc:
            if "ambiguous" in str(exc):
                raise
            return None

    def with_qualifier(self, qualifier: str | None) -> "Schema":
        """All columns re-qualified under one alias (joins, subqueries)."""
        return Schema([c.with_qualifier(qualifier) for c in self.columns])

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output: this schema followed by the other's."""
        return Schema(self.columns + other.columns)


def estimate_value_bytes(value) -> int:
    """Rough wire size of one value, for shuffle/stream accounting."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value) + 4
    if isinstance(value, bytes):
        return len(value) + 4
    return 16
