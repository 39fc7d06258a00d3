"""Abstract InputFormat contract (Hadoop's, in miniature)."""

from abc import ABC, abstractmethod
from collections.abc import Iterator
from typing import Any


class JobConf:
    """A job configuration: a string-keyed property bag plus shared objects.

    Hadoop passes everything through the ``Configuration``; we keep the same
    shape so input formats stay decoupled from the systems that run them.
    Values that are live objects (a DFS handle, a coordinator) go into
    :attr:`objects` — the equivalent of Hadoop's service injection via
    side-channel singletons, made explicit.
    """

    def __init__(self, props: dict[str, Any] | None = None, **objects: Any):
        self.props: dict[str, Any] = dict(props or {})
        self.objects: dict[str, Any] = dict(objects)

    def get(self, key: str, default: Any = None) -> Any:
        """Property lookup with default."""
        return self.props.get(key, default)

    def set(self, key: str, value: Any) -> None:
        """Property assignment."""
        self.props[key] = value

    def get_object(self, name: str, default: Any = None) -> Any:
        """Optional shared-object lookup (None when not configured)."""
        return self.objects.get(name, default)

    def require_object(self, name: str) -> Any:
        """Fetch a shared object, raising a clear error when missing."""
        try:
            return self.objects[name]
        except KeyError:
            raise KeyError(
                f"job configuration is missing required object {name!r}; "
                f"available: {sorted(self.objects)}"
            ) from None


class InputSplit(ABC):
    """One unit of input, consumed by exactly one worker."""

    @abstractmethod
    def locations(self) -> tuple[str, ...]:
        """Node IPs where reading this split is local (may be empty)."""

    @abstractmethod
    def length(self) -> int:
        """Approximate byte length (for scheduling/ordering)."""


class RecordReader(ABC):
    """Iterates the records of one split."""

    @abstractmethod
    def __iter__(self) -> Iterator[Any]:
        """Yield records until the split is exhausted."""

    def blocks(self) -> Iterator[Any]:
        """The split's records a block at a time, for a consumer that builds
        arrays: a list of records or a ``ColumnBatch``.  Default: one list
        of every record."""
        records = list(self)
        if records:
            yield records

    def close(self) -> None:
        """Release resources (default: nothing to do)."""

    def __enter__(self) -> "RecordReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InputFormat(ABC):
    """Splits the input and creates readers — the whole ingestion contract."""

    @abstractmethod
    def get_splits(self, conf: JobConf, num_splits: int) -> list[InputSplit]:
        """Divide the input into at most ``num_splits`` splits.

        ``num_splits`` is a hint, exactly as in Hadoop: formats may return
        fewer (small input) or a fixed number dictated by the source (the
        streaming format returns one split per matched channel).
        """

    @abstractmethod
    def create_record_reader(self, split: InputSplit, conf: JobConf) -> RecordReader:
        """Open a reader over one split."""
