"""The broker core: topics, partition logs, offsets, consumer groups."""

import threading
from dataclasses import dataclass

from repro.cluster.cost import CostLedger
from repro.common.errors import ChannelTimeoutError, TransferError
from repro.sim.clock import WALL
from repro.transfer.buffers import block_logical_bytes


@dataclass(frozen=True)
class TopicInfo:
    """Public metadata of one topic."""

    name: str
    num_partitions: int
    sealed: bool
    total_records: int
    total_bytes: int


class _PartitionLog:
    """One append-only, offset-addressed log with its own lock.

    Records are opaque byte strings.  Offsets are dense integers from 0;
    a fetch at the current end returns empty (poll again) unless the
    partition is sealed, in which case the consumer knows it is done.
    """

    def __init__(self, clock=None):
        self.records: list[bytes] = []
        self.sealed = False
        self.lock = threading.Lock()
        self.readable = threading.Condition(self.lock)
        self.bytes = 0
        self.rows = 0  # logical rows carried; >= len(records) with RowBlocks
        self.clock = clock or WALL

    def append(self, payload: bytes, rows: int = 1) -> int:
        with self.lock:
            if self.sealed:
                raise TransferError("append to a sealed partition")
            self.records.append(payload)
            self.bytes += len(payload)
            self.rows += rows
            offset = len(self.records) - 1
            self.readable.notify_all()
            return offset

    def seal(self) -> None:
        with self.lock:
            self.sealed = True
            self.readable.notify_all()

    def fetch(
        self, offset: int, max_records: int, timeout: float | None
    ) -> tuple[list[bytes], int, bool]:
        """Returns (records, next_offset, end_of_partition).

        Blocks up to ``timeout`` when the log has no new records and is not
        sealed; a timeout raises (deadlock guard)."""
        if offset < 0:
            raise TransferError(f"negative offset {offset}")
        deadline = None if timeout is None else self.clock.now() + timeout
        with self.lock:
            while True:
                if offset < len(self.records):
                    chunk = self.records[offset : offset + max_records]
                    next_offset = offset + len(chunk)
                    at_end = self.sealed and next_offset >= len(self.records)
                    return chunk, next_offset, at_end
                if self.sealed:
                    return [], offset, True
                remaining = (
                    None if deadline is None else deadline - self.clock.now()
                )
                if remaining is not None and remaining <= 0:
                    raise ChannelTimeoutError(
                        f"broker fetch timed out at offset {offset} "
                        "(producer stalled?)"
                    )
                if not self.clock.wait_on(self.readable, remaining):
                    raise ChannelTimeoutError(
                        f"broker fetch timed out at offset {offset} "
                        "(producer stalled?)"
                    )


class MessageBroker:
    """Topics of partition logs plus consumer-group offset storage.

    Semantics mirror Kafka's essentials:

    * producers append to explicit partitions and receive offsets;
    * data is *retained* after consumption — any number of groups can read
      the same topic independently (the "broker as cache" §8 use);
    * consumer groups commit offsets; a consumer restarted after a crash
      resumes from the last commit, re-reading anything processed but not
      committed — **at-least-once** delivery.
    """

    def __init__(self, ledger: CostLedger | None = None, clock=None):
        self._topics: dict[str, list[_PartitionLog]] = {}
        self._group_offsets: dict[tuple[str, str, int], int] = {}
        self._ledger = ledger
        self._clock = clock or WALL
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- topics

    def create_topic(self, name: str, num_partitions: int) -> None:
        if num_partitions < 1:
            raise TransferError("a topic needs at least one partition")
        with self._lock:
            if name in self._topics:
                raise TransferError(f"topic {name!r} already exists")
            self._topics[name] = [
                _PartitionLog(clock=self._clock) for _ in range(num_partitions)
            ]

    def delete_topic(self, name: str) -> None:
        with self._lock:
            if self._topics.pop(name, None) is None:
                raise TransferError(f"unknown topic {name!r}")
            self._group_offsets = {
                key: value
                for key, value in self._group_offsets.items()
                if key[0] != name
            }

    def topic_info(self, name: str) -> TopicInfo:
        logs = self._logs(name)
        return TopicInfo(
            name=name,
            num_partitions=len(logs),
            sealed=all(log.sealed for log in logs),
            total_records=sum(log.rows for log in logs),
            total_bytes=sum(log.bytes for log in logs),
        )

    def _logs(self, name: str) -> list[_PartitionLog]:
        with self._lock:
            logs = self._topics.get(name)
        if logs is None:
            raise TransferError(
                f"unknown topic {name!r}; known: {sorted(self._topics)}"
            )
        return logs

    def _log(self, name: str, partition: int) -> _PartitionLog:
        logs = self._logs(name)
        if not 0 <= partition < len(logs):
            raise TransferError(
                f"topic {name!r} has {len(logs)} partitions, not {partition + 1}"
            )
        return logs[partition]

    # ------------------------------------------------------------- data path

    def append(self, topic: str, partition: int, payload: bytes, rows: int = 1) -> int:
        """Produce one record (carrying ``rows`` logical rows); returns its
        offset.  Offsets address records — a RowBlock record occupies one
        offset no matter how many rows it carries — while ``topic_info``'s
        ``total_records`` counts the logical rows."""
        offset = self._log(topic, partition).append(payload, rows=rows)
        if self._ledger is not None:
            # Charged at the record's logical (per-row framing) size so the
            # simulated cost is invariant under RowBlock re-batching.
            self._ledger.add("broker.in", block_logical_bytes(payload))
        return offset

    def seal_partition(self, topic: str, partition: int) -> None:
        """Mark end-of-stream for one partition."""
        self._log(topic, partition).seal()

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_records: int = 256,
        timeout: float | None = 30.0,
        retry: bool = False,
    ) -> tuple[list[bytes], int, bool]:
        """Consume from an explicit offset (see :class:`_PartitionLog`).

        ``retry`` marks §6 replay traffic — a refetch of a corrupted record
        or a redelivery after a consumer death.  Its bytes charge the
        separate ``broker.retry`` ledger counter, so fault-free ``broker.out``
        totals stay byte-for-byte invariant under injected faults.
        """
        chunk, next_offset, at_end = self._log(topic, partition).fetch(
            offset, max_records, timeout
        )
        if self._ledger is not None and chunk:
            category = "broker.retry" if retry else "broker.out"
            self._ledger.add(category, sum(block_logical_bytes(c) for c in chunk))
        return chunk, next_offset, at_end

    # --------------------------------------------------------------- offsets

    def committed_offset(self, group: str, topic: str, partition: int) -> int:
        """Last committed offset of a group (0 when never committed)."""
        with self._lock:
            return self._group_offsets.get((topic, group, partition), 0)

    def commit_offset(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Record a group's progress; commits never move backwards."""
        with self._lock:
            key = (topic, group, partition)
            if offset < self._group_offsets.get(key, 0):
                raise TransferError(
                    f"offset commit moving backwards on {key}: "
                    f"{self._group_offsets[key]} -> {offset}"
                )
            self._group_offsets[key] = offset
