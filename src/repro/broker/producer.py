"""Producer client: row serialization and partition routing."""

import time
from collections.abc import Sequence

from repro.broker.broker import MessageBroker
from repro.common.errors import (
    ChannelTimeoutError,
    RetriesExhaustedError,
    TransferError,
)
from repro.transfer.buffers import block_logical_bytes, encode_block


class BrokerProducer:
    """Produces rows into a topic, round-robin or hash-partitioned.

    ``partitions`` restricts routing to a subset of the topic's partitions —
    the broker transfer assigns each SQL worker its own partition group, the
    same n-groups-of-k layout the §3 coordinator uses, so per-partition
    ordering reflects one worker's output order.

    Rows accumulate per partition and are appended as one frame record
    per ``batch_rows`` rows (partial batches flushed by
    :meth:`flush`/:meth:`close`).  Routing is decided per row, so each
    partition carries the same row sequence at any batch size;
    ``batch_rows=1`` (the default) appends one one-row frame per row.
    """

    def __init__(
        self,
        broker: MessageBroker,
        topic: str,
        partitions: list[int] | None = None,
        batch_rows: int = 1,
        injector=None,  # FaultInjector | None (§6 chaos on appends)
        retry_policy=None,  # RetryPolicy | None
        retry_budget=None,  # RetryTokenBucket | None (shared retry budget)
        sleep=time.sleep,
        clock=None,  # repro.sim.clock.Clock | None — retry backoff sleeps
    ):
        if clock is not None and sleep is time.sleep:
            sleep = clock.sleep
        self._broker = broker
        self._topic = topic
        info = broker.topic_info(topic)
        self._partitions = list(partitions) if partitions else list(range(info.num_partitions))
        if not self._partitions:
            raise TransferError("producer needs at least one partition")
        for p in self._partitions:
            if not 0 <= p < info.num_partitions:
                raise TransferError(f"partition {p} outside topic {topic!r}")
        if batch_rows < 1:
            raise TransferError(f"batch_rows must be >= 1, got {batch_rows}")
        self._batch_rows = batch_rows
        self._injector = injector
        self._retry_policy = retry_policy
        self._retry_budget = retry_budget
        self._sleep = sleep
        self._pending: dict[int, list[tuple]] = {p: [] for p in self._partitions}
        self._cursor = 0
        self.rows_sent = 0
        self.bytes_sent = 0
        self.append_retries = 0

    def _append(self, partition: int, payload: bytes, rows: int) -> int:
        """One broker append under the §6 retry discipline.

        Injected append faults fire *before* the broker commits the record,
        so a retry never duplicates data.  Without a retry policy a single
        transient failure propagates (the seed behaviour).  A shared
        :class:`~repro.runtime.budget.RetryTokenBucket` (when installed)
        gates every retry attempt: an overloaded deployment that has spent
        its global retry allowance fails fast with
        :class:`RetriesExhaustedError` instead of amplifying the load."""
        attempt = 0
        while True:
            try:
                if self._injector is not None:
                    self._injector.check_producer_append(
                        f"{self._topic}/{partition}"
                    )
                return self._broker.append(
                    self._topic, partition, payload, rows=rows
                )
            except ChannelTimeoutError as exc:
                if self._retry_policy is None:
                    raise
                attempt += 1
                if attempt >= self._retry_policy.max_attempts:
                    raise RetriesExhaustedError(
                        f"append to {self._topic}/{partition} failed "
                        f"{attempt} times: {exc}"
                    ) from exc
                if self._retry_budget is not None and not self._retry_budget.try_acquire():
                    raise RetriesExhaustedError(
                        f"append to {self._topic}/{partition}: deployment "
                        f"retry budget exhausted after {attempt} attempts: {exc}"
                    ) from exc
                self.append_retries += 1
                self._sleep(
                    self._retry_policy.delay_s(
                        attempt - 1, key=f"{self._topic}/{partition}"
                    )
                )

    def _route(self, key) -> int:
        if key is not None:
            return self._partitions[hash(key) % len(self._partitions)]
        partition = self._partitions[self._cursor % len(self._partitions)]
        self._cursor += 1
        return partition

    def send(self, row: tuple, key=None) -> int | None:
        """Produce one row; returns its record offset, or None when the row
        was buffered into a not-yet-flushed block.

        With ``key`` given, the partition is chosen by hash (per-key order);
        otherwise round-robin across this producer's partitions.
        """
        partition = self._route(key)
        batch = self._pending[partition]
        batch.append(row)
        self.rows_sent += 1
        if len(batch) >= self._batch_rows:
            return self._flush_partition(partition)
        return None

    def send_many(self, rows: Sequence[tuple]) -> None:
        """Produce a batch of rows (round-robin routed per row)."""
        for row in rows:
            self.send(row)

    def _flush_partition(self, partition: int) -> int | None:
        batch = self._pending[partition]
        if not batch:
            return None
        payload = encode_block(batch)
        offset = self._append(partition, payload, rows=len(batch))
        self.bytes_sent += block_logical_bytes(payload)
        batch.clear()
        return offset

    def flush(self) -> None:
        """Append any partially filled blocks (EOF flush)."""
        for partition in self._partitions:
            self._flush_partition(partition)

    def close(self) -> None:
        """Flush pending blocks, then seal this producer's partitions
        (end-of-stream markers)."""
        self.flush()
        for partition in self._partitions:
            self._broker.seal_partition(self._topic, partition)
