"""Consumer client: offset-tracked, at-least-once reads of one partition."""

from repro.broker.broker import MessageBroker
from repro.common.errors import FrameError, RetriesExhaustedError, TransferError
from repro.transfer.buffers import block_logical_bytes, decode_block


class BrokerConsumer:
    """Consumes one topic partition on behalf of a consumer group.

    The consumption loop is the at-least-once pattern: records fetched
    beyond the committed offset are *re-delivered* if the consumer dies
    before :meth:`commit` — which is exactly the §8 failure guarantee the
    broker transfer buys over direct streaming.

    With a :class:`~repro.faults.injector.FaultInjector` installed the loop
    also *survives* §6's broker faults:

    * a **duplicate fetch** (consumer died after processing, before
      committing) re-delivers already-seen records; they are dropped by
      offset (``_delivered_through``) and counted, never yielded twice;
    * a **corrupted record** fails to decode and is refetched from the
      retained log at the same offset.

    All replay traffic charges the ``broker.retry`` ledger counter, keeping
    fault-free ``broker.out`` byte totals invariant.
    """

    def __init__(
        self,
        broker: MessageBroker,
        topic: str,
        partition: int,
        group: str,
        batch_size: int = 256,
        timeout_s: float = 30.0,
        injector=None,  # FaultInjector | None
        budget=None,  # Budget | None (end-to-end session deadline/cancel)
        retry_budget=None,  # RetryTokenBucket | None (shared refetch budget)
    ):
        self._broker = broker
        self._topic = topic
        self._partition = partition
        self._group = group
        self._batch_size = batch_size
        self._timeout_s = timeout_s
        self._injector = injector
        self._budget = budget
        self._retry_budget = retry_budget
        self._position = broker.committed_offset(group, topic, partition)
        #: offsets < this were already delivered to the application —
        #: the §6 dedup watermark for at-least-once replays
        self._delivered_through = self._position
        self.rows_received = 0
        self.bytes_received = 0
        self.duplicate_records = 0
        self.duplicate_bytes = 0
        self.refetched_records = 0

    @property
    def position(self) -> int:
        """Next offset this consumer will fetch."""
        return self._position

    def poll(self) -> tuple[list[tuple], bool]:
        """Fetch the next batch; returns (rows, end_of_partition).

        Each fetched record is one frame carrying one or many rows.

        With a session budget attached the fetch wait derives from its
        remaining time (and raises typed on an expired/cancelled session
        before touching the broker at all).
        """
        site = f"{self._topic}/{self._partition}"
        timeout = self._timeout_s
        if self._budget is not None:
            self._budget.check(f"broker fetch {site}")
            timeout = self._budget.clamp(timeout)
        fetch_offset = self._position
        chunk, next_offset, at_end = self._broker.fetch(
            self._topic,
            self._partition,
            fetch_offset,
            max_records=self._batch_size,
            timeout=timeout,
        )
        self._position = next_offset
        rows: list[tuple] = []
        for i, payload in enumerate(chunk):
            offset = fetch_offset + i
            rows.extend(self._decode(payload, offset, site))
        self._delivered_through = next_offset
        self.rows_received += len(rows)
        if self._injector is not None and chunk:
            if self._injector.check_duplicate_fetch(site):
                self._absorb_redelivery(fetch_offset, len(chunk))
        return rows, at_end

    def _decode(self, payload: bytes, offset: int, site: str) -> list[tuple]:
        """Decode one record, refetching from the retained log when the
        in-flight copy arrives corrupted."""
        if self._injector is not None:
            payload = self._injector.corrupt_fetch(payload, f"{site}@{offset}")
        try:
            rows = decode_block(payload)
        except FrameError as damage:
            if self._retry_budget is not None and not self._retry_budget.try_acquire():
                raise RetriesExhaustedError(
                    f"refetch of corrupted record at {site}@{offset}: "
                    "deployment retry budget exhausted"
                ) from damage
            refetched, _next, _end = self._broker.fetch(
                self._topic,
                self._partition,
                offset,
                max_records=1,
                timeout=self._timeout_s,
                retry=True,
            )
            if not refetched:
                raise TransferError(
                    f"corrupted record at {site}@{offset} no longer retained"
                ) from None
            self.refetched_records += 1
            payload = refetched[0]
            rows = decode_block(payload)
        self.bytes_received += block_logical_bytes(payload)
        return rows

    def _absorb_redelivery(self, offset: int, count: int) -> None:
        """The injected at-least-once window: the broker re-delivers the
        batch just processed; every record is below the dedup watermark and
        is dropped + counted, so the application never sees a row twice."""
        replay, _next, _end = self._broker.fetch(
            self._topic,
            self._partition,
            offset,
            max_records=count,
            timeout=self._timeout_s,
            retry=True,
        )
        for payload in replay:
            # offset < self._delivered_through by construction: drop.
            self.duplicate_records += 1
            self.duplicate_bytes += block_logical_bytes(payload)

    def commit(self) -> None:
        """Persist progress up to the current position."""
        self._broker.commit_offset(
            self._group, self._topic, self._partition, self._position
        )

    def blocks(self):
        """Drain to end-of-partition a fetched batch of rows at a time,
        committing after each batch."""
        while True:
            rows, at_end = self.poll()
            if rows:
                yield rows
            self.commit()
            if at_end:
                return

    def __iter__(self):
        for rows in self.blocks():
            yield from rows
