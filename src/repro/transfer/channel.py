"""One SQL-worker -> ML-worker stream channel."""

from collections import deque
from dataclasses import dataclass

from repro.cluster.cost import CostLedger
from repro.transfer.buffers import (
    SpillableBuffer,
    decode_block,
    encode_block,
    frame_header,
)

DEFAULT_BUFFER_BYTES = 4096  # the paper's send/receive buffer setting


@dataclass(frozen=True)
class ChannelId:
    """Identity of a channel inside a session: (SQL worker, subchannel)."""

    sql_worker_id: int
    index: int

    def __str__(self) -> str:
        return f"sql{self.sql_worker_id}->ml{self.index}"


def _rows(block) -> list[tuple]:
    return block if isinstance(block, list) else block.to_rows()


class StreamChannel:
    """A unidirectional block pipe: the paper's bounded send/receive buffer
    pair that spills instead of blocking.

    The channel owns everything that is the same on every transport — frame
    encoding, byte accounting (``stream.sent``/``net``/``retry``/``spilled``),
    §6 sequence dedup, pending rows — and
    moves the frames through a byte *pipe*: a
    :class:`~repro.transfer.buffers.SpillableBuffer` (the default, whose
    capacity plays both buffer roles; the paper sets both to the same 4 KB
    anyway) or one tag of a
    :class:`~repro.transfer.socket_channel.MuxSocketTransport`.  A pipe has
    ``put(frame) -> queued bytes``, ``get(timeout) -> frame | None``,
    ``close``, ``abort(reason)``, ``cancel`` and ``discard``.

    ``local`` records whether coordinator matchmaking managed to colocate
    the endpoints — remote channels cost network bytes in the ledger, local
    ones do not.
    """

    def __init__(
        self,
        channel_id: ChannelId,
        pipe=None,
        ledger: CostLedger | None = None,
        local: bool = False,
    ):
        self.channel_id = channel_id
        self.local = local
        self._ledger = ledger
        self._pipe = pipe if pipe is not None else SpillableBuffer(DEFAULT_BUFFER_BYTES)
        self.rows_sent = 0
        self.bytes_sent = 0
        self.rows_received = 0
        self.bytes_received = 0
        #: bytes the pipe had to queue past its buffer (backpressure events)
        self.spilled_bytes = 0
        #: §6 replay traffic: bytes re-sent by a restarted SQL worker
        #: (charged to ``stream.retry``, never to ``stream.sent``).
        self.retry_bytes = 0
        #: §6 dedup on the ML side: replayed blocks dropped by sequence number
        self.duplicate_blocks = 0
        self.duplicate_bytes = 0
        self._next_seq = 0  # sequence number of the next unnumbered send
        self._last_seq = -1  # highest accepted block sequence number
        self._pending: deque[tuple] = deque()  # rows decoded but not yet read

    # ------------------------------------------------------------ SQL side

    def send_many(self, block, seq: int | None = None, retry: bool = False) -> None:
        """Frame and enqueue one block — a row sequence or a ColumnBatch:
        one pipe item, one lock acquisition, one ledger entry for the whole
        batch, accounted at the block's logical size.

        ``seq`` is this channel's block number (default: the next one); the
        receiver drops any frame whose number it already accepted, so a
        restarted worker can replay its partition from block 0 without
        double delivery.  ``retry`` marks a restart epoch's traffic: its
        bytes land in the separate ``stream.retry`` ledger counter, keeping
        the fault-free ``stream.sent`` and ``stream.net`` totals invariant.
        """
        if not len(block):
            return
        if seq is None:
            seq = self._next_seq
        self._next_seq = seq + 1
        payload = encode_block(block, seq)
        spilled = self._pipe.put(payload)
        _kind, _seq, logical = frame_header(payload)
        ledger = self._ledger
        if spilled:
            self.spilled_bytes += spilled
            if ledger is not None:
                ledger.add("stream.spilled", spilled)
        if retry:
            self.retry_bytes += logical
            if ledger is not None:
                ledger.add("stream.retry", logical)
            return
        self.rows_sent += len(block)
        self.bytes_sent += logical
        if ledger is not None:
            ledger.add("stream.sent", logical)
            if not self.local:
                ledger.add("stream.net", logical)

    def close(self) -> None:
        """End of stream from the sender (flushes what the pipe queued)."""
        self._pipe.close()

    def abort(self, reason: str = "producer failed") -> None:
        """Fatal end of stream: the producer died mid-send, so receivers
        must get a typed :class:`ChannelAbortedError`, never the clean EOF
        that would pass off the delivered prefix as a complete dataset.
        Sticky over a later :meth:`close`."""
        self._pipe.abort(reason)

    def cancel(self) -> None:
        """Tell the receiving end its session was cancelled
        (``cancel_session`` fans this out over every channel)."""
        self._pipe.cancel()

    def release(self) -> None:
        """Free transfer resources at session teardown: pending rows are
        dropped and anything the pipe still holds (spill file, queued
        frames) is discarded without a blocking flush (``close_session``
        calls this so finished *and* failed sessions leave nothing behind)."""
        self._pipe.discard()
        self._pending.clear()

    # ------------------------------------------------------------- ML side

    def receive_block(self, timeout: float | None = 30.0):
        """Next block in the representation it was sent in — a row list or
        a ColumnBatch — or None at end of stream.

        A frame whose sequence number was already accepted is a §6 replay
        duplicate — dropped and counted, never delivered, so the ML side
        sees each row exactly once.
        """
        if self._pending:
            rows = list(self._pending)
            self._pending.clear()
            return rows
        while True:
            payload = self._pipe.get(timeout=timeout)
            if payload is None:
                return None
            _kind, seq, logical = frame_header(payload)
            if seq <= self._last_seq:
                self.duplicate_blocks += 1
                self.duplicate_bytes += logical
                continue
            self._last_seq = seq
            block = decode_block(payload)
            self.rows_received += len(block)
            self.bytes_received += logical
            return block

    def receive(self, timeout: float | None = 30.0) -> tuple | None:
        """Next row, or None at end of stream."""
        if not self._pending:
            block = self.receive_block(timeout=timeout)
            if block is None:
                return None
            self._pending.extend(_rows(block))
        return self._pending.popleft()

    def __iter__(self):
        while True:
            block = self.receive_block()
            if block is None:
                return
            yield from _rows(block)
