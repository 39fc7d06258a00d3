"""The StreamChannel contract: what must hold over *every* byte pipe.

One suite, run once per pipe by a subclass that only says how to build the
pipe: ``tests/test_transfer_buffers.py::TestStreamChannel`` (the in-memory
:class:`SpillableBuffer`) and
``tests/test_socket_transport.py::TestSocketChannelUnit`` (one tag of a
:class:`MuxSocketTransport`).  Senders run in their own thread wherever a
test queues more than a pipe holds — a socket ``close`` flushes to the
reader, so only a concurrent reader lets it finish.
"""

import threading
import time

import pytest

from repro.cluster.cost import CostLedger
from repro.columnar.batch import ColumnBatch
from repro.common.errors import (
    ChannelAbortedError,
    DeadlineExceeded,
    SessionCancelled,
    TransferError,
)
from repro.runtime.budget import Budget
from repro.sql.types import DataType, Schema
from repro.transfer.channel import ChannelId, StreamChannel


def rows_of(n: int, tag: str = "r") -> list[tuple]:
    return [(i, float(i) / 3.0, f"{tag}-{i}") for i in range(n)]


class ChannelContract:
    def make_pipe(self, buffer_bytes: int, budget):
        """A fresh pipe of the kind under test."""
        raise NotImplementedError

    def channel(self, buffer_bytes=65536, budget=None, **kwargs) -> StreamChannel:
        pipe = self.make_pipe(buffer_bytes, budget)
        return StreamChannel(ChannelId(0, 0), pipe, **kwargs)

    @staticmethod
    def pump(channel, blocks, drain=list) -> list[tuple]:
        """Send ``blocks`` and close from a producer thread; ``drain`` here."""

        def produce():
            for block in blocks:
                channel.send_many(block)
            channel.close()

        producer = threading.Thread(target=produce)
        producer.start()
        received = drain(channel)
        producer.join(timeout=10)
        assert not producer.is_alive()
        return received

    @staticmethod
    def blocked_receiver(channel):
        """Start a thread blocked in ``receive_block``; returns it and the
        list its outcome (block, None, or exception) lands in."""
        outcome: list = []

        def read():
            try:
                outcome.append(channel.receive_block(timeout=10.0))
            except BaseException as exc:
                outcome.append(exc)

        thread = threading.Thread(target=read)
        thread.start()
        time.sleep(0.05)  # let it block on the empty pipe
        return thread, outcome

    # -------------------------------------------------------- send / receive

    def test_send_receive(self):
        channel = self.channel()
        rows = [(i, f"value-{i}", i * 0.5, None) for i in range(100)]
        assert self.pump(channel, [rows[:60], rows[60:]]) == rows
        assert channel.rows_sent == channel.rows_received == 100
        assert channel.bytes_sent == channel.bytes_received > 0

    def test_send_receive_roundtrip(self):
        """Row blocks and ColumnBatches share a channel, each arriving in
        the representation it was sent in; the row API pivots batches."""
        schema = Schema.of(("a", DataType.INT), ("s", DataType.VARCHAR))
        rows = [(i, f"w{i % 3}") for i in range(10)]
        channel = self.channel()
        channel.send_many(ColumnBatch.from_rows(schema, rows))
        channel.send_many(rows[:2])
        channel.send_many(ColumnBatch.from_rows(schema, rows[5:]))
        channel.close()
        first = channel.receive_block(timeout=5.0)
        assert isinstance(first, ColumnBatch) and first.to_rows() == rows
        assert channel.receive_block(timeout=5.0) == rows[:2]
        assert channel.receive(timeout=5.0) == rows[5]  # one row of a batch
        assert channel.receive_block(timeout=5.0) == rows[6:]  # the rest of it
        assert channel.receive_block(timeout=5.0) is None
        assert channel.rows_received == 17

    def test_eof_after_close(self):
        channel = self.channel()
        channel.send_many([(1,)])
        channel.send_many([])  # an empty block sends nothing
        channel.close()
        assert channel.receive(timeout=5.0) == (1,)
        assert channel.receive(timeout=5.0) is None
        assert channel.receive(timeout=5.0) is None  # repeated EOF stays EOF

    def test_send_after_close_rejected(self):
        channel = self.channel()
        channel.close()
        with pytest.raises(TransferError):
            channel.send_many([(1,)])

    def test_receive_timeout(self):
        channel = self.channel()
        with pytest.raises(TransferError, match="timed out"):
            channel.receive(timeout=0.05)

    def test_budget_clamps_receive(self):
        """A session budget bounds the receive wait below the flat timeout
        and surfaces as the typed non-retryable error."""
        channel = self.channel(budget=Budget(deadline_s=0.05, session_id="s"))
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            channel.receive_block(timeout=30.0)
        assert time.monotonic() - start < 5.0

    # ----------------------------------------------------- FIFO, backpressure

    def test_concurrent_producer_consumer(self):
        """Blocks of mixed sizes — one-row frames included — cross the
        pipe's spill boundary whole and in order."""
        sizes = [1, 3, 1, 17, 256, 1, 40] * 12
        blocks = [rows_of(size, f"b{i}") for i, size in enumerate(sizes)]
        channel = self.channel(buffer_bytes=2048)
        assert self.pump(channel, blocks) == [r for block in blocks for r in block]

    def test_receive_takes_one_row_at_a_time_across_blocks(self):
        """``receive`` hands out one-row and many-row blocks a row at a
        time, in order, and counts every row."""
        blocks = [rows_of(size, f"b{i}") for i, size in enumerate([1, 3, 1, 1, 17, 1])]
        channel = self.channel()
        received = self.pump(
            channel, blocks, drain=lambda c: list(iter(lambda: c.receive(timeout=5.0), None))
        )
        assert received == [r for block in blocks for r in block]
        assert channel.rows_received == len(received)

    def test_backpressure_spills_without_blocking(self):
        """A tiny buffer and no reader: the sender must keep going, spilling
        overflow locally like the paper requires."""
        ledger = CostLedger()
        channel = self.channel(buffer_bytes=2048, ledger=ledger)
        blocks = [[(i, "x" * 512)] for i in range(400)]  # far beyond any buffer
        for block in blocks:
            channel.send_many(block)
        assert channel.spilled_bytes > 0
        assert ledger.get("stream.spilled") == channel.spilled_bytes
        # a concurrent reader drains everything, including the overflow
        received: list[tuple] = []
        reader = threading.Thread(target=lambda: received.extend(channel))
        reader.start()
        channel.close()
        reader.join(timeout=10)
        assert received == [row for block in blocks for row in block]

    # ------------------------------------------------------------ accounting

    def test_ledger_accounting_remote(self):
        ledger = CostLedger()
        channel = self.channel(ledger=ledger, local=False)
        channel.send_many([(1, 2)])
        assert ledger.get("stream.sent") == channel.bytes_sent > 0
        assert ledger.get("stream.net") == ledger.get("stream.sent")

    def test_ledger_accounting_local_skips_network(self):
        ledger = CostLedger()
        channel = self.channel(ledger=ledger, local=True)
        channel.send_many([(1, 2)])
        assert ledger.get("stream.sent") > 0
        assert ledger.get("stream.net") == 0

    def test_replay_deduplicated_and_charged_to_retry(self):
        ledger = CostLedger()
        channel = self.channel(ledger=ledger)
        blocks = [[(i, float(i))] for i in range(4)]
        for seq, block in enumerate(blocks):
            channel.send_many(block, seq)
        sent = ledger.get("stream.sent")
        # A restarted worker replays everything, then sends one new block.
        for seq, block in enumerate(blocks):
            channel.send_many(block, seq, retry=True)
        channel.send_many([(4, 4.0)], 4, retry=True)
        channel.close()
        assert list(channel) == [(i, float(i)) for i in range(5)]
        assert channel.duplicate_blocks == 4
        assert channel.duplicate_bytes == sent
        # Replay traffic lands only in the retry counters.
        assert ledger.get("stream.sent") == sent
        assert ledger.get("stream.retry") == channel.retry_bytes > sent

    # ------------------------------------------- abort, cancel, release

    def test_abort_raises_typed_error_for_receivers(self):
        """A dead producer's delivered prefix must never pass for a complete
        stream: abort wins over pending data and over a later close."""
        channel = self.channel()
        channel.send_many([(1, "a", 2.5)])
        channel.abort("worker 0 died")
        channel.close()  # sticky: a clean close does not undo it
        with pytest.raises(ChannelAbortedError, match="worker 0 died"):
            channel.receive_block(timeout=1.0)
        with pytest.raises(TransferError):
            channel.send_many([(2, "b", 0.5)])

    def test_abort_wakes_blocked_receiver(self):
        channel = self.channel()
        thread, outcome = self.blocked_receiver(channel)
        channel.abort("mid-stream death")
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert isinstance(outcome[0], ChannelAbortedError)

    def test_cancel_raises_session_cancelled(self):
        """``cancel_session``'s order: flip the budget, then tell the
        channel — a blocked receiver wakes with the typed error."""
        budget = Budget(session_id="s")
        channel = self.channel(budget=budget)
        thread, outcome = self.blocked_receiver(channel)
        budget.cancel("client cancel")
        channel.cancel()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert isinstance(outcome[0], SessionCancelled)

    def test_release_drops_pending_and_queued(self):
        """Teardown never blocks on a flush and delivers nothing more."""
        channel = self.channel(buffer_bytes=2048)
        channel.send_many(rows_of(3))
        for i in range(200):  # a backlog no reader will ever drain
            channel.send_many([(i, "x" * 512)])
        assert channel.receive(timeout=5.0) == rows_of(3)[0]  # 2 rows pending
        start = time.monotonic()
        channel.release()
        assert time.monotonic() - start < 5.0
        assert channel.receive_block(timeout=1.0) is None
