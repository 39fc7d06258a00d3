"""Spillable buffers, the frame codec, and the stream-channel contract over
the in-memory pipe: FIFO, backpressure, accounting, frame integrity."""

import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cost import CostLedger
from repro.columnar.batch import ColumnBatch
from repro.common.errors import ChannelAbortedError, FrameError, TransferError
from repro.sql.types import DataType, Schema
from repro.transfer.buffers import (
    SpillableBuffer,
    block_logical_bytes,
    decode_block,
    encode_block,
    frame_header,
)
from repro.transfer.channel import ChannelId, StreamChannel
from tests.channel_contract import ChannelContract


class TestSpillableBuffer:
    def test_fifo_within_memory(self):
        buffer = SpillableBuffer(capacity_bytes=1000)
        for i in range(5):
            buffer.put(f"item{i}".encode())
        buffer.close()
        assert [b.decode() for b in buffer] == [f"item{i}" for i in range(5)]

    def test_overflow_spills_instead_of_blocking(self):
        buffer = SpillableBuffer(capacity_bytes=10)
        for i in range(100):  # far beyond capacity; must never block
            buffer.put(b"x" * 8)
        assert buffer.spilled_bytes > 0
        buffer.close()
        assert sum(1 for _ in buffer) == 100

    def test_fifo_preserved_across_spill_boundary(self):
        buffer = SpillableBuffer(capacity_bytes=12)
        items = [f"{i:04d}".encode() for i in range(50)]
        for item in items:
            buffer.put(item)
        buffer.close()
        assert list(buffer) == items

    def test_interleaved_put_get_keeps_order(self):
        buffer = SpillableBuffer(capacity_bytes=10)
        out = []
        for i in range(20):
            buffer.put(f"{i:03d}".encode())
            if i % 3 == 2:
                out.append(buffer.get())
        buffer.close()
        out.extend(iter(buffer))
        assert [b.decode() for b in out] == [f"{i:03d}" for i in range(20)]

    def test_get_after_close_drains_then_none(self):
        buffer = SpillableBuffer(capacity_bytes=100)
        buffer.put(b"a")
        buffer.close()
        assert buffer.get() == b"a"
        assert buffer.get() is None

    def test_put_after_close_raises(self):
        buffer = SpillableBuffer(capacity_bytes=100)
        buffer.close()
        with pytest.raises(TransferError):
            buffer.put(b"x")

    def test_get_timeout(self):
        buffer = SpillableBuffer(capacity_bytes=100)
        with pytest.raises(TransferError, match="timed out"):
            buffer.get(timeout=0.05)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpillableBuffer(capacity_bytes=0)

    def test_file_backed_spill(self, tmp_path):
        path = str(tmp_path / "spill.bin")
        buffer = SpillableBuffer(capacity_bytes=8, spill_path=path)
        items = [f"payload-{i}".encode() for i in range(30)]
        for item in items:
            buffer.put(item)
        buffer.close()
        assert list(buffer) == items
        # The spill file is cleaned up once fully drained.
        assert not os.path.exists(path)

    def test_spill_accounting_in_ledger(self):
        """``put`` reports what it spilled; the channel charges the ledger."""
        buffer = SpillableBuffer(capacity_bytes=4)
        assert buffer.put(b"xxxx") == 0
        assert buffer.put(b"yyyy") == 4  # spills
        ledger = CostLedger()
        channel = StreamChannel(ChannelId(0, 0), SpillableBuffer(4), ledger=ledger)
        channel.send_many([(1,)])
        assert ledger.get("stream.spilled") == channel.spilled_bytes > 0

    def test_producer_consumer_threads(self):
        buffer = SpillableBuffer(capacity_bytes=64)
        items = [f"{i:05d}".encode() for i in range(2000)]
        received = []

        def producer():
            for item in items:
                buffer.put(item)
            buffer.close()

        def consumer():
            received.extend(iter(buffer))

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert received == items

    def test_abort_poisons_pending_items(self):
        # A dead producer's enqueued prefix must never be delivered as a
        # complete stream: abort wins over pending data and over close.
        buffer = SpillableBuffer(capacity_bytes=1000)
        buffer.put(b"half-delivered")
        buffer.abort("producer failed")
        buffer.close()  # sticky: a later clean close does not undo it
        with pytest.raises(ChannelAbortedError, match="producer failed"):
            buffer.get(timeout=0.1)

    def test_abort_wakes_blocked_reader(self):
        buffer = SpillableBuffer(capacity_bytes=1000)
        caught: list[BaseException] = []

        def reader():
            try:
                buffer.get(timeout=5.0)
            except ChannelAbortedError as exc:
                caught.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        buffer.abort("mid-stream death")
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert len(caught) == 1

    def test_put_after_abort_raises(self):
        buffer = SpillableBuffer(capacity_bytes=1000)
        buffer.abort()
        with pytest.raises(TransferError):
            buffer.put(b"late")

    @settings(max_examples=30, deadline=None)
    @given(
        items=st.lists(st.binary(min_size=1, max_size=20), max_size=60),
        capacity=st.integers(min_value=1, max_value=64),
    )
    def test_fifo_property_any_capacity(self, items, capacity):
        buffer = SpillableBuffer(capacity_bytes=capacity)
        for item in items:
            buffer.put(item)
        buffer.close()
        assert list(buffer) == items


ROW = st.tuples(
    st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), st.text(max_size=20)),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.one_of(st.none(), st.text(max_size=5)),
)
BATCH_SCHEMA = Schema.of(
    ("v", DataType.DOUBLE), ("n", DataType.BIGINT), ("s", DataType.VARCHAR)
)
BATCH_ROW = st.tuples(
    st.one_of(st.none(), st.floats(allow_nan=False)),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.one_of(st.none(), st.text(max_size=5)),
)


class TestRowCodec:
    """The one frame codec: ``R`` frames of rows, ``C`` frames of batches."""

    @given(rows=st.lists(ROW, max_size=12), seq=st.integers(0, 2**40))
    def test_roundtrip(self, rows, seq):
        payload = encode_block(rows, seq)
        assert decode_block(payload) == rows
        kind, got_seq, logical = frame_header(payload)
        assert (kind, got_seq) == (b"R", seq)
        assert logical == block_logical_bytes(payload)
        # logical bytes are framing-invariant: the sum of the one-row frames
        assert logical == sum(block_logical_bytes(encode_block([r])) for r in rows)

    @given(rows=st.lists(BATCH_ROW, max_size=12), seq=st.integers(0, 2**40))
    def test_batch_roundtrip(self, rows, seq):
        batch = ColumnBatch.from_rows(BATCH_SCHEMA, rows)
        payload = encode_block(batch, seq)
        decoded = decode_block(payload)
        assert isinstance(decoded, ColumnBatch)
        assert decoded.to_rows() == batch.to_rows()
        assert frame_header(payload) == (b"C", seq, batch.logical_bytes())

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(BATCH_ROW, max_size=6), columnar=st.booleans())
    def test_every_strict_prefix_is_rejected(self, rows, columnar):
        """A truncated frame raises the typed error — it never decodes to
        fewer rows — and is accounted as the opaque bytes it is."""
        block = ColumnBatch.from_rows(BATCH_SCHEMA, rows) if columnar else rows
        payload = encode_block(block)
        for cut in range(len(payload)):
            with pytest.raises(FrameError):
                decode_block(payload[:cut])
            assert block_logical_bytes(payload[:cut]) == cut

    def test_malformed_payloads_raise_frame_error(self):
        payload = encode_block([(1, "a"), (2, "b")])
        for damaged in (
            b"",
            b"B\x00",
            b"X" + payload[1:],  # unknown kind byte
            payload + b"\x00",  # trailing garbage
            payload[:-1] + bytes([payload[-1] ^ 0xFF]),  # flipped pickle STOP
            payload[:9] + b"\xff" + payload[10:],  # logical-bytes header lies
        ):
            with pytest.raises(FrameError):
                decode_block(damaged)


class TestStreamChannel(ChannelContract):
    """The channel contract over the in-memory pipe, plus what only a
    spill-file-backed pipe can show."""

    def make_pipe(self, buffer_bytes, budget):
        return SpillableBuffer(buffer_bytes, budget=budget)

    def test_tiny_buffer_spills_and_delivers(self, tmp_path):
        path = str(tmp_path / "spill.bin")
        channel = StreamChannel(ChannelId(0, 0), SpillableBuffer(16, spill_path=path))
        rows = [(i, f"value{i}") for i in range(200)]
        for row in rows:
            channel.send_many([row])
        channel.close()
        assert channel.spilled_bytes > 0 and os.path.exists(path)
        assert list(channel) == rows
        assert not os.path.exists(path)  # drained spill files are deleted

    def test_release_deletes_leftover_spill_file(self, tmp_path):
        path = str(tmp_path / "spill.bin")
        channel = StreamChannel(ChannelId(0, 0), SpillableBuffer(16, spill_path=path))
        channel.send_many([(i, f"value{i}") for i in range(50)])
        channel.send_many([(0, "never read")])
        assert os.path.exists(path)
        channel.release()
        assert not os.path.exists(path)
