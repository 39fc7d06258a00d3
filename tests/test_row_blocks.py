"""Block framing: FIFO across spill boundaries, EOF flush of partial
batches, deadline-guarded reads, and byte-identity of the ML boundary
against one-row frames (``batch_rows=1``).  Mixed block sizes on both pipes
are ``tests/channel_contract.py``'s."""

import threading
import time

import pytest

from repro import make_deployment
from repro.broker.broker import MessageBroker
from repro.broker.consumer import BrokerConsumer
from repro.broker.producer import BrokerProducer
from repro.common.errors import TransferError
from repro.sql.types import DataType, Schema
from repro.transfer.buffers import SpillableBuffer, decode_block, encode_block
from repro.transfer.channel import ChannelId, StreamChannel
from repro.workloads import generate_retail


def _rows(n: int, tag: str = "r") -> list[tuple]:
    return [(i, float(i) / 3.0, f"{tag}-{i}") for i in range(n)]


class TestBlockCodec:
    def test_block_round_trip(self):
        rows = _rows(5)
        assert decode_block(encode_block(rows)) == rows

    def test_empty_block(self):
        assert decode_block(encode_block([])) == []


class TestSpillBoundaryMidBlock:
    """Blocks that straddle the memory/spill boundary drain in FIFO order."""

    def _pump(self, channel, blocks):
        for block in blocks:
            channel.send_many(block)
        channel.close()
        return list(channel)

    def test_overflow_region_keeps_fifo(self):
        # Capacity fits roughly one block; later blocks overflow in memory.
        blocks = [_rows(10, f"b{i}") for i in range(20)]
        one_block_bytes = len(encode_block(blocks[0]))
        channel = StreamChannel(
            ChannelId(0, 0), SpillableBuffer(one_block_bytes + 8), local=True
        )
        received = self._pump(channel, blocks)
        assert received == [row for block in blocks for row in block]
        assert channel.spilled_bytes > 0

    def test_spill_file_keeps_fifo(self, tmp_path):
        blocks = [_rows(10, f"f{i}") for i in range(20)]
        one_block_bytes = len(encode_block(blocks[0]))
        channel = StreamChannel(
            ChannelId(0, 1),
            SpillableBuffer(one_block_bytes + 8, spill_path=str(tmp_path / "spill.bin")),
            local=True,
        )
        received = self._pump(channel, blocks)
        assert received == [row for block in blocks for row in block]
        assert channel.spilled_bytes > 0

    def test_spilled_blocks_survive_intact(self):
        """A block is one spill item: it comes back whole, not row-split."""
        buf = SpillableBuffer(capacity_bytes=16)
        payloads = [encode_block(_rows(7, f"s{i}")) for i in range(5)]
        for p in payloads:
            buf.put(p)
        buf.close()
        assert list(buf) == payloads
        assert buf.spilled_bytes > 0


class TestEofFlushOfPartialBatch:
    """The stream UDF flushes per-channel partial batches at end of input."""

    @pytest.fixture()
    def points(self, deployment):
        engine = deployment.engine
        rows = [(i, float(i)) for i in range(500)]
        engine.create_table(
            "points", Schema.of(("id", DataType.BIGINT), ("v", DataType.DOUBLE)), rows
        )
        return deployment, rows

    @pytest.mark.parametrize("batch_rows", [7, 256, 4096])
    def test_all_rows_arrive(self, points, batch_rows):
        # 500 rows over 4 workers: with batch_rows=4096 every channel's
        # entire output is one EOF-flushed partial block; with 7 and 256
        # the final block of each channel is partial.
        deployment, rows = points
        deployment.coordinator.create_session(
            "flush",
            command="noop",
            conf_props={"record.format": "raw"},
            batch_rows=batch_rows,
        )
        deployment.engine.query_rows(
            "SELECT * FROM TABLE(stream_transfer((SELECT id, v FROM points), 'flush')) AS s"
        )
        result = deployment.coordinator.wait_result("flush")
        assert sorted(result.dataset.collect()) == sorted(rows)

    def test_session_batch_rows_prop(self, points):
        """`stream.batch_rows` in conf_props configures the session too."""
        deployment, rows = points
        session = deployment.coordinator.create_session(
            "prop",
            command="noop",
            conf_props={"record.format": "raw", "stream.batch_rows": "3"},
        )
        assert session.batch_rows == 3
        deployment.engine.query_rows(
            "SELECT * FROM TABLE(stream_transfer((SELECT id, v FROM points), 'prop')) AS s"
        )
        result = deployment.coordinator.wait_result("prop")
        assert result.dataset.count() == len(rows)


class TestGetDeadlineGuard:
    def test_repeated_notifies_do_not_extend_deadline(self):
        """Notifies that deliver no item (a racing reader won, or a spurious
        wakeup) must not push the timeout further into the future."""
        buf = SpillableBuffer(capacity_bytes=1024)
        stop = threading.Event()

        def nudge():
            while not stop.is_set():
                with buf._lock:
                    buf._readable.notify_all()
                time.sleep(0.02)

        nudger = threading.Thread(target=nudge, daemon=True)
        nudger.start()
        start = time.monotonic()
        try:
            with pytest.raises(TransferError, match="timed out"):
                buf.get(timeout=0.25)
        finally:
            stop.set()
            nudger.join()
        elapsed = time.monotonic() - start
        assert elapsed < 5.0  # far below even one extra full timeout period

    def test_timeout_none_still_blocks_until_close(self):
        buf = SpillableBuffer(capacity_bytes=64)
        closer = threading.Timer(0.05, buf.close)
        closer.start()
        assert buf.get(timeout=None) is None
        closer.join()


class TestBrokerBlocks:
    def _drain(self, broker, topic, partitions, group="g"):
        rows = []
        for p in range(partitions):
            rows.extend(BrokerConsumer(broker, topic, p, group=group))
        return rows

    def test_records_are_blocks_but_rows_are_counted(self):
        broker = MessageBroker()
        broker.create_topic("t", 2)
        producer = BrokerProducer(broker, "t", batch_rows=8)
        data = _rows(20)
        producer.send_many(data)
        producer.close()
        info = broker.topic_info("t")
        assert info.total_records == 20  # logical rows, not block records
        # 10 rows round-robin into each partition: 8 + an EOF-flushed 2.
        assert sorted(self._drain(broker, "t", 2)) == sorted(data)

    def test_batch_rows_one_is_seed_wire(self):
        """``batch_rows=1`` is one-row frames: one record per row, none
        buffered — the seed's record granularity, in the one frame format."""
        broker = MessageBroker()
        broker.create_topic("seed", 1)
        producer = BrokerProducer(broker, "seed", batch_rows=1)
        offsets = [producer.send(row) for row in _rows(5)]
        producer.close()
        assert offsets == [0, 1, 2, 3, 4]
        payloads, _next, _end = broker.fetch("seed", 0, 0, max_records=10)
        assert [decode_block(p) for p in payloads] == [[row] for row in _rows(5)]

    def test_uncommitted_blocks_redelivered_whole(self):
        """At-least-once granularity is the block: an uncommitted poll is
        redelivered with every row of every block intact."""
        broker = MessageBroker()
        broker.create_topic("redeliver", 1)
        producer = BrokerProducer(broker, "redeliver", batch_rows=5)
        data = _rows(30)
        producer.send_many(data)
        producer.close()  # 6 block records
        first = BrokerConsumer(broker, "redeliver", 0, group="ml", batch_size=2)
        rows, _end = first.poll()  # 2 blocks = 10 rows
        assert rows == data[:10]
        first.commit()
        rows, _end = first.poll()  # 10 more rows, NOT committed
        assert rows == data[10:20]
        # crash: a new consumer in the same group resumes at the commit
        second = BrokerConsumer(broker, "redeliver", 0, group="ml", batch_size=100)
        redelivered, at_end = second.poll()
        assert at_end
        assert redelivered == data[10:]


class TestMlBoundaryByteIdentity:
    """Batching must not change a single value or its ordering at the ML
    boundary, for every connection strategy and broker variant.  On the
    stream, neither block size nor transport may change a ledger byte the
    Figure 3/4 stream stage reads, a simulated second, or the model."""

    STREAM_CATEGORIES = ("stream.sent", "stream.net", "stream.retry", "ml.ingest")
    _streams = {}

    def _signature(self, result):
        # Order-sensitive on purpose: identical per-partition sequences,
        # not just identical multisets.
        return [
            (lp.label, tuple(lp.features))
            for lp in result.ml_result.dataset.collect()
        ]

    def _result(self, batch_rows, runner_name, transport="memory", columnar=False, **ml):
        deployment = make_deployment(
            block_size=64 * 1024,
            batch_rows=batch_rows,
            transport=transport,
            columnar=columnar,
        )
        workload = generate_retail(
            deployment.engine, deployment.dfs, num_users=200, num_carts=2_000, seed=31
        )
        deployment.pipeline.byte_scale = workload.byte_scale
        runner = getattr(deployment.pipeline, runner_name)
        return deployment, runner(workload.prep_sql, workload.spec, **(ml or {"command": "noop"}))

    def _run(self, batch_rows, runner_name, transport="memory", columnar=False):
        return self._signature(self._result(batch_rows, runner_name, transport, columnar)[1])

    def _stream(self, batch_rows, transport):
        """A trained stream run: the ML boundary, the stream's ledger bytes,
        every stage's sim-seconds and the model's weights."""
        key = (batch_rows, transport)
        if key not in self._streams:
            deployment, result = self._result(
                batch_rows,
                "run_insql_stream",
                transport,
                command="svm_with_sgd",
                args={"iterations": 3},
            )
            ledger = {c: deployment.cluster.ledger.get(c) for c in self.STREAM_CATEGORIES}
            assert ledger["stream.sent"] == ledger["ml.ingest"] > 0
            self._streams[key] = (
                self._signature(result),
                ledger,
                [stage.sim_seconds for stage in result.stages],
                result.ml_result.model.weights.tobytes(),
            )
        return self._streams[key]

    def test_stream_batched_equals_per_row_seed(self):
        assert self._stream(256, "memory") == self._stream(1, "memory")

    def test_socket_transport_batched_equals_per_row_seed(self):
        assert self._stream(256, "socket") == self._stream(1, "socket")
        assert self._stream(256, "socket") == self._stream(256, "memory")

    def test_broker_batched_equals_per_row_seed(self):
        assert self._run(256, "run_insql_broker") == self._run(1, "run_insql_broker")

    @pytest.mark.parametrize("columnar", [False, True], ids=["rows", "columnar"])
    def test_all_strategies_agree_with_batching_on(self, columnar):
        batched = {
            name: self._run(256, name, columnar=columnar)
            for name in ("run_naive", "run_insql", "run_insql_stream")
        }
        base = sorted(batched["run_naive"])
        assert base  # non-empty
        for name, sig in batched.items():
            assert sorted(sig) == base, f"{name} diverged"
