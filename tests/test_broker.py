"""Message broker core: topics, offsets, consumer groups, at-least-once."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.broker import MessageBroker
from repro.broker.consumer import BrokerConsumer
from repro.broker.producer import BrokerProducer
from repro.broker.transfer_udf import partition_group
from repro.common.errors import TransferError


@pytest.fixture()
def broker():
    return MessageBroker()


class TestTopics:
    def test_create_and_info(self, broker):
        broker.create_topic("t", 4)
        info = broker.topic_info("t")
        assert info.num_partitions == 4
        assert info.total_records == 0
        assert not info.sealed

    def test_duplicate_rejected(self, broker):
        broker.create_topic("t", 1)
        with pytest.raises(TransferError, match="already exists"):
            broker.create_topic("t", 1)

    def test_zero_partitions_rejected(self, broker):
        with pytest.raises(TransferError):
            broker.create_topic("t", 0)

    def test_unknown_topic(self, broker):
        with pytest.raises(TransferError, match="unknown topic"):
            broker.topic_info("ghost")

    def test_delete(self, broker):
        broker.create_topic("t", 1)
        broker.delete_topic("t")
        with pytest.raises(TransferError, match="unknown topic"):
            broker.topic_info("t")
        with pytest.raises(TransferError):
            broker.delete_topic("t")

    def test_delete_clears_group_offsets(self, broker):
        broker.create_topic("t", 1)
        broker.append("t", 0, b"x")
        broker.commit_offset("g", "t", 0, 1)
        broker.delete_topic("t")
        broker.create_topic("t", 1)
        assert broker.committed_offset("g", "t", 0) == 0


class TestAppendFetch:
    def test_offsets_dense_from_zero(self, broker):
        broker.create_topic("t", 1)
        assert broker.append("t", 0, b"a") == 0
        assert broker.append("t", 0, b"b") == 1

    def test_fetch_in_order(self, broker):
        broker.create_topic("t", 1)
        for payload in (b"a", b"b", b"c"):
            broker.append("t", 0, payload)
        broker.seal_partition("t", 0)
        chunk, next_offset, at_end = broker.fetch("t", 0, 0, max_records=2)
        assert chunk == [b"a", b"b"] and next_offset == 2 and not at_end
        chunk, next_offset, at_end = broker.fetch("t", 0, 2)
        assert chunk == [b"c"] and next_offset == 3 and at_end

    def test_fetch_at_end_of_sealed_partition(self, broker):
        broker.create_topic("t", 1)
        broker.seal_partition("t", 0)
        chunk, offset, at_end = broker.fetch("t", 0, 0)
        assert chunk == [] and at_end

    def test_fetch_blocks_until_data(self, broker):
        broker.create_topic("t", 1)

        def producer():
            broker.append("t", 0, b"late")
            broker.seal_partition("t", 0)

        thread = threading.Timer(0.05, producer)
        thread.start()
        chunk, _offset, _end = broker.fetch("t", 0, 0, timeout=2.0)
        assert chunk == [b"late"]
        thread.join()

    def test_fetch_timeout(self, broker):
        broker.create_topic("t", 1)
        with pytest.raises(TransferError, match="timed out"):
            broker.fetch("t", 0, 0, timeout=0.05)

    def test_append_after_seal_rejected(self, broker):
        broker.create_topic("t", 1)
        broker.seal_partition("t", 0)
        with pytest.raises(TransferError, match="sealed"):
            broker.append("t", 0, b"x")

    def test_bad_partition(self, broker):
        broker.create_topic("t", 2)
        with pytest.raises(TransferError, match="partitions"):
            broker.append("t", 5, b"x")

    def test_retention_multiple_reads(self, broker):
        """Data is retained after consumption — the broker-as-cache use."""
        broker.create_topic("t", 1)
        broker.append("t", 0, b"kept")
        broker.seal_partition("t", 0)
        for _ in range(3):
            chunk, _o, _e = broker.fetch("t", 0, 0)
            assert chunk == [b"kept"]


class TestOffsets:
    def test_commit_and_read(self, broker):
        broker.create_topic("t", 2)
        broker.commit_offset("g", "t", 0, 5)
        assert broker.committed_offset("g", "t", 0) == 5
        assert broker.committed_offset("g", "t", 1) == 0
        assert broker.committed_offset("other", "t", 0) == 0

    def test_commit_backwards_rejected(self, broker):
        broker.create_topic("t", 1)
        broker.commit_offset("g", "t", 0, 5)
        with pytest.raises(TransferError, match="backwards"):
            broker.commit_offset("g", "t", 0, 3)

    def test_ledger_accounting(self):
        from repro.cluster.cost import CostLedger

        ledger = CostLedger()
        broker = MessageBroker(ledger=ledger)
        broker.create_topic("t", 1)
        broker.append("t", 0, b"12345")
        broker.seal_partition("t", 0)
        broker.fetch("t", 0, 0)
        assert ledger.get("broker.in") == 5
        assert ledger.get("broker.out") == 5


class TestProducerConsumer:
    def test_round_robin_and_drain(self, broker):
        broker.create_topic("t", 3)
        producer = BrokerProducer(broker, "t")
        rows = [(i, f"v{i}") for i in range(30)]
        for row in rows:
            producer.send(row)
        producer.close()
        received = []
        for partition in range(3):
            consumer = BrokerConsumer(broker, "t", partition, group="g")
            received.extend(consumer)
        assert sorted(received) == rows
        info = broker.topic_info("t")
        assert info.total_records == 30 and info.sealed

    def test_keyed_routing_preserves_per_key_order(self, broker):
        broker.create_topic("t", 4)
        producer = BrokerProducer(broker, "t")
        for i in range(40):
            producer.send(("k%d" % (i % 5), i), key=i % 5)
        producer.close()
        per_key: dict = {}
        for partition in range(4):
            for key, value in BrokerConsumer(broker, "t", partition, group="g"):
                per_key.setdefault(key, []).append(value)
        for values in per_key.values():
            assert values == sorted(values)

    def test_producer_partition_subset(self, broker):
        broker.create_topic("t", 4)
        producer = BrokerProducer(broker, "t", partitions=[1, 2])
        for i in range(10):
            producer.send((i,))
        producer.close()
        assert broker.topic_info("t").total_records == 10
        # only the producer's partitions hold data (and were sealed)
        counts = []
        for partition in range(4):
            if partition in (1, 2):
                records, _off, _end = broker.fetch("t", partition, 0, max_records=100)
            else:
                records = []
            counts.append(len(records))
        assert counts == [0, 5, 5, 0]

    def test_at_least_once_resume(self, broker):
        """The §8 guarantee: a consumer crashing after processing but before
        committing re-reads those records on restart."""
        broker.create_topic("t", 1)
        producer = BrokerProducer(broker, "t")
        for i in range(10):
            producer.send((i,))
        producer.close()

        # First consumer processes 6 records but only commits after 4.
        consumer = BrokerConsumer(broker, "t", 0, group="g", batch_size=4)
        first_batch, _ = consumer.poll()  # offsets 0..3
        consumer.commit()
        second_batch, _ = consumer.poll()  # offsets 4..7, NOT committed
        assert [r[0] for r in first_batch] == [0, 1, 2, 3]
        assert [r[0] for r in second_batch] == [4, 5, 6, 7]
        del consumer  # crash

        # The restarted consumer resumes at the committed offset 4.
        resumed = BrokerConsumer(broker, "t", 0, group="g", batch_size=100)
        rows = list(resumed)
        assert [r[0] for r in rows] == [4, 5, 6, 7, 8, 9]  # 4..7 re-delivered

    def test_independent_groups(self, broker):
        broker.create_topic("t", 1)
        producer = BrokerProducer(broker, "t")
        producer.send(("only",))
        producer.close()
        assert list(BrokerConsumer(broker, "t", 0, group="a")) == [("only",)]
        assert list(BrokerConsumer(broker, "t", 0, group="b")) == [("only",)]

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(), st.text(max_size=5)), max_size=50),
        partitions=st.integers(1, 5),
    )
    def test_exactly_once_effect_without_failures(self, rows, partitions):
        broker = MessageBroker()
        broker.create_topic("t", partitions)
        producer = BrokerProducer(broker, "t")
        for row in rows:
            producer.send(row)
        producer.close()
        received = []
        for partition in range(partitions):
            received.extend(BrokerConsumer(broker, "t", partition, group="g"))
        assert sorted(map(repr, received)) == sorted(map(repr, rows))


class TestPartitionGrouping:
    def test_even_grouping(self):
        groups = [partition_group(12, 4, w) for w in range(4)]
        assert groups == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]

    def test_uneven_grouping_covers_all(self):
        groups = [partition_group(10, 4, w) for w in range(4)]
        flat = [p for g in groups for p in g]
        assert flat == list(range(10))
        assert [len(g) for g in groups] == [3, 3, 2, 2]
