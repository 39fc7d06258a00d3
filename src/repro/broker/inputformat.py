"""ML-side ingestion from a broker topic: one split per partition.

Required job configuration: ``broker.topic`` property and a ``broker``
object; optional ``broker.group`` (consumer group, default ``"ml"``) and
``broker.timeout_s``.  Resuming a failed job under the same group continues
from committed offsets — the at-least-once recovery path.
"""

from dataclasses import dataclass

from repro.broker.broker import MessageBroker
from repro.broker.consumer import BrokerConsumer
from repro.iofmt.inputformat import InputFormat, InputSplit, JobConf, RecordReader


@dataclass(frozen=True)
class BrokerSplit(InputSplit):
    """One topic partition."""

    topic: str
    partition: int

    def locations(self) -> tuple[str, ...]:
        return ()  # the broker is network-addressed; no placement preference

    def length(self) -> int:
        return 0  # unknown until consumed; readers report bytes_read


class BrokerRecordReader(RecordReader):
    """Drains one partition via a committing consumer."""

    def __init__(self, consumer: BrokerConsumer):
        self._consumer = consumer
        self.bytes_read = 0

    def blocks(self):
        """Each fetched batch of rows as one record."""
        before = self._consumer.bytes_received
        for rows in self._consumer.blocks():
            self.bytes_read = self._consumer.bytes_received - before
            yield rows

    def __iter__(self):
        for rows in self.blocks():
            yield from rows


class BrokerInputFormat(InputFormat):
    """Swap-in replacement for SQLStreamInputFormat backed by the broker."""

    def get_splits(self, conf: JobConf, num_splits: int) -> list[InputSplit]:
        broker: MessageBroker = conf.require_object("broker")
        topic = conf.get("broker.topic")
        if not topic:
            raise ValueError("BrokerInputFormat needs the 'broker.topic' property")
        info = broker.topic_info(topic)
        return [BrokerSplit(topic, p) for p in range(info.num_partitions)]

    def create_record_reader(self, split: InputSplit, conf: JobConf) -> RecordReader:
        if not isinstance(split, BrokerSplit):
            raise TypeError(f"BrokerInputFormat cannot read {type(split).__name__}")
        broker: MessageBroker = conf.require_object("broker")
        consumer = BrokerConsumer(
            broker,
            split.topic,
            split.partition,
            group=conf.get("broker.group", "ml"),
            timeout_s=float(conf.get("broker.timeout_s", 30.0)),
            injector=conf.get_object("fault.injector"),
            budget=conf.get_object("budget"),
            retry_budget=conf.get_object("retry.budget"),
        )
        return BrokerRecordReader(consumer)
