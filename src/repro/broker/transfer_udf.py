"""SQL-side sender for the broker transfer path.

``TABLE(broker_transfer(input, 'topic' [, batch_rows]))`` — each SQL worker
produces its partition's rows into its own group of topic partitions (the
same n-groups-of-k layout as the §3 coordinator's matchmaking), then seals
them.  No coordinator is involved: the broker decouples the two systems in
time, so the ML job may start before, during, or after the SQL side runs.

``batch_rows`` (default 256) is the number of rows per broker record (one
frame each); 1 appends one one-row frame per row.

The topic must exist with n*k partitions (the pipeline creates it); k is
derived from the partition count.
"""

from collections.abc import Iterable

from repro.broker.broker import MessageBroker
from repro.broker.producer import BrokerProducer
from repro.common.errors import TransferError
from repro.sql.types import DataType, Schema
from repro.sql.udf import TableUDF, UdfContext


def partition_group(total_partitions: int, num_workers: int, worker_id: int) -> list[int]:
    """The topic partitions owned by one SQL worker (even n-way grouping)."""
    base, extra = divmod(total_partitions, num_workers)
    start = worker_id * base + min(worker_id, extra)
    size = base + (1 if worker_id < extra else 0)
    return list(range(start, start + size))


DEFAULT_BATCH_ROWS = 256


class BrokerTransferUDF(TableUDF):
    """``TABLE(broker_transfer(input, topic [, batch_rows]))`` — produce rows
    to the broker, ``batch_rows`` per record."""

    name = "broker_transfer"

    def output_schema(self, input_schema: Schema, args: tuple) -> Schema:
        self._parse_args(args)
        return Schema.of(
            ("worker_id", DataType.INT),
            ("rows_sent", DataType.BIGINT),
            ("bytes_sent", DataType.BIGINT),
        )

    def process_partition(
        self, rows: Iterable[tuple], input_schema: Schema, args: tuple, ctx: UdfContext
    ) -> Iterable[tuple]:
        topic, batch_rows = self._parse_args(args)
        broker: MessageBroker = ctx.service("broker")
        info = broker.topic_info(topic)
        if info.num_partitions < ctx.num_workers:
            raise TransferError(
                f"topic {topic!r} has {info.num_partitions} partitions for "
                f"{ctx.num_workers} SQL workers; need at least one each"
            )
        group = partition_group(info.num_partitions, ctx.num_workers, ctx.worker_id)
        producer = BrokerProducer(
            broker,
            topic,
            partitions=group,
            batch_rows=batch_rows,
            # Deployment-wide retry budget (optional engine service): caps
            # append retries under overload so they fail fast instead of
            # amplifying the load on a struggling broker.
            retry_budget=ctx.services.get("retry_budget"),
            clock=ctx.services.get("clock"),
        )
        try:
            producer.send_many(rows)
        finally:
            producer.close()
        yield (ctx.worker_id, producer.rows_sent, producer.bytes_sent)

    @staticmethod
    def _parse_args(args: tuple) -> tuple[str, int]:
        if not args:
            raise TransferError("broker_transfer needs a topic name")
        topic = str(args[0])
        batch_rows = DEFAULT_BATCH_ROWS
        if len(args) > 1 and args[1] is not None:
            batch_rows = int(args[1])
            if batch_rows < 1:
                raise TransferError(f"batch_rows must be >= 1, got {batch_rows}")
        return topic, batch_rows
