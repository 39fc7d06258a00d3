"""Microbenchmark: raw stream-channel throughput, one-row vs many-row vs columnar frames.

One producer thread pushes rows through a single :class:`StreamChannel`
while the caller drains it — the tightest loop the transfer stack has.
``batch_rows=1`` pays one frame, one lock acquisition, and one ledger entry
per row; larger blocks amortize all three across the batch.  The columnar
mode sends the same rows as one typed ``C`` frame (a pickled numpy array
per column) and drains whole frames — no per-row pickle on either end, and
no rows pivot on the receive side.  This is the measurement behind both
framing decisions: each must beat one-row frames by a wide margin on wall
clock while delivering the identical row sequence.
"""

import json
import threading
from dataclasses import asdict, dataclass
from time import perf_counter

from repro.columnar.batch import ColumnBatch
from repro.sql.types import DataType, Schema
from repro.transfer.buffers import SpillableBuffer
from repro.transfer.channel import ChannelId, StreamChannel

MICRO_SCHEMA = Schema.of(
    ("id", DataType.BIGINT),
    ("score", DataType.DOUBLE),
    ("name", DataType.VARCHAR),
    ("flag", DataType.BOOLEAN),
)


@dataclass
class MicroRow:
    batch_rows: int
    wall_seconds: float
    rows_per_second: float
    rows: int
    #: "rows" for ``R`` frames, "columnar" for ``C`` frames
    mode: str = "rows"


def _make_rows(num_rows: int) -> list[tuple]:
    return [(i, float(i) * 0.5, f"user-{i % 997}", i % 7 == 0) for i in range(num_rows)]


def run_transfer_microbench(
    num_rows: int = 100_000,
    batch_sizes: tuple[int, ...] = (1, 16, 256, 4096),
    buffer_bytes: int = 64 * 1024,
    columnar: bool = False,
) -> list[MicroRow]:
    rows = _make_rows(num_rows)  # built outside the timed region
    results = []
    for batch in batch_sizes:
        channel = StreamChannel(
            ChannelId(0, 0), SpillableBuffer(buffer_bytes), local=True
        )

        def produce(channel=channel, batch=batch):
            for off in range(0, len(rows), batch):
                channel.send_many(rows[off : off + batch])
            channel.close()

        start = perf_counter()
        producer = threading.Thread(target=produce)
        producer.start()
        received = 0
        for _row in channel:
            received += 1
        producer.join()
        wall = perf_counter() - start

        if received != num_rows:
            raise AssertionError(
                f"batch_rows={batch}: received {received} of {num_rows} rows"
            )
        results.append(
            MicroRow(
                batch_rows=batch,
                wall_seconds=wall,
                rows_per_second=received / wall if wall > 0 else float("inf"),
                rows=received,
            )
        )
    if columnar:
        results.append(_run_columnar(rows, buffer_bytes))
    return results


def _run_columnar(rows: list[tuple], buffer_bytes: int) -> MicroRow:
    """The columnar data plane's send path: the partition travels as one
    typed ``C`` frame (what the stream UDF sends per channel slice) and the
    receiver drains whole frames.  The batch is built outside the timed
    region, symmetric with the row modes' pre-built ``rows`` list — in the
    columnar plane the batch comes straight from the columnar scan, so the
    rows->batch pivot is not part of the transfer cost being measured."""
    channel = StreamChannel(ChannelId(0, 0), SpillableBuffer(buffer_bytes), local=True)
    batch = ColumnBatch.from_rows(MICRO_SCHEMA, rows)

    def produce():
        channel.send_many(batch)
        channel.close()

    start = perf_counter()
    producer = threading.Thread(target=produce)
    producer.start()
    received = 0
    while True:
        frame = channel.receive_block()
        if frame is None:
            break
        received += len(frame)
    producer.join()
    wall = perf_counter() - start

    if received != len(rows):
        raise AssertionError(f"columnar: received {received} of {len(rows)} rows")
    return MicroRow(
        batch_rows=len(rows),
        wall_seconds=wall,
        rows_per_second=received / wall if wall > 0 else float("inf"),
        rows=received,
        mode="columnar",
    )


def report(results: list[MicroRow]) -> str:
    base = results[0].wall_seconds
    lines = ["Transfer microbench — one channel, producer thread vs drain loop"]
    for r in results:
        speedup = base / r.wall_seconds if r.wall_seconds > 0 else float("inf")
        label = "columnar" if r.mode == "columnar" else f"batch_rows={r.batch_rows}"
        lines.append(
            f"  {label:>16}  {r.wall_seconds * 1000:8.1f} ms"
            f"  {r.rows_per_second:>12,.0f} rows/s  {speedup:5.2f}x vs one-row frames"
        )
    return "\n".join(lines)


def persist_results(results: list[MicroRow], path: str) -> None:
    """Write the run as JSON (the CI perf-smoke artifact)."""
    base = results[0].wall_seconds
    doc = {
        "benchmark": "transfer_micro",
        "rows": results[0].rows,
        "results": [
            dict(
                asdict(r),
                speedup_vs_per_row=(
                    base / r.wall_seconds if r.wall_seconds > 0 else None
                ),
            )
            for r in results
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main() -> None:  # pragma: no cover - CLI entry
    import sys

    results = run_transfer_microbench(columnar=True)
    print(report(results))
    if len(sys.argv) > 1:
        persist_results(results, sys.argv[1])


if __name__ == "__main__":  # pragma: no cover
    main()
