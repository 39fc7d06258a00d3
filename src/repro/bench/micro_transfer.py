"""Microbenchmark: raw stream-channel throughput, one-row vs many-row ``R`` vs ``C`` frames.

One producer thread pushes rows through a single :class:`StreamChannel`
while the caller drains it — the tightest loop the transfer stack has.
``batch_rows=1`` pays one frame, one lock acquisition, and one ledger entry
per row; larger blocks amortize all three across the batch.  The columnar
mode is the stream sink's own send path: the same rows as one batch, cut
into typed ``C`` frames of the sink's default block (``batch_rows`` rows)
by its plan and drained whole — no per-row pickle on either end, and no
rows pivot on the receive side.  This is the measurement behind both
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
from repro.transfer.coordinator import DEFAULT_BATCH_ROWS
from repro.transfer.stream_udf import plan_blocks

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
    results = [
        _timed(
            "rows",
            batch,
            buffer_bytes,
            (rows[off : off + batch] for off in range(0, num_rows, batch)),
            num_rows,
        )
        for batch in batch_sizes
    ]
    if columnar:
        results.append(_run_columnar(rows, buffer_bytes))
    return results


def _run_columnar(rows: list[tuple], buffer_bytes: int) -> MicroRow:
    """The stream sink's send path: the partition's batch cut into ``C``
    frames of the default ``batch_rows`` by the sink's own plan, an index
    take each.  The batch is built outside the timed region, like the row
    modes' list: the sink's batch comes straight from the SQL kernels."""
    batch = ColumnBatch.from_rows(MICRO_SCHEMA, rows)
    plan = plan_blocks(len(rows), 1, DEFAULT_BATCH_ROWS)
    blocks = (batch.take(indices) for _channel, _seq, indices in plan)
    return _timed("columnar", DEFAULT_BATCH_ROWS, buffer_bytes, blocks, len(rows))


def _timed(mode: str, batch_rows: int, buffer_bytes: int, blocks, expected: int) -> MicroRow:
    """Send ``blocks`` through one channel from a producer thread while this
    thread drains it: row by row for ``R`` frames, whole frames for ``C``."""
    channel = StreamChannel(ChannelId(0, 0), SpillableBuffer(buffer_bytes), local=True)

    def produce():
        for block in blocks:
            channel.send_many(block)
        channel.close()

    start = perf_counter()
    producer = threading.Thread(target=produce)
    producer.start()
    if mode == "rows":
        received = sum(1 for _row in channel)
    else:
        received = sum(len(frame) for frame in iter(channel.receive_block, None))
    producer.join()
    wall = perf_counter() - start
    if received != expected:
        raise AssertionError(f"{mode} batch_rows={batch_rows}: received {received} of {expected}")
    return MicroRow(
        batch_rows=batch_rows,
        wall_seconds=wall,
        rows_per_second=received / wall if wall > 0 else float("inf"),
        rows=received,
        mode=mode,
    )


def report(results: list[MicroRow]) -> str:
    base = results[0].wall_seconds
    lines = ["Transfer microbench — one channel, producer thread vs drain loop"]
    for r in results:
        speedup = base / r.wall_seconds if r.wall_seconds > 0 else float("inf")
        label = f"{'C' if r.mode == 'columnar' else 'R'} batch_rows={r.batch_rows}"
        lines.append(
            f"  {label:>18}  {r.wall_seconds * 1000:8.1f} ms"
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
