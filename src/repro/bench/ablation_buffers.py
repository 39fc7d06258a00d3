"""Ablation A: send/receive buffer size in the streaming transfer.

The paper fixes both buffers at 4 KB without exploring the choice; this
ablation sweeps the size and reports spill behaviour (bytes that overflowed
to local disk when the ML side lagged) and transfer wall time.  Expected
shape: tiny buffers spill heavily; past a modest size spilling vanishes and
wall time flattens — i.e. the paper's 4 KB sits near the knee for row-sized
payloads.
"""

from dataclasses import dataclass

from repro import make_deployment
from repro.bench.common import format_table
from repro.workloads.retail import generate_retail


@dataclass
class BufferRow:
    buffer_bytes: int
    spilled_bytes: int
    streamed_bytes: int
    wall_seconds: float
    rows: int


def run_buffer_ablation(
    sizes: tuple[int, ...] = (256, 1024, 4096, 16384, 65536),
    num_users: int = 600,
    num_carts: int = 6_000,
) -> list[BufferRow]:
    rows = []
    for size in sizes:
        deployment = make_deployment(block_size=256 * 1024, buffer_bytes=size)
        workload = generate_retail(
            deployment.engine, deployment.dfs, num_users=num_users, num_carts=num_carts
        )
        deployment.pipeline.byte_scale = workload.byte_scale
        ledger = deployment.cluster.ledger
        before_spill = ledger.get("stream.spilled")
        before_sent = ledger.get("stream.sent")
        result = deployment.pipeline.run_insql_stream(
            workload.prep_sql, workload.spec, "noop"
        )
        stage = result.stage("prep+trsfm+input")
        rows.append(
            BufferRow(
                buffer_bytes=size,
                spilled_bytes=ledger.get("stream.spilled") - before_spill,
                streamed_bytes=ledger.get("stream.sent") - before_sent,
                wall_seconds=stage.wall_seconds,
                rows=result.ml_result.dataset.count(),
            )
        )
    return rows


@dataclass
class BatchRow:
    batch_rows: int
    wall_seconds: float
    rows_per_second: float
    spilled_bytes: int
    streamed_bytes: int
    rows: int


def run_batch_rows_ablation(
    batch_sizes: tuple[int, ...] = (1, 16, 256, 4096),
    num_users: int = 600,
    num_carts: int = 6_000,
) -> list[BatchRow]:
    """Sweep the block size of the transfer stack.

    ``batch_rows=1`` sends one-row frames; larger blocks move the same rows
    with fewer lock acquisitions and frames."""
    out = []
    for batch in batch_sizes:
        deployment = make_deployment(
            block_size=256 * 1024, buffer_bytes=64 * 1024, batch_rows=batch
        )
        workload = generate_retail(
            deployment.engine, deployment.dfs, num_users=num_users, num_carts=num_carts
        )
        deployment.pipeline.byte_scale = workload.byte_scale
        ledger = deployment.cluster.ledger
        before_spill = ledger.get("stream.spilled")
        before_sent = ledger.get("stream.sent")
        result = deployment.pipeline.run_insql_stream(
            workload.prep_sql, workload.spec, "noop"
        )
        stage = result.stage("prep+trsfm+input")
        nrows = result.ml_result.dataset.count()
        wall = stage.wall_seconds
        out.append(
            BatchRow(
                batch_rows=batch,
                wall_seconds=wall,
                rows_per_second=nrows / wall if wall > 0 else float("inf"),
                spilled_bytes=ledger.get("stream.spilled") - before_spill,
                streamed_bytes=ledger.get("stream.sent") - before_sent,
                rows=nrows,
            )
        )
    return out


def report_batch_rows(rows: list[BatchRow]) -> str:
    table = [
        [
            f"{r.batch_rows}",
            f"{r.streamed_bytes}",
            f"{r.spilled_bytes}",
            f"{r.wall_seconds * 1000:.0f} ms",
            f"{r.rows_per_second:,.0f}",
        ]
        for r in rows
    ]
    return "\n".join(
        [
            "Ablation A2 — block size (batch_rows=1 is one-row frames)",
            format_table(
                ["batch_rows", "streamed bytes", "spilled bytes", "wall", "rows/sec"],
                table,
            ),
        ]
    )


def report(rows: list[BufferRow]) -> str:
    table = [
        [
            f"{r.buffer_bytes} B",
            f"{r.streamed_bytes}",
            f"{r.spilled_bytes}",
            f"{100.0 * r.spilled_bytes / r.streamed_bytes if r.streamed_bytes else 0:.1f}%",
            f"{r.wall_seconds * 1000:.0f} ms",
        ]
        for r in rows
    ]
    return "\n".join(
        [
            "Ablation A — stream buffer size (paper fixes 4 KB)",
            format_table(
                ["buffer", "streamed bytes", "spilled bytes", "spill %", "wall"], table
            ),
        ]
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run_buffer_ablation()))
    print()
    print(report_batch_rows(run_batch_rows_ablation()))


if __name__ == "__main__":  # pragma: no cover
    main()
