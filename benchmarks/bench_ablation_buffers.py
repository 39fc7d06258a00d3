"""Ablation A: stream buffer size (the paper fixes 4 KB without a sweep).

Shape: undersized buffers spill (backpressure hit the producer), the spill
fraction is monotonically non-increasing in buffer size, and data integrity
holds at every size.
"""

from repro.bench.ablation_buffers import (
    report,
    report_batch_rows,
    run_batch_rows_ablation,
    run_buffer_ablation,
)


def test_buffer_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: run_buffer_ablation(sizes=(256, 1024, 4096, 16384)),
        rounds=1,
        iterations=1,
    )
    # Same rows delivered at every buffer size.
    assert len({r.rows for r in rows}) == 1
    assert rows[0].rows > 0
    # Tiny buffers must spill; spilling shrinks as buffers grow.
    assert rows[0].spilled_bytes > 0
    spills = [r.spilled_bytes for r in rows]
    assert spills == sorted(spills, reverse=True)
    # A generously sized buffer should not spill at all.
    assert rows[-1].spilled_bytes == 0
    print()
    print(report(rows))


def test_batch_rows_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: run_batch_rows_ablation(batch_sizes=(1, 16, 256, 4096)),
        rounds=1,
        iterations=1,
    )
    # Same logical rows delivered at every block size, including the
    # per-row seed framing (batch_rows=1).
    assert len({r.rows for r in rows}) == 1
    assert rows[0].rows > 0
    # Byte accounting is framing-invariant: every block size charges the
    # ledger the rows' typed logical bytes, so simulated time is
    # identical across the sweep and only wall clock moves.
    assert len({r.streamed_bytes for r in rows}) == 1
    print()
    print(report_batch_rows(rows))
