"""Raw stream-channel throughput: one-row vs many-row vs columnar frames.

Acceptance bars for the two framing decisions, on a single channel moving
the identical row sequence:

- Row blocks: 256-row frames must at least halve wall clock against
  one-row frames (``batch_rows=1``).
- Columnar: one typed ``C`` frame must beat one-row frames by the
  ``COLUMNAR_SPEEDUP_FLOOR`` factor (default 8x; CI's shared runners set a
  relaxed floor via the env var and publish the JSON results artifact).
"""

import os

from repro.bench.micro_transfer import (
    persist_results,
    report,
    run_transfer_microbench,
)


def test_row_block_speedup(benchmark):
    results = benchmark.pedantic(
        lambda: run_transfer_microbench(num_rows=100_000, batch_sizes=(1, 256)),
        rounds=1,
        iterations=1,
    )
    per_row, blocked = results
    assert per_row.rows == blocked.rows == 100_000
    speedup = per_row.wall_seconds / blocked.wall_seconds
    assert speedup >= 2.0, f"row-block speedup only {speedup:.2f}x"
    print()
    print(report(results))


def test_columnar_speedup(benchmark):
    floor = float(os.environ.get("COLUMNAR_SPEEDUP_FLOOR", "8.0"))
    results = benchmark.pedantic(
        lambda: run_transfer_microbench(
            num_rows=100_000, batch_sizes=(1, 256), columnar=True
        ),
        rounds=1,
        iterations=1,
    )
    per_row, _blocked, columnar = results
    assert columnar.mode == "columnar"
    assert per_row.rows == columnar.rows == 100_000
    out_path = os.environ.get("BENCH_COLUMNAR_JSON")
    if out_path:
        persist_results(results, out_path)
    speedup = per_row.wall_seconds / columnar.wall_seconds
    assert speedup >= floor, f"columnar speedup only {speedup:.2f}x (floor {floor}x)"
    print()
    print(report(results))
