"""Raw stream-channel throughput: one-row vs many-row vs columnar frames.

Acceptance bars for the two framing decisions, on a single channel moving
the identical row sequence:

- Row blocks: 256-row frames must at least halve wall clock against
  one-row frames (``batch_rows=1``).
- Columnar: ``C`` frames as the stream sink cuts them (``batch_rows`` rows
  each) must beat one-row frames by the ``COLUMNAR_SPEEDUP_FLOOR`` factor
  (default 8x; CI's shared runners set a relaxed floor via the env var and
  publish the JSON results artifact).
"""

import os
import time

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


#: Rounds of the columnar gate, each after a pause.  Back-to-back one-row
#: runs slow down on a shared 2-vCPU host (0.90, 2.31, 4.61 s in one
#: process; 0.97-1.06 s with 3 s between runs) far more than the columnar
#: ones, so unpaused rounds would credit the columnar frames with that
#: drift.  The gate compares each mode's best wall over the rounds.
COLUMNAR_ROUNDS = 3
SETTLE_S = 3.0


def _settled_round():
    time.sleep(SETTLE_S)
    return run_transfer_microbench(num_rows=100_000, batch_sizes=(1, 256), columnar=True)


def test_columnar_speedup(benchmark):
    floor = float(os.environ.get("COLUMNAR_SPEEDUP_FLOOR", "8.0"))
    rounds = benchmark.pedantic(
        lambda: [_settled_round() for _ in range(COLUMNAR_ROUNDS)],
        rounds=1,
        iterations=1,
    )
    results = [min(runs, key=lambda r: r.wall_seconds) for runs in zip(*rounds)]
    per_row, _blocked, columnar = results
    assert columnar.mode == "columnar" and columnar.batch_rows == 256
    assert per_row.rows == columnar.rows == 100_000
    out_path = os.environ.get("BENCH_COLUMNAR_JSON")
    if out_path:
        persist_results(results, out_path)
    speedup = per_row.wall_seconds / columnar.wall_seconds
    print()
    print(report(results))
    assert speedup >= floor, f"columnar speedup only {speedup:.2f}x (floor {floor}x)"
