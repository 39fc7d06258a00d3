"""Every metric the benchmark reports, declared once.

``BENCHMARK.json`` carries name/unit/better(/bound) of each; the contract
for that file allows no further keys, so what kind of measurement a
per-layer metric is and which end-to-end number it is predicted to move
lives here (and in README.md), and ``test_harness.py`` keeps the two in step.
"""

#: (name, unit, better, bound, meaning).  ``bound`` is the share of the
#: parent's median by which the metric may worsen before it is a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "import + make_deployment + data generation + DFS load + table registration "
     "+ cache population + warm-up ops; median of the rounds"),
    ("op_s_p50", "s", "lower", 0.25, "median op latency, of the least disturbed round"),
    ("op_s_tail", "s", "lower", 0.25,
     "op latency at p70: the pooled ops' times relative to their round's median, "
     "scaled by the least disturbed round's median"),
    ("records_per_s", "records/s", "higher", 0.25,
     "transformed records delivered to the trainer / measured wall, best round"),
    ("cpu_s_per_op", "s", "lower", 0.25,
     "process user+sys CPU / ops, best round: separates less work from more overlap under the GIL"),
    ("peak_rss_mb", "MiB", "lower", 0.10, "ru_maxrss of the round's process"),
]

# kind T = traced round, mean per op (busy = CPU self time of the layer's
# spans, wait = wall time of the call, count = ledger delta or call count);
# kind P = direct probe of the layer's public functions on the workload's
# data, best of a few repetitions.
_STREAMS = "stream_rows, stream_columnar"
#: (name, unit, better, kind, moves) — ``moves`` is the prediction later PRs check.
PER_LAYER = [
    ("integration.pass1_ms", "ms", "lower", "T wait",
     f"~40% of op_s_p50 on {_STREAMS}; zero on cached_followups, serve_sessions"),
    ("integration.main_stage_ms", "ms", "lower", "T wait", "op_s_p50 on every pipeline workload"),
    ("integration.jaql_stage_ms", "ms", "lower", "T wait", "op_s_p50 on naive_dfs only"),
    ("integration.ml_input_ms", "ms", "lower", "T wait", "op_s_p50 on naive_dfs only"),
    ("integration.ml_train_ms", "ms", "lower", "T wait", "op_s_p50 on naive_dfs (<3%)"),
    ("integration.glue_ms", "ms", "lower", "T wait",
     "op wall - sum of stages: planning, label position, lineage; op_s_p50 on cached_followups"),
    ("rewriter.plan_ms", "ms", "lower", "P", "op_s_p50 on cached_followups only"),
    ("caching.lookup_ms", "ms", "lower", "P", "op_s_p50 on cached_followups only"),
    ("caching.hit_ratio", "ratio", "higher", "T count",
     "cached_followups: 3 hits of 4 lookups per op (0.75); no lookups elsewhere"),
    ("sql.plan_ms", "ms", "lower", "P", "op_s_p50 on serve_sessions only"),
    ("sql.scan_rows_per_s", "rows/s", "higher", "P",
     f"op_s_p50, records_per_s, cpu_s_per_op on {_STREAMS} (carts scanned twice per op), naive_dfs (once)"),
    ("sql.scan_2col_rows_per_s", "rows/s", "higher", "P",
     "as sql.scan_rows_per_s; projection pushdown shows as a gap between the two"),
    ("sql.distinct_ms", "ms", "lower", "P", f"integration.pass1_ms, op_s_p50 on {_STREAMS}"),
    ("sql.join_ms", "ms", "lower", "P", f"op_s_p50 on {_STREAMS}, naive_dfs"),
    ("sql.execute_calls", "count", "lower", "T count", "none by itself; 2 per stream op, 1 per naive op"),
    ("sql.execute_ms", "ms", "lower", "T busy",
     f"op_s_p50, records_per_s, cpu_s_per_op on {_STREAMS}, naive_dfs, and the recode-reuse leg of cached_followups"),
    ("sql.scan_bytes", "bytes", "lower", "T count", "cluster.sim_s; must not move without a re-baseline"),
    ("sql.shuffle_bytes", "bytes", "lower", "T count", "cluster.sim_s; must not move without a re-baseline"),
    ("sql.output_bytes", "bytes", "lower", "T count", "cluster.sim_s; must not move without a re-baseline"),
    ("transform.udf_ms", "ms", "lower", "T busy",
     f"op_s_p50 on {_STREAMS}; not naive_dfs (Jaql transforms there), not the full-hit legs of cached_followups"),
    ("transform.inner_sql_ms", "ms", "lower", "P", f"integration.main_stage_ms on {_STREAMS}"),
    ("transform.map_build_ms", "ms", "lower", "P", f"integration.pass1_ms on {_STREAMS} (<1%)"),
    ("hdfs.read_mb_per_s", "MB/s", "higher", "P", "nothing end to end: reads are <1% of every op"),
    ("hdfs.write_mb_per_s", "MB/s", "higher", "P", "op_s_p50 on naive_dfs only"),
    ("hdfs.read_ms", "ms", "lower", "T busy", "<1% everywhere: a prediction of no movement"),
    ("hdfs.write_ms", "ms", "lower", "T busy", "op_s_p50 on naive_dfs only"),
    ("hdfs.read_bytes", "bytes", "lower", "T count", "cluster.sim_s"),
    ("hdfs.write_bytes", "bytes", "lower", "T count", "cluster.sim_s on naive_dfs only"),
    ("iofmt.csv_rows_per_s", "rows/s", "higher", "P",
     "integration.ml_input_ms on naive_dfs; every scan (part of sql.execute_ms)"),
    ("mapreduce.jaql_ms", "ms", "lower", "T busy", "op_s_p50 on naive_dfs only"),
    ("mapreduce.shuffle_bytes", "bytes", "lower", "T count", "cluster.sim_s on naive_dfs only"),
    ("columnar.from_rows_ms", "ms", "lower", "P", "op_s_p50 on stream_columnar only"),
    ("columnar.encode_ms", "ms", "lower", "P", "op_s_p50 on stream_columnar only"),
    ("columnar.decode_ms", "ms", "lower", "P", "op_s_p50 on stream_columnar only"),
    ("columnar.fallback_count", "count", "lower", "T count", "op_s_p50 on stream_columnar only"),
    ("transfer.encode_rows_per_s", "rows/s", "higher", "P", "transfer.send_udf_ms on stream_rows, cached_followups"),
    ("transfer.decode_rows_per_s", "rows/s", "higher", "P", "ml.ingest_ms on stream_rows, cached_followups"),
    ("transfer.channel_rows_per_s", "rows/s", "higher", "P", f"<8% of op_s_p50 on {_STREAMS}"),
    ("transfer.socket_rows_per_s", "rows/s", "higher", "P", "<8% of op_s_p50 on stream_columnar"),
    ("transfer.send_udf_ms", "ms", "lower", "T busy", f"<8% of op_s_p50 on {_STREAMS}, cached_followups"),
    ("transfer.control_cpu_ms", "ms", "lower", "T busy",
     "op_s_p50, op_s_tail, records_per_s on serve_sessions (coordinator, admission, mux set-up)"),
    ("transfer.create_session_ms", "ms", "lower", "T wait", "op_s_p50, op_s_tail on serve_sessions (includes admission wait)"),
    ("transfer.wait_result_ms", "ms", "lower", "T wait", "op_s_p50 on serve_sessions"),
    ("transfer.close_session_ms", "ms", "lower", "T wait", "op_s_p50 on serve_sessions"),
    ("transfer.sent_bytes", "bytes", "lower", "T count", "cluster.sim_s on the stream workloads"),
    ("transfer.spilled_bytes", "bytes", "lower", "T count", "none at this buffer size; tracks batching changes"),
    ("transfer.admission_queued", "count", "lower", "T count", "op_s_tail on serve_sessions"),
    ("ml.ingest_ms", "ms", "lower", "T wait", "op_s_p50 on naive_dfs (DFS ingest); overlapped elsewhere"),
    ("ml.ingest_records", "count", "higher", "T count", "records_per_s (must equal records per op)"),
    ("ml.ingest_bytes", "bytes", "lower", "T count", "cluster.sim_s"),
    ("ml.busy_ms", "ms", "lower", "T busy", "op_s_p50 on naive_dfs; <8% elsewhere"),
    ("ml.train_ms_per_iter", "ms", "lower", "P", "<2% of op_s_p50 everywhere"),
    ("cluster.ledger_adds", "count", "lower", "T count", "cpu_s_per_op on stream_rows, naive_dfs"),
    ("cluster.sim_s", "s", "lower", "T count", "nothing: deterministic; must not move without a deliberate re-baseline"),
    ("cluster.ledger_add_ns", "ns", "lower", "P", "cpu_s_per_op (146 adds per stream op)"),
    ("cluster.estimate_bytes_ms", "ms", "lower", "P",
     "cpu_s_per_op, op_s_p50 on stream_rows, naive_dfs (rows-plane byte accounting)"),
    ("process.thread_starts", "count", "lower", "T count", "op_s_p50 on serve_sessions"),
    ("process.thread_ms", "ms", "lower", "T busy", "op_s_p50 on serve_sessions (pool spawn and join per query)"),
    ("process.multicore_penalty", "ratio", "lower", "T wait",
     "unpinned / pinned op_s_p50 - 1: what the second core costs a user who does not pin; serve_sessions above all"),
    ("trace.overhead_frac", "ratio", "lower", "T wait", "nothing: traced / untraced op_s_p50 - 1"),
    ("trace.attributed_frac", "ratio", "higher", "T busy",
     "nothing: CPU self time of all spans / traced op wall; attribution closes when >= 0.95"),
]


def benchmark_json(workloads, run_seconds: int) -> dict:
    """The content of ``BENCHMARK.json`` at the repo root."""
    return {
        "command": ["python3", "-m", "bench_e2e"],
        "paths": ["bench_e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _meaning in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _kind, _moves in PER_LAYER
        ],
    }
