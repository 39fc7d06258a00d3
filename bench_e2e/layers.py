"""The traced phase: install the span wrappers, run ops, turn spans and
ledger deltas into the kind-T per-layer metrics, then run the probes."""

import statistics

from bench_e2e import adapter, probes
from bench_e2e.loop import Phase, run_ops
from bench_e2e.trace import Tracer

#: ledger categories behind each byte/count metric (deltas over the phase)
LEDGER_METRICS = {
    "sql.scan_bytes": ("sql.scan",),
    "sql.shuffle_bytes": ("sql.shuffle",),
    "sql.output_bytes": ("sql.output",),
    "hdfs.read_bytes": ("dfs.read",),
    "hdfs.write_bytes": ("dfs.write.local", "dfs.write.replica_net"),
    "mapreduce.shuffle_bytes": ("mr.shuffle",),
    "columnar.fallback_count": ("columnar.fallback",),
    "transfer.sent_bytes": ("stream.sent",),
    "transfer.spilled_bytes": ("stream.spilled",),
    "transfer.admission_queued": ("admission.queued",),
    "ml.ingest_bytes": ("ml.ingest",),
}

_CACHE_FIELDS = ("transformed_hits", "recode_map_hits", "transformed_misses", "recode_map_misses")


def _cache_counts(dep) -> list[int]:
    stats = adapter.reach(dep, "pipeline.cache.stats")
    return [getattr(stats, f, 0) for f in _CACHE_FIELDS]


def traced_phase(session, workload, op_ids, base: Phase, seconds, ops, trace_path):
    """Returns ``(phase, per-layer metrics, notes)``; writes the trace file."""
    dep = session.dep
    tracer = Tracer()
    for owner, attr, name in adapter.trace_targets(dep):
        tracer.wrap(owner, attr, name)
    ledger = dep.cluster.ledger
    tracer.wrap_count(type(ledger), "add", "cluster.ledger_adds")
    tracer.wrap_threads()
    ledger_before, cache_before = ledger.snapshot(), _cache_counts(dep)
    try:
        phase = run_ops(session, workload, op_ids, seconds=seconds, ops=ops, tracer=tracer)
    finally:
        tracer.uninstall()
    ledger_after = ledger.snapshot()
    cache_delta = [a - b for a, b in zip(_cache_counts(dep), cache_before)]

    n = max(len(phase.samples), 1)
    spans = tracer.summary(set(phase.op_ids))

    def per_op_ms(field: str, select) -> float:
        return sum(row[field] for name, row in spans.items() if select(name)) * 1e3 / n

    def layer(name: str) -> str:
        return name.split(".")[0]

    stage_keys = ("pass1", "main_stage", "jaql_stage", "ml_input", "ml_train", "other")
    stage_s = sum(phase.stage_s(key) for key in stage_keys)
    op_wall_s = spans.get("integration.op", {}).get("wall_s", 0.0)
    lookups = sum(cache_delta)
    metrics = {
        f"integration.{key}_ms": phase.stage_s(key) * 1e3 / n for key in stage_keys[:-1]
    }
    metrics.update({
        "integration.glue_ms": (sum(phase.samples) - stage_s) * 1e3 / n if stage_s else 0.0,
        "caching.hit_ratio": sum(cache_delta[:2]) / lookups if lookups else 0.0,
        "sql.execute_calls": spans.get("sql.execute", {}).get("calls", 0) / n,
        "sql.execute_ms": per_op_ms("self_cpu_s", lambda s: layer(s) == "sql"),
        "transform.udf_ms": per_op_ms("self_cpu_s", lambda s: s == "transform.udf"),
        "hdfs.read_ms": per_op_ms("self_cpu_s", lambda s: s == "hdfs.read"),
        "hdfs.write_ms": per_op_ms("self_cpu_s", lambda s: s == "hdfs.write"),
        "mapreduce.jaql_ms": per_op_ms("self_cpu_s", lambda s: layer(s) == "mapreduce"),
        "transfer.send_udf_ms": per_op_ms("self_cpu_s", lambda s: s == "transfer.send_udf"),
        "transfer.control_cpu_ms": per_op_ms(
            "self_cpu_s", lambda s: layer(s) == "transfer" and s != "transfer.send_udf"
        ),
        "transfer.create_session_ms": per_op_ms("wall_s", lambda s: s == "transfer.create_session"),
        "transfer.wait_result_ms": per_op_ms("wall_s", lambda s: s == "transfer.wait_result"),
        "transfer.close_session_ms": per_op_ms("wall_s", lambda s: s == "transfer.close_session"),
        "ml.ingest_ms": phase.total("ingest_s") * 1e3 / n,
        "ml.ingest_records": phase.total("ingest_records") / n,
        "ml.busy_ms": per_op_ms("self_cpu_s", lambda s: layer(s) == "ml"),
        "cluster.ledger_adds": tracer.counts["cluster.ledger_adds"] / n,
        "cluster.sim_s": phase.total("sim_s") / n,
        "process.thread_starts": tracer.counts["process.thread_starts"] / n,
        "process.thread_ms": per_op_ms("self_cpu_s", lambda s: layer(s) == "process"),
        "trace.overhead_frac": (
            statistics.median(phase.samples) / statistics.median(base.samples) - 1.0
            if phase.samples and base.samples else 0.0
        ),
        # Concurrent clients' op walls overlap, so the wall the CPU time has
        # to fill is the sum of op walls divided by the client count.
        "trace.attributed_frac": (
            sum(row["self_cpu_s"] for row in spans.values()) / (op_wall_s / workload.clients)
            if op_wall_s else 0.0
        ),
    })
    for name, categories in LEDGER_METRICS.items():
        metrics[name] = sum(
            ledger_after.get(c, 0) - ledger_before.get(c, 0) for c in categories
        ) / n

    probe_values, probe_notes = probes.run_all(session)
    metrics.update(probe_values)
    notes = tracer.notes + probe_notes
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, workload=workload.name, ops=sorted(phase.op_ids),
                 by_span=spans, per_layer=metrics)
    return phase, metrics, notes
