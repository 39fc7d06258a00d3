"""Kind-P per-layer metrics: each layer's public functions, timed directly.

A probe calls one layer in isolation on the workload's own data, a few times,
and keeps the best time: the number says how fast that layer *can* go, which
is what a change to the layer moves first.  Probes run after the traced
phase, in the same process.  A probe whose target is gone (a later PR deleted
``encode_block``, say) or does not apply to the workload reports 0 with a
note; per-layer numbers are evidence, never gates.
"""

import threading
import time

from bench_e2e import adapter

WRITE_PROBE_BYTES = 1_200_000  # about the carts table
BLOCK_ROWS = 256


def timed(fn, reps: int) -> tuple[float, object]:
    """``(seconds of the fastest of reps calls, result of the last call)``."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def best_of(fn, reps: int) -> float:
    return timed(fn, reps)[0]


def _need(path: str):
    target = adapter.lookup(path)
    if target is None:
        raise LookupError(f"{path} no longer exists")
    return target


class Probes:
    """Runs the probes of one session; ``values`` and ``notes`` are the result."""

    def __init__(self, session):
        self.session = session
        self.dep = session.dep
        self.sql = session.probe_sql
        self.values: dict = {}
        self.notes: list = []
        # the transformed relation and its rows: made by the sql probes,
        # input of the columnar, transfer and cluster probes
        self.relation = None
        self.rows = None

    def probe(self, names, fn) -> None:
        """Run ``fn`` -> value(s) for ``names``; a target that is gone (or any
        other failure) turns into zeros and a note."""
        names = (names,) if isinstance(names, str) else names
        try:
            values = fn() if len(names) > 1 else (fn(),)
        except Exception as exc:  # gaps in evidence must not fail the run
            self.notes.append(f"probe {', '.join(names)}: {type(exc).__name__}: {exc}")
            values = (0.0,) * len(names)
        self.values.update(zip(names, map(float, values)))

    def not_applicable(self, names) -> None:
        """The workload has nothing for these probes to run on."""
        self.values.update(dict.fromkeys((names,) if isinstance(names, str) else names, 0.0))

    # ----------------------------------------------------------------- layers

    def rewriter_and_cache(self) -> None:
        legs = self.sql.get("legs")
        if not legs:
            return self.not_applicable(("rewriter.plan_ms", "caching.lookup_ms"))
        pipeline, spec = self.dep.pipeline, adapter.PAPER_SPEC

        def lookups():
            for sql in legs:
                pipeline.cache.lookup_transformed(sql, spec)
                pipeline.cache.lookup_recode_map(sql, spec)

        self.probe("rewriter.plan_ms", lambda: 1e3 * best_of(
            lambda: [pipeline.rewriter.plan(sql, spec) for sql in legs], 5))
        self.probe("caching.lookup_ms", lambda: 1e3 * best_of(lookups, 5))

    def sql_and_transform_layers(self) -> None:
        engine, sql = self.dep.engine, self.sql
        for name, key in (("sql.scan_rows_per_s", "scan"), ("sql.scan_2col_rows_per_s", "scan_2col")):
            self.probe(name, lambda key=key: sql["scan_rows"] / best_of(
                lambda: engine.execute_distributed(sql[key]), 3))
        if not sql.get("legs"):
            self.not_applicable(("sql.distinct_ms", "sql.join_ms",
                                 "transform.map_build_ms", "transform.inner_sql_ms"))
            self.probe("sql.plan_ms", lambda: 1e3 * best_of(lambda: engine.plan(sql["plan"]), 5))
            return
        user_sql = sql["legs"][0]
        self.probe("sql.join_ms", lambda: 1e3 * best_of(
            lambda: engine.execute_distributed(user_sql), 3))

        # The steps of run_insql_stream, one at a time: plan without the
        # cache, run pass 1, build and register the recode map, run the
        # transforming query (planning it needs the registered map).
        def steps():
            pipeline = self.dep.pipeline
            plan = pipeline.rewriter_no_cache.plan(user_sql, adapter.PAPER_SPEC)
            build = _need("repro.transform.recode:RecodeMap.from_distinct_rows")
            distinct_s, pass1_rows = timed(lambda: engine.query_rows(plan.pass1_sql), 3)
            build_s, recode_map = timed(lambda: build(pass1_rows), 5)
            pipeline.transforms.register(plan.map_handle, recode_map)
            plan_s = best_of(lambda: engine.plan(plan.inner_sql), 5)
            inner_s, self.relation = timed(lambda: engine.execute_distributed(plan.inner_sql), 3)
            return [1e3 * s for s in (distinct_s, build_s, plan_s, inner_s)]

        self.probe(("sql.distinct_ms", "transform.map_build_ms", "sql.plan_ms",
                    "transform.inner_sql_ms"), steps)

    def hdfs_layer(self) -> None:
        dfs = self.dep.dfs
        payload = bytes(range(256)) * (WRITE_PROBE_BYTES // 256)
        paths = iter(f"/bench_e2e/probe-{i}" for i in range(100))

        def mb_per_s(seconds: float) -> float:
            return len(payload) / 1e6 / seconds

        def write():
            dfs.mkdirs("/bench_e2e")
            return mb_per_s(best_of(lambda: dfs.write_bytes(next(paths), payload), 5))

        self.probe("hdfs.write_mb_per_s", write)
        self.probe("hdfs.read_mb_per_s", lambda: mb_per_s(best_of(
            lambda: dfs.read_bytes("/bench_e2e/probe-0"), 5)))

    def iofmt_layer(self) -> None:
        directory = self.sql.get("csv_dir")
        if not directory:
            return self.not_applicable("iofmt.csv_rows_per_s")

        def read_all() -> int:
            conf = _need("repro.iofmt.inputformat:JobConf")({"input.path": directory}, dfs=self.dep.dfs)
            fmt = _need("repro.iofmt.text:CsvInputFormat")()
            rows = 0
            for split in fmt.get_splits(conf, len(self.dep.cluster.workers)):
                with fmt.create_record_reader(split, conf) as reader:
                    rows += sum(1 for _ in reader)
            return rows

        self.probe("iofmt.csv_rows_per_s", lambda: read_all() / best_of(read_all, 3))

    def columnar_layer(self) -> None:
        names = ("columnar.from_rows_ms", "columnar.encode_ms", "columnar.decode_ms")
        if self.relation is None:
            return self.not_applicable(names)
        self.rows = self.relation.all_rows()
        from_rows = _need("repro.columnar.batch:ColumnBatch.from_rows")
        schema = self.relation.schema
        self.probe(names[0], lambda: 1e3 * best_of(lambda: from_rows(schema, self.rows), 5))

        def codec():
            encode = _need("repro.transfer.buffers:encode_col_block")
            decode = _need("repro.transfer.buffers:decode_col_block")
            batch = from_rows(schema, self.rows)
            payload = encode(batch)
            return (1e3 * best_of(lambda: encode(batch), 5),
                    1e3 * best_of(lambda: decode(payload), 5))

        self.probe(names[1:], codec)

    def transfer_layer(self) -> None:
        rows = self.rows or self.sql.get("rows")
        names = ("transfer.encode_rows_per_s", "transfer.decode_rows_per_s")
        if not rows:
            self.not_applicable(names + ("transfer.channel_rows_per_s", "transfer.socket_rows_per_s"))
            return
        blocks = [rows[i : i + BLOCK_ROWS] for i in range(0, len(rows), BLOCK_ROWS)]

        def codec():
            encode = _need("repro.transfer.buffers:encode_block")
            decode = _need("repro.transfer.buffers:decode_block")
            payloads = [encode(b) for b in blocks]
            return (len(rows) / best_of(lambda: [encode(b) for b in blocks], 5),
                    len(rows) / best_of(lambda: [decode(p) for p in payloads], 5))

        self.probe(names, codec)

        def through(channel_path: str) -> float:
            channel_cls = _need(channel_path)
            channel_id = _need("repro.transfer.channel:ChannelId")(0, 0)

            def once():
                channel = channel_cls(channel_id, local=True)

                def produce():
                    for block in blocks:
                        channel.send_many(block)
                    channel.close()

                producer = threading.Thread(target=produce)
                producer.start()
                received = sum(1 for _ in channel)
                producer.join()
                channel.release()
                if received != len(rows):
                    raise AssertionError(f"received {received} of {len(rows)} rows")

            return len(rows) / best_of(once, 3)

        self.probe("transfer.channel_rows_per_s",
                   lambda: through("repro.transfer.channel:StreamChannel"))
        self.probe("transfer.socket_rows_per_s",
                   lambda: through("repro.transfer.socket_channel:SocketStreamChannel"))

    def ml_layer(self) -> None:
        dataset, iterations = self.session.last_dataset, self.session.iterations
        self.probe("ml.train_ms_per_iter", lambda: 1e3 / iterations * best_of(
            lambda: self.dep.ml.train_local("svm_with_sgd", {"iterations": iterations}, dataset), 5))

    def cluster_layer(self) -> None:
        def ledger_add_ns():
            ledger = type(self.dep.cluster.ledger)()
            calls = 20_000
            return 1e9 / calls * best_of(lambda: [ledger.add("probe", 1) for _ in range(calls)], 3)

        self.probe("cluster.ledger_add_ns", ledger_add_ns)
        if self.relation is None:
            return self.not_applicable("cluster.estimate_bytes_ms")
        self.probe("cluster.estimate_bytes_ms",
                   lambda: 1e3 * best_of(self.relation.estimated_bytes, 5))


def run_all(session) -> tuple[dict, list]:
    """``({metric: value}, notes)`` of every kind-P metric for this session."""
    p = Probes(session)
    p.rewriter_and_cache()
    p.sql_and_transform_layers()
    p.hdfs_layer()
    p.iofmt_layer()
    p.columnar_layer()
    p.transfer_layer()
    p.ml_layer()
    p.cluster_layer()
    return p.values, p.notes
