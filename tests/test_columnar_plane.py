"""The columnar data plane, end to end.

Four layers of evidence that ``columnar=True`` changes *how* bytes move but
never *what* arrives:

1. Property-based round-trips: ColumnBatch and the ``C`` wire frame over
   every DataType, with NULLs, unicode dictionaries, and empty batches.
2. Differential: the vectorized executor must row-equal the tuple executor
   on the shared differential query corpus.
3. Ledger invariance: columnar sessions charge the exact logical bytes of
   the seed's per-row accounting, so the Figure 3/4 totals don't move.
4. End-to-end: a columnar ``run_insql_stream`` trains the identical model
   from an ArrayDataset built without a single LabeledPoint allocation.
"""

import contextlib
import sqlite3

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.sql.executor as executor_module
from repro import make_deployment
from repro.cluster.cluster import make_paper_cluster
from repro.columnar.batch import ColumnBatch, ColumnVector, batch_to_xy
from repro.hdfs.filesystem import DistributedFileSystem
from repro.ml.dataset import ArrayDataset, LabeledPoint
from repro.sql.engine import BigSQL
from repro.sql.executor import Executor, partition_rows
from repro.sql.expressions import ColumnRef, Expr
from repro.sql.table import Partition, Table
from repro.sql.udf import TableUDF
from repro.sql.types import DataType, Schema
from repro.transfer.buffers import (
    block_logical_bytes,
    decode_block,
    decode_col_block,
    encode_block,
    encode_col_block,
)
from repro.transfer.channel import ChannelId, StreamChannel
from repro.transfer.stream_udf import StreamTransferUDF
from repro.transform.spec import TransformSpec
from repro.workloads import generate_retail

from tests.test_sql_differential import (
    QUERIES,
    T1_SCHEMA,
    T2_SCHEMA,
    datasets,
    normalize,
)

# ------------------------------------------------- property-based round-trips

_VALUES = {
    DataType.INT: st.one_of(st.none(), st.integers(-(2**31), 2**31 - 1)),
    DataType.BIGINT: st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
    DataType.DOUBLE: st.one_of(
        st.none(), st.floats(allow_nan=False, allow_infinity=False)
    ),
    DataType.BOOLEAN: st.one_of(st.none(), st.booleans()),
    # unicode on purpose: dictionaries must survive non-ASCII words
    DataType.VARCHAR: st.one_of(st.none(), st.text(max_size=8)),
}


@st.composite
def schema_and_rows(draw):
    dtypes = draw(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=5))
    schema = Schema.of(*((f"c{i}", dt) for i, dt in enumerate(dtypes)))
    num_rows = draw(st.integers(0, 30))
    rows = [
        tuple(draw(_VALUES[dt]) for dt in dtypes) for _ in range(num_rows)
    ]
    return schema, rows


@settings(max_examples=200, deadline=None)
@given(data=schema_and_rows())
def test_batch_round_trip(data):
    schema, rows = data
    batch = ColumnBatch.from_rows(schema, rows)
    assert batch.num_rows == len(rows)
    assert batch.to_rows() == rows
    assert batch.logical_bytes() >= 2 * len(rows)


@settings(max_examples=200, deadline=None)
@given(data=schema_and_rows())
def test_wire_frame_round_trip(data):
    schema, rows = data
    batch = ColumnBatch.from_rows(schema, rows)
    payload = encode_col_block(batch)
    decoded = decode_col_block(payload)
    assert decoded.to_rows() == rows
    assert [c.dtype for c in decoded.columns] == [c.dtype for c in batch.columns]
    # the one decoder returns the batch as a batch, whichever encoder made it
    assert decode_block(encode_block(batch)).to_rows() == rows
    # and the logical-bytes header carries the seed's per-row byte formula
    assert block_logical_bytes(payload) == batch.logical_bytes()


@settings(max_examples=100, deadline=None)
@given(data=schema_and_rows(), step=st.integers(1, 5))
def test_slice_step_matches_round_robin(data, step):
    schema, rows = data
    batch = ColumnBatch.from_rows(schema, rows)
    for j in range(step):
        expected = [row for i, row in enumerate(rows) if i % step == j]
        assert batch.slice_step(j, step).to_rows() == expected


def test_empty_batch_round_trip():
    schema = Schema.of(("a", DataType.INT), ("b", DataType.VARCHAR))
    batch = ColumnBatch.from_rows(schema, [])
    payload = encode_col_block(batch)
    assert decode_col_block(payload).to_rows() == []
    assert block_logical_bytes(payload) == 0


# ----------------------------------------------------- differential executor


@contextlib.contextmanager
def tuple_operators():
    """Every deployment runs the vector kernels; this is the executor with
    all of them refused — in-memory scans keep their rows, so every
    operator runs its tuple fallback — the oracle the kernels answer to."""

    def refuse(*args, **kwargs):
        raise TypeError("vector kernels refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColumnBatch, "from_rows", refuse)
        yield


def _run(t1, t2, sql):
    engine = BigSQL(make_paper_cluster())
    engine.create_table("t1", T1_SCHEMA, t1)
    engine.create_table("t2", T2_SCHEMA, t2)
    return [tuple(r) for r in engine.query_rows(sql)]


@pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=datasets())
def test_columnar_executor_matches_row_executor(sql, data):
    t1, t2 = data
    kernels = _run(t1, t2, sql)
    with tuple_operators():
        row = _run(t1, t2, sql)
    if "ORDER BY" in sql:
        assert kernels == row, f"order disagreement on: {sql}"
    else:
        assert normalize(kernels) == normalize(row), f"disagreement on: {sql}"


# ------------------------------------------------------------- join kernel

A_SCHEMA = Schema.of(("k", DataType.INT), ("s", DataType.VARCHAR), ("x", DataType.INT))
B_SCHEMA = Schema.of(
    ("k", DataType.INT), ("s", DataType.VARCHAR), ("y", DataType.INT), ("f", DataType.DOUBLE)
)
_KEY = st.one_of(st.none(), st.integers(0, 5))
_WORD = st.sampled_from([None, "a", "b", "é", "p0", "p1", "p2", "p3"])
_SMALL = st.integers(-3, 3)
_A_ROWS = st.lists(st.tuples(_KEY, _WORD, _SMALL), max_size=24)
_B_ROWS = st.lists(
    st.tuples(_KEY, _WORD, _SMALL, st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 4.0]))),
    max_size=12,
)
# In-memory rows land round-robin on 4 slots: every slot of `a` has its own
# one-word dictionary here, and `b` holds the words in yet another order.
_DISJOINT_A = [(i % 3, f"p{i % 4}", i) for i in range(16)]
_DISJOINT_B = [(i % 3, f"p{3 - i % 4}", -i, float(i % 3)) for i in range(8)]

JOIN_QUERIES = [
    "SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k",  # NULL and duplicate keys
    "SELECT a.s, a.x, b.s, b.y FROM a JOIN b ON a.s = b.s",  # dictionaries
    "SELECT a.k, a.x, b.f, b.y FROM a JOIN b ON a.k = b.f",  # INT = DOUBLE
    "SELECT a.k, a.s, a.x, b.y FROM a JOIN b ON a.k = b.k AND a.s = b.s",
    "SELECT a.k, a.x, b.k, b.s, b.y FROM a LEFT JOIN b ON a.k = b.k",
    "SELECT a.s, a.x, b.y, b.f FROM a LEFT JOIN b ON a.s = b.s AND a.k = b.k",
    "SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k AND a.x > b.y",  # residual
    "SELECT a.x, b.y FROM a, b",  # cartesian product
]


def _join_partitions(a_rows, b_rows, sql, kernels):
    """Per-slot output rows and the statement's ``sql.shuffle`` charge."""
    engine = BigSQL(make_paper_cluster())
    engine.create_table("a", A_SCHEMA, a_rows)
    engine.create_table("b", B_SCHEMA, b_rows)
    relation = engine.execute_distributed(sql)
    ledger = engine.cluster.ledger
    if kernels:
        assert ledger.get("columnar.fallback") == 0
        assert all(isinstance(p, ColumnBatch) for p in relation.partitions)
    return [list(partition_rows(p)) for p in relation.partitions], ledger.get("sql.shuffle")


def _join_sqlite(a_rows, b_rows, sql):
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE a (k INTEGER, s TEXT, x INTEGER)")
        conn.execute("CREATE TABLE b (k INTEGER, s TEXT, y INTEGER, f REAL)")
        conn.executemany("INSERT INTO a VALUES (?,?,?)", a_rows)
        conn.executemany("INSERT INTO b VALUES (?,?,?,?)", b_rows)
        return [tuple(r) for r in conn.execute(sql).fetchall()]
    finally:
        conn.close()


@pytest.mark.parametrize("threshold", [64 * 1024 * 1024, -1], ids=["broadcast", "shuffle"])
@pytest.mark.parametrize("sql", JOIN_QUERIES, ids=range(len(JOIN_QUERIES)))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a_rows=_A_ROWS, b_rows=_B_ROWS)
@example(a_rows=_DISJOINT_A, b_rows=_DISJOINT_B)
@example(a_rows=_DISJOINT_A, b_rows=[])
@example(a_rows=[], b_rows=_DISJOINT_B)
def test_array_join_matches_tuple_join_and_sqlite(sql, threshold, a_rows, b_rows):
    """The join kernel against both oracles, as a broadcast and as a
    shuffle join: SQLite's rows as a multiset, and the tuple join's rows
    slot by slot in its order, with its ``sql.shuffle`` charge."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "BROADCAST_THRESHOLD_BYTES", threshold)
        array_parts, array_shuffle = _join_partitions(a_rows, b_rows, sql, kernels=True)
        with tuple_operators():
            tuple_parts, tuple_shuffle = _join_partitions(a_rows, b_rows, sql, kernels=False)
    assert array_parts == tuple_parts
    assert array_shuffle == tuple_shuffle
    flat = [row for part in array_parts for row in part]
    assert normalize(flat) == normalize(_join_sqlite(a_rows, b_rows, sql))


def test_join_key_without_a_kernel_takes_the_tuple_join_with_one_tick():
    """COALESCE has no vector kernel: the tuple join runs, charged once."""
    sql = "SELECT a.x, b.y FROM a JOIN b ON COALESCE(a.k, 0) = b.k"
    engine = BigSQL(make_paper_cluster())
    engine.create_table("a", A_SCHEMA, _DISJOINT_A + [(None, "n", 99)])
    engine.create_table("b", B_SCHEMA, _DISJOINT_B)
    relation = engine.execute_distributed(sql)
    # the projection re-enters the plane; only the join fell back
    assert engine.cluster.ledger.get("columnar.fallback") == 1
    expected = _join_sqlite(_DISJOINT_A + [(None, "n", 99)], _DISJOINT_B, sql)
    assert normalize(relation.all_rows()) == normalize(expected)


def test_int_double_keys_beyond_2_53_take_the_tuple_join():
    """numpy would compare 2**53 + 1 with 2.0**53 in float64 and call them
    equal; Python, SQLite and the tuple join do not."""
    big = 2**53
    sql = "SELECT a.x, b.y FROM a JOIN b ON a.k = b.f"
    a_rows, b_rows = [(big + 1, "a", 1), (big, "a", 2)], [(0, "b", 3, float(big))]
    engine = BigSQL(make_paper_cluster())
    wide_a = Schema.of(("k", DataType.BIGINT), ("s", DataType.VARCHAR), ("x", DataType.INT))
    engine.create_table("a", wide_a, a_rows)
    engine.create_table("b", B_SCHEMA, b_rows)
    assert engine.query_rows(sql) == _join_sqlite(a_rows, b_rows, sql) == [(2, 3)]
    assert engine.cluster.ledger.get("columnar.fallback") == 1


def test_concat_of_no_batches_is_an_empty_batch():
    batch = ColumnBatch.concat(B_SCHEMA, [])
    assert batch.num_rows == 0 and batch.to_rows() == []
    assert [c.dtype for c in batch.columns] == [c.dtype for c in B_SCHEMA]
    assert batch.columns[1].dictionary == []


def _text_engine(text, schema):
    cluster = make_paper_cluster()
    dfs = DistributedFileSystem(cluster, block_size=1024)
    dfs.write_text("/t/data.csv", text)
    engine = BigSQL(cluster, dfs)
    engine.register_external_table("t", schema, "/t/data.csv")
    return engine


def test_text_scan_types_columns_without_a_row_stage(monkeypatch):
    """split -> columns -> batch: the scan's partitions are batches of the
    kept columns, built without pivoting row tuples."""
    schema = Schema.of(("a", DataType.INT), ("s", DataType.VARCHAR), ("d", DataType.DOUBLE))
    text = "".join(f"{i},w{i % 3},{i / 4}\n" for i in range(500)) + "500,,\n"
    engine = _text_engine(text, schema)
    monkeypatch.setattr(
        ColumnBatch, "from_rows", lambda *a: pytest.fail("the scan pivoted rows")
    )
    relation = engine.execute_distributed("SELECT s, d FROM t WHERE d >= 0 OR s IS NULL")
    assert all(isinstance(p, ColumnBatch) for p in relation.partitions)
    assert engine.cluster.ledger.get("columnar.fallback") == 0
    rows = [(f"w{i % 3}", i / 4) for i in range(500)] + [(None, None)]
    assert normalize(relation.all_rows()) == normalize(rows)


def test_text_scan_falls_back_to_rows_with_one_tick():
    """A value the typed storage refuses (an INT beyond int64) keeps the
    worker's partition as rows, as ``from_rows`` refusing it did."""
    schema = Schema.of(("a", DataType.INT), ("b", DataType.INT))
    engine = _text_engine(f"1,2\n{2**70},3\n", schema)
    relation = engine.execute_distributed("SELECT * FROM t")
    assert sorted(relation.all_rows()) == [(1, 2), (2**70, 3)]
    assert engine.cluster.ledger.get("columnar.fallback") == 1


# ------------------------------------------------------- channel frame path


def test_channel_carries_batches_and_rows_interchangeably():
    schema = Schema.of(("a", DataType.INT), ("s", DataType.VARCHAR))
    rows = [(i, f"w{i % 3}") for i in range(10)]
    batch = ColumnBatch.from_rows(schema, rows)

    channel = StreamChannel(ChannelId(0, 0), local=True)
    channel.send_many(batch)
    channel.send_many(rows[:2])
    channel.close()
    frames = []
    while True:
        frame = channel.receive_block(timeout=5.0)
        if frame is None:
            break
        frames.append(frame)
    assert isinstance(frames[0], ColumnBatch)
    assert frames[0].to_rows() == rows
    assert frames[1] == rows[:2]  # row frames stay row lists
    assert channel.rows_received == 12

    # a columnar frame drained through the row API still yields rows
    channel = StreamChannel(ChannelId(0, 1), local=True)
    channel.send_many(batch)
    channel.close()
    assert list(channel) == rows


# --------------------------------------------------------------- ArrayDataset


def test_array_dataset_row_and_array_views():
    X0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    y0 = np.array([0.0, 1.0])
    ds = ArrayDataset([(X0, y0), (np.empty((0, 2)), np.empty((0,)))])
    assert ds.num_partitions == 2
    assert ds.count() == 2
    assert ds.first() == LabeledPoint(0.0, np.array([1.0, 2.0]))
    X, y = ds.to_arrays()
    np.testing.assert_array_equal(X, X0)
    np.testing.assert_array_equal(y, y0)
    assert len(ds.partition_arrays()) == 1  # empty partitions skipped
    # row access synthesizes LabeledPoints lazily and consistently
    assert ds.collect() == [
        LabeledPoint(0.0, np.array([1.0, 2.0])),
        LabeledPoint(1.0, np.array([3.0, 4.0])),
    ]
    assert ds.map(lambda p: p.label).collect() == [0.0, 1.0]


def test_batch_to_xy_label_selection_and_offset():
    schema = Schema.of(
        ("f1", DataType.INT), ("label", DataType.INT), ("f2", DataType.DOUBLE)
    )
    batch = ColumnBatch.from_rows(schema, [(1, 2, 0.5), (3, 1, 1.5)])
    X, y = batch_to_xy(batch, label_index=1, label_offset=1.0)
    np.testing.assert_array_equal(X, [[1.0, 0.5], [3.0, 1.5]])
    np.testing.assert_array_equal(y, [1.0, 0.0])


# ------------------------------------------------------- end-to-end pipeline


def _run_pipeline(columnar):
    dep = make_deployment(columnar=columnar)
    wl = generate_retail(dep.engine, dep.dfs, num_users=80, num_carts=600)
    result = dep.pipeline.run_insql_stream(
        wl.prep_sql, wl.spec, command="svm_with_sgd", args={"iterations": 3}
    )
    return dep, result


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_columnar_pipeline_builds_no_row_tuple(monkeypatch, transport):
    """scan -> filter -> join -> project -> transform UDFs -> ``C`` frame ->
    ``batch_to_xy``: the retail prep query and its two follow-ups reach the
    trainer without one pivot into or out of row tuples, on either transport
    — and without one ``str`` per field: a plain table never takes the text
    scan's general path."""
    row_dep, row_result = _run_pipeline(columnar=False)
    dep = make_deployment(columnar=True, transport=transport)
    wl = generate_retail(dep.engine, dep.dfs, num_users=80, num_carts=600)
    for table in ("users", "carts"):  # both planes read the same vectors
        scan = f"SELECT * FROM {table}"
        assert sorted(dep.engine.query_rows(scan)) == sorted(row_dep.engine.query_rows(scan))
    pivots = []

    def forbidden(*args, **kwargs):
        pivots.append(args)
        pytest.fail("the columnar plane pivoted through row tuples or field strings")

    monkeypatch.setattr(ColumnBatch, "to_rows", forbidden)
    monkeypatch.setattr(ColumnBatch, "from_rows", forbidden)
    monkeypatch.setattr(ColumnVector, "from_texts", forbidden)
    monkeypatch.setattr(executor_module, "_split_columns", forbidden)
    subset_spec = TransformSpec(recode=("abandoned",), dummy=(), label="abandoned")
    results = [
        dep.pipeline.run_insql_stream(
            sql, spec, command="svm_with_sgd", args={"iterations": 3}
        )
        for sql, spec in (
            (wl.prep_sql, wl.spec),
            (wl.subset_sql, subset_spec),  # the subset does not select gender
            (wl.recode_reuse_sql, wl.spec),
        )
    ]
    assert pivots == []  # also when a thread swallowed the failure
    assert dep.cluster.ledger.get("columnar.fallback") == 0
    assert all(isinstance(r.ml_result.dataset, ArrayDataset) for r in results)
    np.testing.assert_allclose(
        results[0].ml_result.model.weights, row_result.ml_result.model.weights, rtol=1e-12
    )


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_default_pipeline_runs_the_vector_kernels(monkeypatch, transport):
    """The default deployment runs the same SQL engine: scan -> filter ->
    join -> project -> transform UDFs build no row tuple, bind no tuple
    evaluator over data but a bare column's and take no fallback; rows are
    built only for the stream sink, which has no batch kernel and sends ``R``
    frames — and every SQL-side ledger category equals the columnar
    deployment's."""
    deps = [make_deployment(columnar=c, transport=transport) for c in (False, True)]
    workloads = [generate_retail(d.engine, d.dfs, num_users=80, num_carts=600) for d in deps]
    declined, pivoted, forbidden_calls = [], [], []
    to_rows = ColumnBatch.to_rows

    def no_kernel(self, batch, input_schema, args, ctx):
        declined.append((type(self), batch))

    def pivot(self):
        pivoted.append(self)
        return to_rows(self)

    def forbidden(*args, **kwargs):
        forbidden_calls.append(args)
        pytest.fail("the default deployment left the vector kernels")

    monkeypatch.setattr(TableUDF, "process_batch", no_kernel)
    monkeypatch.setattr(ColumnBatch, "to_rows", pivot)
    monkeypatch.setattr(ColumnBatch, "from_rows", forbidden)
    monkeypatch.setattr(ColumnVector, "from_texts", forbidden)
    monkeypatch.setattr(executor_module, "_split_columns", forbidden)
    monkeypatch.setattr(Executor, "_tuple_join", forbidden)

    def over_data(bind_batch):
        # Binding over no columns folds a table UDF's constant arguments at
        # plan time; binding over columns is the tuple evaluator on data.
        def guarded(self, binder):
            if len(binder.schema):
                forbidden(self, binder)
            return bind_batch(self, binder)

        return guarded

    expr_classes = [Expr]
    for cls in expr_classes:
        expr_classes.extend(cls.__subclasses__())
        # A bare column of a select list over a UDF's row output (pass 1's
        # DISTINCT over local_distinct) is a tuple position, not a fallback.
        if "bind_batch" in vars(cls) and cls is not ColumnRef:
            monkeypatch.setattr(cls, "bind_batch", over_data(vars(cls)["bind_batch"]))
    subset_spec = TransformSpec(recode=("abandoned",), dummy=(), label="abandoned")
    for dep, wl in zip(deps, workloads):
        for sql, spec in (
            (wl.prep_sql, wl.spec),
            (wl.subset_sql, subset_spec),  # the subset does not select gender
            (wl.recode_reuse_sql, wl.spec),
        ):
            dep.pipeline.run_insql_stream(
                sql, spec, command="svm_with_sgd", args={"iterations": 3}
            )
    assert forbidden_calls == []  # also when a thread swallowed the failure
    assert declined and {udf for udf, _batch in declined} == {StreamTransferUDF}
    assert all(any(b is d for _udf, d in declined) for b in pivoted)
    ledgers = [d.cluster.ledger for d in deps]
    assert [ledger.get("columnar.fallback") for ledger in ledgers] == [0, 0]
    for category in ("sql.scan", "sql.shuffle", "sql.output"):
        assert ledgers[0].get(category) == ledgers[1].get(category) > 0, category


def test_columnar_pipeline_end_to_end():
    dep_row, row_result = _run_pipeline(columnar=False)
    dep_col, col_result = _run_pipeline(columnar=True)

    row_ds = row_result.ml_result.dataset
    col_ds = col_result.ml_result.dataset
    assert not isinstance(row_ds, ArrayDataset)
    assert isinstance(col_ds, ArrayDataset)
    assert col_ds.count() == row_ds.count() > 0

    # identical training input => identical model
    np.testing.assert_allclose(
        col_result.ml_result.model.weights,
        row_result.ml_result.model.weights,
        rtol=1e-12,
    )

    # Ledger coherence.  The row plane accounts stream traffic at per-row
    # pickle lengths (the seed wire format); the columnar plane accounts at
    # the typed estimate_row_bytes formula — the same basis the SQL side's
    # shuffle/output counters already use.  Within each plane sender and
    # receiver must agree exactly, and the two bases stay on the same scale.
    for dep in (dep_row, dep_col):
        assert dep.cluster.ledger.get("stream.sent") == dep.cluster.ledger.get(
            "ml.ingest"
        )
    row_sent = dep_row.cluster.ledger.get("stream.sent")
    col_sent = dep_col.cluster.ledger.get("stream.sent")
    assert 0.5 * row_sent <= col_sent <= 2.0 * row_sent


# ------------------------------------------------------ in-memory table scan

MEMO_SCHEMA = Schema.of(("k", DataType.INT), ("s", DataType.VARCHAR), ("d", DataType.DOUBLE))
MEMO_ROWS = [(i, f"w{i % 3}", i / 4) for i in range(12)]


def test_insert_after_a_scan_is_seen_by_the_next_scan():
    engine = BigSQL(make_paper_cluster())
    engine.create_table("m", MEMO_SCHEMA, MEMO_ROWS)
    ledger = engine.cluster.ledger
    assert sorted(engine.query_rows("SELECT k, s FROM m")) == [r[:2] for r in MEMO_ROWS]
    first = ledger.get("sql.scan")
    engine.insert_rows("m", [(12, "new", 3.5), (13, None, None)])
    assert sorted(engine.query_rows("SELECT k, s FROM m"), key=lambda r: r[0]) == [
        r[:2] for r in MEMO_ROWS
    ] + [(12, "new"), (13, None)]
    assert ledger.get("sql.scan") - first > first  # the grown table is charged
    assert engine.query_rows("SELECT COUNT(*) FROM m WHERE d IS NULL") == [(1,)]
    assert ledger.get("columnar.fallback") == 0


def test_an_int_in_a_double_column_comes_back_as_a_float():
    """``create_table`` and ``insert_rows`` store an ``int`` of a DOUBLE
    column as a ``float``, so the default deployment's kernels and the
    tuple operators return the same values of the same types."""
    results = []
    for operators in (contextlib.nullcontext, tuple_operators):
        with operators():
            engine = make_deployment().engine
            engine.create_table("m", MEMO_SCHEMA, [(1, "a", 3), (2, "b", None)])
            engine.insert_rows("m", [(3, "c", 0.5), (4, "d", 7)])
            results.append(sorted(engine.query_rows("SELECT k, d FROM m")))
    assert results[0] == results[1] == [(1, 3.0), (2, None), (3, 0.5), (4, 7.0)]
    for rows in results:
        assert [type(d) for _k, d in rows] == [float, type(None), float, float]


@pytest.mark.parametrize(
    "rows",
    [
        [(1, "a", 0.5), (2**70, "b", 1.5)],  # an INT beyond int64
        [(1, "a", 0.5), (2, 7, 1.5)],  # an int in a VARCHAR column
        [(True, "a", 0.5), (2, "b", 1.5)],  # a bool in an INT column
    ],
    ids=["beyond-int64", "int-in-varchar", "bool-in-int"],
)
def test_in_memory_values_without_typed_storage_keep_their_rows(rows):
    """A value the typed storage refuses keeps its partition's own rows —
    what a scan returned before it was typed — at one tick."""
    engine = BigSQL(make_paper_cluster())
    engine.create_table("m", MEMO_SCHEMA, rows)
    got = engine.query_rows("SELECT * FROM m")
    assert sorted(got, key=repr) == sorted(rows, key=repr)
    assert [list(map(type, r)) for r in sorted(got, key=repr)] == [
        list(map(type, r)) for r in sorted(rows, key=repr)
    ]
    assert engine.cluster.ledger.get("columnar.fallback") == 1


def test_a_table_with_another_partition_count_is_dealt_out_to_every_slot():
    engine = BigSQL(make_paper_cluster())
    rows = MEMO_ROWS + [(2**70, "big", 0.0)]
    parts = [Partition(rows=rows[i::3], worker_id=i) for i in range(3)]
    engine.catalog.add_table(Table("m", MEMO_SCHEMA, partitions=parts))
    relation = engine.execute_distributed("SELECT k, s FROM m")
    assert len(relation.partitions) == engine.num_workers != 3
    assert sorted(relation.all_rows()) == sorted(r[:2] for r in rows)
    assert engine.cluster.ledger.get("columnar.fallback") == 1  # the slot with 2**70


class _Echo(TableUDF):
    name = "echo"

    def output_schema(self, input_schema, args):
        return input_schema

    def process_partition(self, rows, input_schema, args, ctx):
        return rows


def test_a_udf_without_a_batch_kernel_gets_row_partitions_as_they_are(monkeypatch):
    """Behind a row-only operator (ORDER BY) the UDF seam re-batches only for
    a UDF that overrides ``process_batch``; the others get the rows."""
    engine = BigSQL(make_paper_cluster())
    engine.create_table("m", MEMO_SCHEMA, MEMO_ROWS)
    engine.register_table_udf(_Echo())
    pivots = []
    from_rows = ColumnBatch.from_rows.__func__

    def counted(cls, schema, rows):
        pivots.append(len(rows))
        return from_rows(cls, schema, rows)

    monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(counted))
    rows = engine.query_rows("SELECT * FROM TABLE(echo((SELECT k, d FROM m ORDER BY k))) AS e")
    assert sorted(rows) == [(k, d) for k, _s, d in MEMO_ROWS]
    assert len(pivots) == engine.num_workers  # the scan's, none at the UDF seam
    assert engine.cluster.ledger.get("columnar.fallback") == 0
