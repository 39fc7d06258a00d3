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
import pickle
import re
import sqlite3
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.columnar.text as text_module
import repro.sql.executor as executor_module
from repro import make_deployment
from repro.cluster.cluster import make_paper_cluster
from repro.columnar.batch import ColumnBatch, ColumnVector, batch_to_xy
from repro.columnar.format import write_table
from repro.common.errors import FrameError
from repro.hdfs.filesystem import DistributedFileSystem
from repro.ml.dataset import ArrayDataset, LabeledPoint
from repro.sql import vectorized
from repro.sql.engine import BigSQL
from repro.sql.executor import Executor
from repro.sql.expressions import Expr
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
from repro.transform.spec import TransformSpec
from repro.workloads import generate_retail

from tests.byte_oracle import estimate_row_bytes, estimate_rows_bytes
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


# Values the typed storage cannot represent: the column holding one is an
# ``object`` column of the Python values.  NaN is typed, but equals nothing.
_ODD_VALUES = {
    DataType.INT: st.one_of(
        st.integers(min_value=2**63), st.integers(max_value=-(2**63) - 1), st.booleans()
    ),
    DataType.BIGINT: st.one_of(st.integers(min_value=2**63), st.booleans()),
    DataType.DOUBLE: st.just(float("nan")),
    DataType.BOOLEAN: st.integers(0, 1),
    DataType.VARCHAR: st.integers(),
}


@st.composite
def schema_and_rows(draw):
    dtypes = draw(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=5))
    schema = Schema.of(*((f"c{i}", dt) for i, dt in enumerate(dtypes)))
    num_rows = draw(st.integers(0, 30))
    values = [
        st.one_of(_VALUES[dt], _ODD_VALUES[dt]) if draw(st.booleans()) else _VALUES[dt]
        for dt in dtypes
    ]
    rows = [tuple(draw(v) for v in values) for _ in range(num_rows)]
    return schema, rows


def same_rows(got, expected) -> bool:
    """Equal values of equal types: ``1``, ``1.0`` and ``True`` differ, and
    ``nan`` is itself."""
    return repr(got) == repr(expected)


@settings(max_examples=200, deadline=None)
@given(data=schema_and_rows(), cut=st.integers(0, 30), picks=st.data())
def test_batch_round_trip(data, cut, picks):
    schema, rows = data
    batch = ColumnBatch.from_rows(schema, rows)
    assert batch.num_rows == len(rows)
    assert same_rows(batch.to_rows(), rows)
    assert batch.logical_bytes() == estimate_rows_bytes(rows)
    # two parts, one may be typed where the other holds Python values
    parts = [ColumnBatch.from_rows(schema, rows[:cut]), ColumnBatch.from_rows(schema, rows[cut:])]
    whole = ColumnBatch.concat(schema, parts)
    assert same_rows(whole.to_rows(), rows)
    assert whole.logical_bytes() == estimate_rows_bytes(rows)
    indices = picks.draw(st.lists(st.integers(0, len(rows) - 1), max_size=10)) if rows else []
    taken = whole.take(np.array(indices, dtype=np.int64))
    assert same_rows(taken.to_rows(), [rows[i] for i in indices])
    mask = picks.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    kept = whole.filter(np.array(mask, dtype=np.bool_))
    assert same_rows(kept.to_rows(), [row for row, keep in zip(rows, mask) if keep])


@settings(max_examples=200, deadline=None)
@given(data=schema_and_rows())
def test_wire_frame_round_trip(data):
    schema, rows = data
    batch = ColumnBatch.from_rows(schema, rows)
    payload = encode_col_block(batch)
    decoded = decode_col_block(payload)
    assert same_rows(decoded.to_rows(), rows)
    assert [c.dtype for c in decoded.columns] == [c.dtype for c in batch.columns]
    # the one decoder returns the batch as a batch, whichever encoder made it
    assert same_rows(decode_block(encode_block(batch)).to_rows(), rows)
    # and the logical-bytes header carries the seed's per-row byte formula
    assert block_logical_bytes(payload) == batch.logical_bytes() == estimate_rows_bytes(rows)


@settings(max_examples=60, deadline=None)
@given(data=schema_and_rows())
def test_every_strict_prefix_of_a_wire_frame_raises(data):
    schema, rows = data
    payload = encode_col_block(ColumnBatch.from_rows(schema, rows))
    for cut in range(len(payload)):
        with pytest.raises(FrameError):
            decode_block(payload[:cut])


def test_wire_frame_ships_buffers_and_checks_their_lengths():
    schema = Schema.of(("a", DataType.INT), ("b", DataType.VARCHAR))
    batch = ColumnBatch.from_rows(schema, [(1, "x"), (2, None), (3, "y")])
    payload = encode_col_block(batch)
    names, dtypes, num_rows, columns = pickle.loads(payload[21:])  # past the header
    assert num_rows == 3
    assert columns[0][2] is None  # a NULL-free column ships no validity bytes
    assert isinstance(columns[1][2], bytes) and isinstance(columns[1][1], bytes)
    decoded = decode_col_block(payload)
    assert not any(c.data.flags.writeable for c in decoded.columns)
    # a column shorter than the frame's row count is a damaged frame
    body = pickle.dumps((names, dtypes, 4, columns))
    damaged = struct.pack(">cQQI", b"C", 0, 0, len(body)) + body
    with pytest.raises(FrameError, match="4-row batch"):
        decode_col_block(damaged)


@settings(max_examples=100, deadline=None)
@given(data=schema_and_rows(), step=st.integers(1, 5))
def test_slice_step_matches_round_robin(data, step):
    schema, rows = data
    batch = ColumnBatch.from_rows(schema, rows)
    for j in range(step):
        expected = [row for i, row in enumerate(rows) if i % step == j]
        assert same_rows(batch.slice_step(j, step).to_rows(), expected)


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
    all of them declined — every ``vectorized.compile_*`` returns None, so
    filters, projections, aggregate inputs and sort keys run the tuple
    evaluator and every join key is Python values — the oracle the kernels
    answer to."""
    with pytest.MonkeyPatch.context() as patch:
        for name in dir(vectorized):
            if name.startswith("compile_"):
                patch.setattr(vectorized, name, lambda *args, **kwargs: None)
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
    """Per-slot output rows, the statement's ``sql.shuffle`` charge and the
    slot count."""
    engine = BigSQL(make_paper_cluster())
    engine.create_table("a", A_SCHEMA, a_rows)
    engine.create_table("b", B_SCHEMA, b_rows)
    relation = engine.execute_distributed(sql)
    ledger = engine.cluster.ledger
    if kernels:
        assert ledger.get("columnar.fallback") == 0
    assert all(isinstance(p, ColumnBatch) for p in relation.partitions)
    parts = [p.to_rows() for p in relation.partitions]
    return parts, ledger.get("sql.shuffle"), engine.num_workers


def _reference_join(a_rows, b_rows, sql, n, threshold):
    """A ``JOIN_QUERIES`` statement as a tuple join placed like the
    executor's: the tables dealt round-robin to ``n`` slots; the smaller
    table the left input of an inner join; the build side the smaller input
    (the right one of a LEFT or a shuffle join); a broadcast
    join probes each slot against the whole build side, a shuffle join first
    moves every row to slot ``hash(key tuple) % n``, a NULL or NaN key part
    as the executor's ``_NULL_PART``; per slot a nested loop, probe rows,
    then build rows."""
    select, rest = sql.removeprefix("SELECT ").split(" FROM ")
    conditions = [c.split() for c in rest.partition(" ON ")[2].split(" AND ") if c]
    keys = {t: [c[0 if t == "a" else 2] for c in conditions if c[1] == "="] for t in "ab"}
    rows = {
        t: [dict(zip((f"{t}.{c}" for c in schema.names), row)) for row in table]
        for t, schema, table in (("a", A_SCHEMA, a_rows), ("b", B_SCHEMA, b_rows))
    }
    read = set(re.findall(r"\b[ab]\.\w+", sql))  # the columns the scans keep

    def key(t, row):
        parts = (row[ref] for ref in keys[t])
        return tuple(None if v is None or v != v else v for v in parts) or (0,)

    def size(t, row):
        return estimate_row_bytes(tuple(v for ref, v in row.items() if ref in read))

    def matches(a, b):
        return all(x is not None and x == y for x, y in zip(key("a", a), key("b", b))) and all(
            a[left] > b[right] for left, op, right in conditions if op == ">"
        )

    nbytes = {t: sum(size(t, row) for row in rows[t]) for t in "ab"}
    left_join = " LEFT JOIN " in rest
    smaller = estimate_rows_bytes(b_rows) < estimate_rows_bytes(a_rows)
    left, right = ("b", "a") if smaller and not left_join else ("a", "b")
    build = left if not left_join and nbytes[left] <= nbytes[right] else right
    slots = {t: [rows[t][w::n] for w in range(n)] for t in "ab"}
    if nbytes[build] <= threshold:
        shuffle = nbytes[build] * (n - 1)
        builds = [[row for slot in slots[build] for row in slot]] * n
    else:
        build, shuffle = right, 0
        for t in "ab":
            placed = [[] for _ in range(n)]
            for source, slot in enumerate(slots[t]):
                for row in slot:
                    null = executor_module._NULL_PART
                    target = hash(tuple(null if v is None else v for v in key(t, row))) % n
                    shuffle += size(t, row) if target != source else 0
                    placed[target].append(row)
            slots[t] = placed
        builds = slots[build]
    probe = "b" if build == "a" else "a"
    null_b = {f"b.{c}": None for c in B_SCHEMA.names}
    parts = []
    for probe_slot, build_slot in zip(slots[probe], builds):
        part = []
        for row in probe_slot:
            pairs = [(row, other) if probe == "a" else (other, row) for other in build_slot]
            found = [{**a, **b} for a, b in pairs if matches(a, b)]
            if left_join and not found:
                found = [{**row, **null_b}]
            part += [tuple(joined[ref] for ref in select.split(", ")) for joined in found]
        parts.append(part)
    return parts, shuffle


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
    """The join against both oracles, as a broadcast and as a shuffle join,
    with array keys and with every key as Python values (the vector kernels
    declined): SQLite's rows as a multiset, and the reference tuple join's
    rows slot by slot in its order, with its ``sql.shuffle`` charge."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "BROADCAST_THRESHOLD_BYTES", threshold)
        array_parts, array_shuffle, n = _join_partitions(a_rows, b_rows, sql, kernels=True)
        with tuple_operators():
            python_parts, python_shuffle, _n = _join_partitions(a_rows, b_rows, sql, kernels=False)
    tuple_parts, tuple_shuffle = _reference_join(a_rows, b_rows, sql, n, threshold)
    assert array_parts == python_parts == tuple_parts
    assert array_shuffle == python_shuffle == tuple_shuffle
    flat = [row for part in array_parts for row in part]
    assert normalize(flat) == normalize(_join_sqlite(a_rows, b_rows, sql))


def test_join_key_without_a_kernel_is_keyed_by_python_values_with_one_tick(monkeypatch):
    """COALESCE has no vector kernel: its key is the Python values of
    ``bind_batch``, the other key an array, charged once; the output is
    batches."""
    sql = "SELECT a.x, b.y FROM a JOIN b ON COALESCE(a.k, 0) = b.k"
    engine = BigSQL(make_paper_cluster())
    engine.create_table("a", A_SCHEMA, _DISJOINT_A + [(None, "n", 99)])
    engine.create_table("b", B_SCHEMA, _DISJOINT_B)
    relation = engine.execute_distributed(sql)
    # the projection stays in the plane; only the join's key fell back
    assert engine.cluster.ledger.get("columnar.fallback") == 1
    assert all(isinstance(p, ColumnBatch) for p in relation.partitions)
    expected = _join_sqlite(_DISJOINT_A + [(None, "n", 99)], _DISJOINT_B, sql)
    assert normalize(relation.all_rows()) == normalize(expected)


def test_int_double_keys_beyond_2_53_are_keyed_by_python_values():
    """numpy would compare 2**53 + 1 with 2.0**53 in float64 and call them
    equal; Python, SQLite and a tuple join do not."""
    big = 2**53
    sql = "SELECT a.x, b.y FROM a JOIN b ON a.k = b.f"
    a_rows, b_rows = [(big + 1, "a", 1), (big, "a", 2)], [(0, "b", 3, float(big))]
    engine = BigSQL(make_paper_cluster())
    wide_a = Schema.of(("k", DataType.BIGINT), ("s", DataType.VARCHAR), ("x", DataType.INT))
    engine.create_table("a", wide_a, a_rows)
    engine.create_table("b", B_SCHEMA, b_rows)
    assert engine.query_rows(sql) == _join_sqlite(a_rows, b_rows, sql) == [(2, 3)]
    assert engine.cluster.ledger.get("columnar.fallback") == 1


@pytest.mark.parametrize("kernels", [True, False], ids=["arrays", "python-values"])
def test_nan_join_keys_place_like_null_and_never_match(monkeypatch, kernels):
    """``hash(nan)`` depends on the object, so a shuffle join that placed a
    NaN key by its hash charged another ``sql.shuffle`` on every run; a NaN
    key part is placed as NULL is, and neither ever matches."""
    monkeypatch.setattr(executor_module, "BROADCAST_THRESHOLD_BYTES", -1)
    a_keys = [float("nan") if i % 2 else float(i % 5) for i in range(80)]  # 40 NaN keys
    b_keys = [float("nan") if i % 3 == 0 else float(i % 5) for i in range(30)]

    def run():
        engine = BigSQL(make_paper_cluster())
        for name, keys in (("a", a_keys), ("b", b_keys)):
            schema = Schema.of(("k", DataType.DOUBLE), (f"{name}v", DataType.INT))
            engine.create_table(name, schema, [(k, i) for i, k in enumerate(keys)])
        with contextlib.nullcontext() if kernels else tuple_operators():
            rows = engine.query_rows("SELECT a.k, a.av, b.bv FROM a JOIN b ON a.k = b.k")
        return sorted(rows), engine.cluster.ledger.get("sql.shuffle"), engine.num_workers

    runs = [run() for _ in range(3)]
    n = runs[0][2]
    expected = sorted(
        (ak, i, j) for i, ak in enumerate(a_keys) for j, bk in enumerate(b_keys) if ak == bk
    )
    # every scanned row is 18 bytes; slot of row i is i % n before the shuffle
    charge = sum(
        18
        for keys in (a_keys, b_keys)
        for i, k in enumerate(keys)
        if hash((executor_module._NULL_PART if k != k else k,)) % n != i % n
    )
    assert [(rows, shuffle) for rows, shuffle, _n in runs] == [(expected, charge)] * 3


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


def _scanned(monkeypatch, engine, sql):
    """The statement's rows, and the partitions of every scan it ran."""
    scans = []
    exec_scan = Executor._exec_scan

    def spy(self, plan):
        relation = exec_scan(self, plan)
        scans.extend(relation.partitions)
        return relation

    monkeypatch.setattr(Executor, "_exec_scan", spy)
    return engine.query_rows(sql), scans


def test_scans_of_an_int_beyond_int64_yield_an_object_column(monkeypatch):
    """A value the typed storage cannot hold (an INT beyond int64) makes its
    column an ``object`` column of the Python values: the text and the RCOL
    scan still yield batches, and the rows come back as Python ints."""
    schema = Schema.of(("a", DataType.INT), ("b", DataType.INT))
    engine = _text_engine(f"1,2\n{2**70},3\n", schema)
    write_table(engine.dfs, "/r", schema, [[(1, 2)], [(2**70, 3)]])
    engine.register_external_table("r", schema, "/r", format="columnar")
    for table in ("t", "r"):
        rows, scans = _scanned(monkeypatch, engine, f"SELECT * FROM {table}")
        assert same_rows(sorted(rows), [(1, 2), (2**70, 3)])
        assert scans and all(isinstance(p, ColumnBatch) for p in scans)
        assert any(c.is_object for p in scans for c in p.columns)


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


def pivot_at_the_edges_only(monkeypatch, forbidden) -> None:
    """Call ``forbidden`` for every row pivot but a query's result rows:
    every built-in table UDF is a batch kernel, and stored tables are
    batches, so nothing on a pipeline builds a batch from rows."""
    results: list[ColumnBatch] = []
    execute_distributed = BigSQL.execute_distributed
    to_rows = ColumnBatch.to_rows

    def recorded(self, query):
        relation = execute_distributed(self, query)
        results.extend(relation.partitions)
        return relation

    def result_rows(self):
        if not any(self is result for result in results):
            forbidden(self)
        return to_rows(self)

    def rows_in(cls, schema, rows):
        forbidden(schema, rows)

    monkeypatch.setattr(BigSQL, "execute_distributed", recorded)
    monkeypatch.setattr(ColumnBatch, "to_rows", result_rows)
    monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(rows_in))


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_columnar_pipeline_builds_no_row_tuple(monkeypatch, transport):
    """scan -> filter -> join -> project -> transform UDFs -> ``C`` frame ->
    ``batch_to_xy``: the retail prep query and its two follow-ups reach the
    trainer without one pivot into or out of row tuples, on either transport
    (but the query results, the engine's row-out edge) — and
    without one ``str`` per field: a plain table never takes the text scan's
    general path."""
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

    pivot_at_the_edges_only(monkeypatch, forbidden)
    monkeypatch.setattr(ColumnVector, "from_texts", forbidden)
    monkeypatch.setattr(text_module, "split_fields", forbidden)
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
    """The default deployment runs the same SQL engine and the same sink:
    scan -> filter -> join -> project -> transform UDFs -> ``C`` frames
    build no row tuple (but a query's result rows), bind no tuple evaluator
    over data, key no join by Python values and take no fallback; no UDF
    declines its batch, so no batch pivots into rows on the stream path —
    and every SQL-side and stream ledger category equals the one of a
    deployment built with the (ignored) ``columnar=True``."""
    deps = [make_deployment(columnar=c, transport=transport) for c in (False, True)]
    workloads = [generate_retail(d.engine, d.dfs, num_users=80, num_carts=600) for d in deps]
    declined, pivoted, forbidden_calls = [], [], []

    def no_kernel(self, batch, input_schema, args, ctx):
        declined.append((type(self), batch))

    def forbidden(*args, **kwargs):
        forbidden_calls.append(args)
        pytest.fail("the default deployment left the vector kernels")

    monkeypatch.setattr(TableUDF, "process_batch", no_kernel)
    pivot_at_the_edges_only(monkeypatch, pivoted.append)
    monkeypatch.setattr(ColumnVector, "from_texts", forbidden)
    monkeypatch.setattr(text_module, "split_fields", forbidden)
    monkeypatch.setattr(executor_module, "_key_tuples", forbidden)  # Python-value join keys

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
        if "bind_batch" in vars(cls):
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
    assert declined == []
    assert pivoted == []
    ledgers = [d.cluster.ledger for d in deps]
    assert [ledger.get("columnar.fallback") for ledger in ledgers] == [0, 0]
    for category in ("sql.scan", "sql.shuffle", "sql.output", "stream.sent", "ml.ingest"):
        assert ledgers[0].get(category) == ledgers[1].get(category) > 0, category


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_cached_pipeline_builds_no_row_tuple(monkeypatch, transport):
    """Section 5's cached transformed result is a materialized view, stored
    as batches: the three retail queries answered from a warm cache scan it
    and reach the trainer without one pivot into or out of row tuples."""
    dep = make_deployment(transport=transport)
    wl = generate_retail(dep.engine, dep.dfs, num_users=80, num_carts=600)
    dep.pipeline.populate_caches(wl.prep_sql, wl.spec, cache_transformed=True)
    pivots = []

    def forbidden(*args, **kwargs):
        pivots.append(args)
        pytest.fail("a cached query pivoted through row tuples")

    pivot_at_the_edges_only(monkeypatch, forbidden)
    subset_spec = TransformSpec(recode=("abandoned",), dummy=(), label="abandoned")
    results = [
        dep.pipeline.run_insql_stream(
            sql, spec, command="svm_with_sgd", args={"iterations": 3}, use_cache=True
        )
        for sql, spec in (
            (wl.prep_sql, wl.spec),
            (wl.subset_sql, subset_spec),
            (wl.recode_reuse_sql, wl.spec),
        )
    ]
    assert pivots == []  # also when a thread swallowed the failure
    assert sum(r.lineage.cached_view is not None for r in results) == 2
    assert dep.cluster.ledger.get("columnar.fallback") == 0


def test_columnar_pipeline_end_to_end():
    dep_row, row_result = _run_pipeline(columnar=False)
    dep_col, col_result = _run_pipeline(columnar=True)

    row_ds = row_result.ml_result.dataset
    col_ds = col_result.ml_result.dataset
    assert isinstance(row_ds, ArrayDataset)  # R frames pivot into batches too
    assert isinstance(col_ds, ArrayDataset)
    assert col_ds.count() == row_ds.count() > 0

    # identical training input => identical model
    np.testing.assert_allclose(
        col_result.ml_result.model.weights,
        row_result.ml_result.model.weights,
        rtol=1e-12,
    )

    # Ledger coherence.  Every deployment sends C frames, accounted at the
    # typed estimate_row_bytes formula — the basis the SQL side's
    # shuffle/output counters use: sender and receiver agree exactly, and
    # the ignored columnar= moves no byte.
    for dep in (dep_row, dep_col):
        assert dep.cluster.ledger.get("stream.sent") == dep.cluster.ledger.get(
            "ml.ingest"
        )
    row_sent = dep_row.cluster.ledger.get("stream.sent")
    assert row_sent == dep_col.cluster.ledger.get("stream.sent") > 0


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
def test_in_memory_values_without_typed_storage_keep_their_rows(monkeypatch, rows):
    """A value the typed storage cannot represent makes its column, in its
    slot, an ``object`` column of the Python values: the scan still yields
    batches, and the rows come back as stored, types included."""
    engine = BigSQL(make_paper_cluster())
    engine.create_table("m", MEMO_SCHEMA, rows)
    got, scans = _scanned(monkeypatch, engine, "SELECT * FROM m")
    assert same_rows(sorted(got, key=repr), sorted(rows, key=repr))
    assert all(isinstance(p, ColumnBatch) for p in scans)
    assert sum(c.is_object for p in scans for c in p.columns) == 1


class _Echo(TableUDF):
    """A UDF with no batch kernel: echoes its rows, keeping them by slot."""

    name = "echo"

    def __init__(self):
        self.seen = {}

    def output_schema(self, input_schema, args):
        return input_schema

    def process_partition(self, rows, input_schema, args, ctx):
        self.seen[ctx.worker_id] = rows
        return rows


def test_a_udf_without_a_batch_kernel_gets_row_partitions_as_they_are(monkeypatch):
    """A UDF with only ``process_partition`` gets its slot's rows in their
    order (behind an ORDER BY, all of them on slot 0); its row output is
    batched once, at the UDF seam."""
    engine = BigSQL(make_paper_cluster())
    engine.create_table("m", MEMO_SCHEMA, MEMO_ROWS)
    echo = _Echo()
    engine.register_table_udf(echo)
    pivots = []
    from_rows = ColumnBatch.from_rows.__func__

    def counted(cls, schema, rows):
        pivots.append(len(rows))
        return from_rows(cls, schema, rows)

    monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(counted))
    relation = engine.execute_distributed(
        "SELECT * FROM TABLE(echo((SELECT k, d FROM m ORDER BY k DESC))) AS e"
    )
    expected = [(k, d) for k, _s, d in reversed(MEMO_ROWS)]
    assert echo.seen == {0: expected, **{w: [] for w in range(1, engine.num_workers)}}
    assert all(isinstance(p, ColumnBatch) for p in relation.partitions)
    assert relation.all_rows() == expected
    # the seam's pivot of each slot's output, and no other
    n = engine.num_workers
    assert sorted(pivots) == [0] * (n - 1) + [len(MEMO_ROWS)]
    assert engine.cluster.ledger.get("columnar.fallback") == 0
