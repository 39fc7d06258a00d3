"""The SQL operators over ``ColumnBatch`` partitions: one grouping primitive
for DISTINCT, GROUP BY, aggregates and ANALYZE, one ordering for ORDER BY,
and no operator that hands on anything but batches."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import make_deployment
from repro.cluster.cluster import make_paper_cluster
from repro.columnar.batch import ColumnBatch
from repro.sql.engine import BigSQL
from repro.sql.executor import Executor
from repro.sql.types import DataType, Schema
from repro.workloads import generate_retail
from tests.byte_oracle import estimate_rows_bytes

from tests.test_sql_differential import FIXED_T1, FIXED_T2, QUERIES, run_ours

NAN = float("nan")
# Two NULLs and six NaNs among the numbers, in one DOUBLE column.
DOUBLES = [1.0, NAN, None, 2.0, NAN, 1.0, None, NAN, NAN, 2.0, NAN, NAN]
DV_SCHEMA = Schema.of(("d", DataType.DOUBLE), ("v", DataType.INT))


def _engine(schema, rows) -> BigSQL:
    engine = BigSQL(make_paper_cluster())
    engine.create_table("t", schema, rows)
    return engine


def _kind(value):
    """NaN as the string ``"nan"`` (it equals nothing, itself included)."""
    return "nan" if value is not None and value != value else value


def test_int_sums_are_exact_and_a_global_aggregate_is_the_one_group_case():
    big = 2**62
    engine = _engine(Schema.of(("g", DataType.INT), ("x", DataType.BIGINT)), [(0, big)] * 16)
    total = 16 * big  # past int64
    (global_row,) = engine.query_rows("SELECT SUM(x), AVG(x) FROM t")
    (grouped_row,) = engine.query_rows("SELECT g, SUM(x), AVG(x) FROM t GROUP BY g")
    assert global_row == grouped_row[1:] == (total, float(big))
    assert type(global_row[0]) is int
    assert engine.query_rows("SELECT SUM(g + 1), AVG(g + 1) FROM t") == [(16, 1.0)]


@pytest.mark.parametrize(
    "sql, expected",
    [
        ("SELECT DISTINCT d FROM t", {(1.0,), (2.0,), ("nan",), (None,)}),
        (
            "SELECT d, COUNT(*), SUM(v) FROM t GROUP BY d",
            {(1.0, 2, 5), ("nan", 6, 41), (None, 2, 8), (2.0, 2, 12)},
        ),
        # NaN is one distinct value; it sorts after every number
        ("SELECT COUNT(DISTINCT d), MIN(d), MAX(d) FROM t", {(3, 1.0, "nan")}),
    ],
    ids=["distinct", "group-by", "aggregates"],
)
def test_nan_is_one_value_apart_from_null(sql, expected):
    """PostgreSQL's NaN = NaN: every NaN is one row and one group, apart
    from NULL's, and the statement moves the same bytes on every run."""
    shuffles = set()
    for _ in range(5):
        engine = _engine(DV_SCHEMA, [(d, i) for i, d in enumerate(DOUBLES)])
        rows = engine.query_rows(sql)
        assert len(rows) == len(expected)
        assert {tuple(map(_kind, row)) for row in rows} == expected
        shuffles.add(engine.cluster.ledger.get("sql.shuffle"))
    assert len(shuffles) == 1


def _order_rank(value):
    """ORDER BY's order of a DOUBLE: numbers, then NaN, then NULL."""
    if value is None:
        return (2, 0.0)
    return (1, 0.0) if value != value else (0, value)


@pytest.mark.parametrize("ascending", [True, False], ids=["asc", "desc"])
def test_order_by_places_nulls_and_nan_and_keeps_ties_in_order(ascending):
    """NULLs last ascending and first descending, NaN after every number,
    and rows of equal keys in the order the slots hold them."""
    rows = [(d, i) for i, d in enumerate(DOUBLES)]
    engine = _engine(DV_SCHEMA, rows)
    n = engine.num_workers
    dealt = [row for w in range(n) for row in rows[w::n]]  # in-memory rows go round-robin
    expected = sorted(dealt, key=lambda row: _order_rank(row[0]), reverse=not ascending)
    got = engine.query_rows(f"SELECT d, v FROM t ORDER BY d {'ASC' if ascending else 'DESC'}")
    assert [tuple(map(_kind, row)) for row in got] == [tuple(map(_kind, r)) for r in expected]


def test_every_operator_hands_on_column_batches(monkeypatch):
    """Every differential family and a streamed pipeline run (pass 1's
    DISTINCT over ``local_distinct`` included): each operator's every
    partition is a ``ColumnBatch``."""
    outputs = []
    execute = Executor._execute

    def recorded(self, plan):
        relation = execute(self, plan)
        outputs.append((type(plan).__name__, [type(p) for p in relation.partitions]))
        return relation

    monkeypatch.setattr(Executor, "_execute", recorded)
    for sql in QUERIES:
        run_ours(FIXED_T1, FIXED_T2, sql)
    dep = make_deployment()
    wl = generate_retail(dep.engine, dep.dfs, num_users=80, num_carts=600)
    dep.pipeline.run_insql_stream(
        wl.prep_sql, wl.spec, command="svm_with_sgd", args={"iterations": 2}
    )
    assert {name for name, _types in outputs} == {
        "LogicalScan", "LogicalFilter", "LogicalProject", "LogicalJoin", "LogicalDistinct",
        "LogicalAggregate", "LogicalSort", "LogicalLimit", "LogicalUnionAll",
        "LogicalTableFunction",
    }
    assert {t for _name, types in outputs for t in types} == {ColumnBatch}


def _seed_stats(rows, schema):
    """ANALYZE as the seed computed it: a set of values per column."""
    ndv = {
        column.name.lower(): len({row[i] for row in rows if row[i] is not None})
        for i, column in enumerate(schema)
    }
    return len(rows), estimate_rows_bytes(rows) / len(rows), ndv


def test_analyze_reads_the_batches():
    """Row count, average row bytes and NDV of the retail tables equal the
    seed's per-value set loop; NaN counts once."""
    dep = make_deployment()
    generate_retail(dep.engine, dep.dfs, num_users=80, num_carts=600)
    for table in ("users", "carts"):
        rows = dep.engine.query_rows(f"SELECT * FROM {table}")
        stats = dep.engine.analyze(table)
        schema = dep.engine.catalog.get_table(table).schema
        assert (stats.row_count, stats.avg_row_bytes, stats.ndv) == _seed_stats(rows, schema)
    stats = _engine(DV_SCHEMA, [(d, i % 5) for i, d in enumerate(DOUBLES)]).analyze("t")
    assert stats.ndv == {"d": 3, "v": 5}


NULL_PLACEMENT = """
from repro.cluster.cluster import make_paper_cluster
from repro.sql.engine import BigSQL
from repro.sql.types import DataType, Schema

engine = BigSQL(make_paper_cluster())
schema = Schema.of(("grp", DataType.INT), ("name", DataType.VARCHAR))
engine.create_table("t", schema, [(i % 24, None if i % 3 else f"n{i % 4}") for i in range(96)])
relation = engine.execute_distributed("SELECT DISTINCT grp, name FROM t")
print([batch.to_rows() for batch in relation.partitions], engine.cluster.ledger.get("sql.shuffle"))
"""


def test_null_keys_are_placed_alike_in_every_process():
    """A NULL key part is placed by a hash that does not depend on the
    process (``hash(None)`` is an address before CPython 3.12), so two fresh
    interpreters put every DISTINCT row on the same slot and charge the same
    ``sql.shuffle``."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    runs = [
        subprocess.run(
            [sys.executable, "-c", NULL_PLACEMENT], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert "None" in runs[0]
