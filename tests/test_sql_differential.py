"""Differential testing: our MPP engine vs SQLite on the shared SQL subset.

For randomly generated tables and queries (filters, projections, equi-joins,
grouped aggregates, DISTINCT, ORDER BY/LIMIT), both engines must return the
same multiset of rows.  SQLite is the reference implementation; any
disagreement is a bug in our parser, planner, or executor.
"""

import math
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.hdfs.filesystem import DistributedFileSystem
from repro.sql.engine import BigSQL
from repro.sql.types import DataType, Schema

T1_SCHEMA = Schema.of(
    ("id", DataType.BIGINT),
    ("grp", DataType.INT),
    ("val", DataType.INT),
    ("name", DataType.VARCHAR),
)
T2_SCHEMA = Schema.of(
    ("gid", DataType.INT),
    ("weight", DataType.DOUBLE),
    ("tag", DataType.VARCHAR),
)

NAMES = ["ann", "bob", "cat", "dan", None]
TAGS = ["x", "y", "z"]


@st.composite
def datasets(draw):
    t1 = draw(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(0, 4),
                st.one_of(st.none(), st.integers(-20, 20)),
                st.sampled_from(NAMES),
            ),
            min_size=0,
            max_size=40,
        )
    )
    t2 = draw(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.floats(min_value=-5, max_value=5, allow_nan=False).map(
                    lambda f: round(f, 3)
                ),
                st.sampled_from(TAGS),
            ),
            min_size=0,
            max_size=15,
        )
    )
    return t1, t2


QUERIES = [
    # projections and filters
    "SELECT id, val FROM t1 WHERE val > 0",
    "SELECT id FROM t1 WHERE val IS NULL",
    "SELECT id FROM t1 WHERE val IS NOT NULL AND grp <> 2",
    "SELECT id, val * 2 + 1 FROM t1 WHERE grp IN (1, 3)",
    "SELECT id FROM t1 WHERE val BETWEEN -5 AND 5",
    "SELECT id FROM t1 WHERE name LIKE 'a%'",
    "SELECT id FROM t1 WHERE name = 'cat' OR val < -10",
    "SELECT id, CASE WHEN val > 0 THEN 'pos' WHEN val < 0 THEN 'neg' ELSE 'zero' END FROM t1 WHERE val IS NOT NULL",
    # distinct / order / limit
    "SELECT DISTINCT grp FROM t1",
    "SELECT DISTINCT grp, name FROM t1",
    "SELECT id, val FROM t1 WHERE val IS NOT NULL ORDER BY val DESC, id ASC LIMIT 5",
    # aggregates
    "SELECT COUNT(*) FROM t1",
    "SELECT COUNT(val), SUM(val), MIN(val), MAX(val) FROM t1",
    "SELECT grp, COUNT(*) FROM t1 GROUP BY grp",
    "SELECT grp, COUNT(val), SUM(val) FROM t1 GROUP BY grp HAVING COUNT(*) > 1",
    "SELECT grp, AVG(val) FROM t1 WHERE val IS NOT NULL GROUP BY grp",
    "SELECT COUNT(DISTINCT grp) FROM t1",
    "SELECT MAX(val) - MIN(val) FROM t1 WHERE val IS NOT NULL",
    # joins
    "SELECT t1.id, t2.tag FROM t1, t2 WHERE t1.grp = t2.gid",
    "SELECT t1.id, t2.weight FROM t1 JOIN t2 ON t1.grp = t2.gid WHERE t2.weight > 0",
    "SELECT t1.id FROM t1 LEFT JOIN t2 ON t1.grp = t2.gid WHERE t2.gid IS NULL",
    "SELECT t1.grp, COUNT(*) FROM t1, t2 WHERE t1.grp = t2.gid GROUP BY t1.grp",
    # union all
    "SELECT id FROM t1 WHERE grp = 0 UNION ALL SELECT id FROM t1 WHERE grp = 1",
    # lazy operands: COALESCE, IN with a NULL member, a guarded division
    "SELECT id, COALESCE(val, 0) FROM t1",
    "SELECT id FROM t1 WHERE grp IN (1, NULL)",
    "SELECT id FROM t1 WHERE grp NOT IN (1, NULL)",
    "SELECT id, 100 / val FROM t1 WHERE val <> 0 AND 100 / val > 1",
    # VARCHAR MIN/MAX, a nullable VARCHAR key, DISTINCT arguments, DOUBLE
    "SELECT MIN(name), MAX(name) FROM t1",
    "SELECT grp, MIN(name), MAX(name) FROM t1 GROUP BY grp",
    "SELECT name, COUNT(*), SUM(val) FROM t1 GROUP BY name",
    "SELECT grp, SUM(DISTINCT val), AVG(DISTINCT val) FROM t1 GROUP BY grp",
    "SELECT COUNT(weight), SUM(weight), AVG(weight), MIN(weight), MAX(weight) FROM t2",
    # a VARCHAR DESC key first (NULL-free: SQLite sorts NULLs first)
    "SELECT tag, gid FROM t2 ORDER BY tag DESC, gid LIMIT 5",
    # union all feeding group by
    "SELECT grp, COUNT(*), SUM(val) FROM "
    "(SELECT grp, val FROM t1 UNION ALL SELECT gid, gid FROM t2) AS u GROUP BY grp",
]

# ``columnar.fallback`` ticks of a family: an expression without a vector
# kernel (COALESCE, IN with a NULL member, ``/``) runs ``bind_batch``, one
# tick per filter or projection holding one; every other family runs the
# kernels only.
FALLBACK_TICKS = {
    "SELECT id, COALESCE(val, 0) FROM t1": 1,
    "SELECT id FROM t1 WHERE grp IN (1, NULL)": 1,
    "SELECT id FROM t1 WHERE grp NOT IN (1, NULL)": 1,
    "SELECT id, 100 / val FROM t1 WHERE val <> 0 AND 100 / val > 1": 2,
}

# One fixed dataset: NULL values and names, negative and zero values.
FIXED_T1 = [(i, i % 5, None if i % 7 == 0 else i - 20, NAMES[i % 5]) for i in range(40)]
FIXED_T2 = [(i % 5, round((i - 7) * 0.7, 3), TAGS[i % 3]) for i in range(15)]


def normalize(rows):
    out = []
    for row in rows:
        normalized = []
        for value in row:
            if isinstance(value, float):
                if math.isclose(value, round(value), abs_tol=1e-9):
                    value = round(value, 9)
                else:
                    value = round(value, 9)
            if isinstance(value, bool):
                value = int(value)
            normalized.append(value)
        out.append(tuple(normalized))
    return sorted(out, key=repr)


def run_sqlite(t1, t2, sql):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t1 (id INTEGER, grp INTEGER, val INTEGER, name TEXT)")
    conn.execute("CREATE TABLE t2 (gid INTEGER, weight REAL, tag TEXT)")
    conn.executemany("INSERT INTO t1 VALUES (?,?,?,?)", t1)
    conn.executemany("INSERT INTO t2 VALUES (?,?,?)", t2)
    try:
        return [tuple(r) for r in conn.execute(sql).fetchall()]
    finally:
        conn.close()


def run_ours(t1, t2, sql):
    engine = BigSQL(make_paper_cluster())
    engine.create_table("t1", T1_SCHEMA, t1)
    engine.create_table("t2", T2_SCHEMA, t2)
    return engine.query_rows(sql)


@pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
def test_fallback_ticks_per_family(sql):
    engine = BigSQL(make_paper_cluster())
    engine.create_table("t1", T1_SCHEMA, FIXED_T1)
    engine.create_table("t2", T2_SCHEMA, FIXED_T2)
    assert normalize(engine.query_rows(sql)) == normalize(run_sqlite(FIXED_T1, FIXED_T2, sql))
    assert engine.cluster.ledger.get("columnar.fallback") == FALLBACK_TICKS.get(sql, 0)


def run_ours_on_text(t1, t2, sql):
    """The same tables as external text files on the DFS (NULL = empty field)."""
    cluster = make_paper_cluster()
    dfs = DistributedFileSystem(cluster, block_size=256)
    engine = BigSQL(cluster, dfs)
    for name, schema, rows in (("t1", T1_SCHEMA, t1), ("t2", T2_SCHEMA, t2)):
        text = "".join(
            ",".join(c.dtype.render(v) for c, v in zip(schema, row)) + "\n" for row in rows
        )
        dfs.write_text(f"/diff/{name}.csv", text)
        engine.register_external_table(name, schema, f"/diff/{name}.csv")
    return engine.query_rows(sql)


@pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=datasets())
def test_engine_matches_sqlite(sql, data):
    t1, t2 = data
    ours = normalize(run_ours(t1, t2, sql))
    reference = normalize(run_sqlite(t1, t2, sql))
    if "ORDER BY" in sql:
        # order-sensitive: compare as lists (normalize() sorted them, so
        # re-run without sorting)
        ours_ordered = [tuple(r) for r in run_ours(t1, t2, sql)]
        ref_ordered = run_sqlite(t1, t2, sql)
        assert normalize(ours_ordered) == normalize(ref_ordered)
        # and the ordering keys themselves must match in sequence
        assert [r[1] for r in ours_ordered] == [r[1] for r in ref_ordered]
    else:
        assert ours == reference, f"disagreement on: {sql}"


@pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=datasets())
def test_text_scan_matches_sqlite(sql, data):
    """The text scan under the same queries: a wrongly pruned or mis-parsed
    column shows as a diff against SQLite (rows compared as multisets; the
    in-memory variant above checks ORDER BY sequences)."""
    t1, t2 = data
    ours = normalize(run_ours_on_text(t1, t2, sql))
    assert ours == normalize(run_sqlite(t1, t2, sql)), f"disagreement on: {sql}"
