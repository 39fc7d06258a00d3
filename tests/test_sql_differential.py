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
from repro.columnar.batch import ColumnBatch
from repro.hdfs.filesystem import DistributedFileSystem
from repro.sql.engine import BigSQL
from repro.sql.executor import _JoinIndex, _key_column
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


# ------------------------------------------------------------ join families
# The join ranks an integer key by a table over the build side's [min, max]
# where that span is narrow, else by binary search; it finds a probe row's
# build rows by address where the key code space is small next to the build
# side, else by binary search.  Each family holds keys on one side of those
# selections; none of them leaves the vector kernels.

WIDE_KEYS = [-(2**31), -90_000, -1, 0, 3, 70_000, 2**31 - 1]
INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
DOUBLE_KEYS = [float("nan"), -2.0, 0.0, 0.5, 1.0, 3.0, None]  # SQLite stores NaN as NULL


@st.composite
def join_tables(draw, ids=st.integers(0, 30), grp=st.integers(0, 4), val=st.integers(-3, 3),
                gid=st.integers(0, 4), weight=st.sampled_from(DOUBLE_KEYS), t1_size=(0, 40),
                unique=()):
    t1 = draw(st.lists(st.tuples(ids, grp, val, st.sampled_from(NAMES)),
                       min_size=t1_size[0], max_size=t1_size[1], unique_by=unique or None))
    t2 = draw(st.lists(st.tuples(gid, weight, st.sampled_from(TAGS)), max_size=15))
    return t1, t2


_BY_GRP = "SELECT t1.id, t1.val, t2.tag FROM t1 JOIN t2 ON t1.grp = t2.gid"
JOIN_FAMILIES = {
    "small span, duplicate keys on both sides": (
        dict(grp=st.integers(0, 6), gid=st.integers(0, 6)), _BY_GRP),
    "span wider than the table bound": (
        dict(grp=st.sampled_from(WIDE_KEYS), gid=st.sampled_from(WIDE_KEYS)), _BY_GRP),
    "negative keys": (dict(grp=st.integers(-12, 0), gid=st.integers(-9, -1)), _BY_GRP),
    "probe keys outside [min, max]": (
        dict(grp=st.integers(-5, 25), gid=st.integers(8, 12)), _BY_GRP),
    "NULL keys": (
        dict(grp=st.one_of(st.none(), st.integers(0, 4)),
             gid=st.one_of(st.none(), st.integers(0, 4))), _BY_GRP),
    "int64 extremes": (
        dict(ids=st.sampled_from(INT64_EDGES)),
        "SELECT a.grp, b.val FROM t1 AS a JOIN t1 AS b ON a.id = b.id"),
    "DOUBLE keys with NaN": (
        {}, "SELECT a.gid, a.tag, b.tag FROM t2 AS a JOIN t2 AS b ON a.weight = b.weight"),
    "INT against DOUBLE keys": (
        dict(val=st.one_of(st.none(), st.integers(-3, 3))),
        "SELECT t1.id, t2.tag FROM t1 JOIN t2 ON t1.val = t2.weight"),
    # 40+ distinct ids times 40+ distinct vals passes 4 * rows + 1024 codes
    "two keys above the code-space bound": (
        dict(ids=st.integers(0, 10**6), val=st.integers(-(10**6), 10**6), t1_size=(40, 60),
             unique=(lambda r: r[0], lambda r: r[2])),
        "SELECT a.id, b.grp FROM t1 AS a JOIN t1 AS b ON a.id = b.id AND a.val = b.val"),
    "LEFT JOIN with unmatched probe rows": (
        dict(grp=st.integers(0, 8), gid=st.integers(3, 5)),
        "SELECT t1.id, t1.grp, t2.gid, t2.tag FROM t1 LEFT JOIN t2 ON t1.grp = t2.gid"),
}


@pytest.mark.parametrize("family", JOIN_FAMILIES)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_join_family_matches_sqlite(family, data):
    columns, sql = JOIN_FAMILIES[family]
    t1, t2 = data.draw(join_tables(**columns))
    engine = BigSQL(make_paper_cluster())
    engine.create_table("t1", T1_SCHEMA, t1)
    engine.create_table("t2", T2_SCHEMA, t2)
    assert normalize(engine.query_rows(sql)) == normalize(run_sqlite(t1, t2, sql))
    assert engine.cluster.ledger.get("columnar.fallback") == 0


KEY_PARTS = st.one_of(st.none(), st.integers(-40, 40), st.sampled_from(WIDE_KEYS))


@st.composite
def key_rows(draw):
    """Build and probe key tuples of one or two BIGINT parts, NULLs included."""
    row = st.tuples(*[KEY_PARTS] * draw(st.integers(1, 2)))
    return draw(st.lists(row, max_size=60)), draw(st.lists(row, max_size=30))


@settings(max_examples=150, deadline=None)
@given(case=key_rows(), outer=st.booleans())
def test_join_index_gathers_the_pairs_binary_search_finds(case, outer):
    """The join index's address paths (rank table, per-code runs) and its
    ``searchsorted`` paths give the same ``(probe row, build row)`` pairs as
    a nested loop: probe order, then build order; a LEFT JOIN's unmatched
    probe row pairs with the NULL row one past the build rows."""
    build_rows, probe_rows = case
    width = len((build_rows + probe_rows + [(None,)])[0])
    schema = Schema.of(*[(f"k{i}", DataType.BIGINT) for i in range(width)])
    build, probe = (ColumnBatch.from_rows(schema, rows) for rows in (build_rows, probe_rows))
    build_keys, probe_keys = ([_key_column(c) for c in b.columns] for b in (build, probe))
    index = _JoinIndex(build, build_keys, [probe_keys], outer)
    addressed = index.match(index.codes(probe_keys, probe.num_rows))
    index._tables, index._runs = {}, None
    searched = index.match(index.codes(probe_keys, probe.num_rows))

    expected = []
    for i, key in enumerate(probe_rows):
        matches = [(i, j) for j, other in enumerate(build_rows) if None not in key and key == other]
        expected += matches or ([(i, len(build_rows))] if outer else [])
    for pairs in (addressed, searched):
        assert list(zip(*(side.tolist() for side in pairs))) == expected
