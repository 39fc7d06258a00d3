"""Executor: operator correctness against Python-computed references."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import make_deployment
from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import ExecutionError
from repro.hdfs.filesystem import DistributedFileSystem
from repro.iofmt.inputformat import JobConf
from repro.iofmt.text import CsvInputFormat, FileSplit, LineRecordReader
from repro.sql.engine import BigSQL
from repro.columnar.text import RecordWidthError, split_fields
from repro.sql.executor import assign_splits
from repro.sql.planner import BROADCAST_THRESHOLD_BYTES
from repro.sql.types import DataType, Schema

from tests.test_iofmt import PerLineReader


class TestBasicQueries:
    def test_projection(self, users_carts):
        rows = users_carts.query_rows("SELECT age, gender FROM users")
        assert sorted(rows) == [(25, "M"), (35, "F"), (40, "M"), (57, "F"), (61, "F")]

    def test_expressions_in_select(self, users_carts):
        rows = users_carts.query_rows("SELECT userid, age * 2 FROM users WHERE userid = 1")
        assert rows == [(1, 114)]

    def test_filter_true_only(self, users_carts):
        rows = users_carts.query_rows("SELECT userid FROM users WHERE age > 40")
        assert sorted(rows) == [(1,), (5,)]

    def test_paper_query(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT U.age, U.gender, C.amount, C.abandoned "
            "FROM carts C, users U WHERE C.userid = U.userid AND U.country = 'USA'"
        )
        assert sorted(rows) == [
            (25, "M", 55.10, "No"),
            (40, "M", 299.99, "Yes"),
            (57, "F", 7.50, "No"),
            (57, "F", 142.65, "Yes"),
            (61, "F", 3.99, "No"),
            (61, "F", 120.00, "Yes"),
        ]

    def test_distinct(self, users_carts):
        rows = users_carts.query_rows("SELECT DISTINCT country FROM users")
        assert sorted(rows) == [("DE",), ("USA",)]

    def test_order_by_multi_key(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT gender, age FROM users ORDER BY gender, age DESC"
        )
        assert rows == [("F", 61), ("F", 57), ("F", 35), ("M", 40), ("M", 25)]

    def test_order_by_nulls_last(self, engine):
        engine.create_table(
            "t", Schema.of(("x", DataType.INT)), [(3,), (None,), (1,)]
        )
        assert engine.query_rows("SELECT x FROM t ORDER BY x") == [(1,), (3,), (None,)]
        assert engine.query_rows("SELECT x FROM t ORDER BY x DESC") == [
            (None,),
            (3,),
            (1,),
        ]

    def test_limit(self, users_carts):
        rows = users_carts.query_rows("SELECT userid FROM users ORDER BY userid LIMIT 3")
        assert rows == [(1,), (2,), (3,)]

    def test_subquery(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT s.age FROM (SELECT age FROM users WHERE gender = 'F') AS s "
            "WHERE s.age > 40"
        )
        assert sorted(rows) == [(57,), (61,)]


class TestDivisionByZero:
    @pytest.fixture()
    def engine(self):
        engine = make_deployment(num_workers=2).engine
        engine.create_table("t", Schema.of(("a", DataType.INT)), [(0,), (2,), (5,), (10,)])
        return engine

    @pytest.mark.parametrize(
        "sql", ["SELECT 10 / a FROM t", "SELECT a % 0 FROM t", "SELECT mod(a, 0) FROM t"]
    )
    def test_raises_a_typed_error(self, engine, sql):
        with pytest.raises(ExecutionError, match="division by zero in"):
            engine.query_rows(sql)

    def test_a_guarded_division_skips_the_zero(self, engine):
        rows = engine.query_rows("SELECT a FROM t WHERE a <> 0 AND 10 / a > 1")
        assert sorted(rows) == [(2,), (5,)]


class TestJoins:
    def test_inner_join_explicit(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT C.cartid FROM carts C JOIN users U ON C.userid = U.userid "
            "WHERE U.country = 'DE'"
        )
        assert rows == [(12,)]

    def test_left_join_preserves_unmatched(self, engine):
        engine.create_table(
            "l", Schema.of(("id", DataType.INT), ("v", DataType.VARCHAR)),
            [(1, "a"), (2, "b"), (3, "c")],
        )
        engine.create_table(
            "r", Schema.of(("id", DataType.INT), ("w", DataType.VARCHAR)),
            [(1, "x"), (1, "y")],
        )
        rows = engine.query_rows(
            "SELECT l.v, r.w FROM l LEFT JOIN r ON l.id = r.id"
        )
        assert sorted(rows, key=str) == [("a", "x"), ("a", "y"), ("b", None), ("c", None)]

    def test_null_keys_never_match(self, engine):
        engine.create_table(
            "l", Schema.of(("id", DataType.INT)), [(1,), (None,)]
        )
        engine.create_table(
            "r", Schema.of(("id", DataType.INT)), [(1,), (None,)]
        )
        rows = engine.query_rows("SELECT l.id, r.id FROM l, r WHERE l.id = r.id")
        assert rows == [(1, 1)]

    def test_null_key_left_join_null_extended(self, engine):
        engine.create_table("l2", Schema.of(("id", DataType.INT)), [(None,)])
        engine.create_table("r2", Schema.of(("id", DataType.INT)), [(None,)])
        rows = engine.query_rows("SELECT l2.id, r2.id FROM l2 LEFT JOIN r2 ON l2.id = r2.id")
        assert rows == [(None, None)]

    def test_non_equi_residual(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT C.cartid FROM carts C, users U "
            "WHERE C.userid = U.userid AND C.amount > U.age"
        )
        # amount > age: 142.65>57, 299.99>40, 55.10>25, 120.00>61
        assert sorted(rows) == [(10,), (11,), (14,), (15,)]

    def test_cartesian_product(self, engine):
        engine.create_table("a", Schema.of(("x", DataType.INT)), [(1,), (2,)])
        engine.create_table("b", Schema.of(("y", DataType.INT)), [(10,), (20,)])
        rows = engine.query_rows("SELECT a.x, b.y FROM a, b")
        assert sorted(rows) == [(1, 10), (1, 20), (2, 10), (2, 20)]

    def test_shuffle_join_matches_broadcast_join(self, engine, monkeypatch):
        """Forcing the shuffle path must not change the result."""
        rows_l = [(i % 17, f"l{i}") for i in range(200)]
        rows_r = [(i % 17, f"r{i}") for i in range(100)]
        engine.create_table(
            "bigl", Schema.of(("k", DataType.INT), ("v", DataType.VARCHAR)), rows_l
        )
        engine.create_table(
            "bigr", Schema.of(("k", DataType.INT), ("w", DataType.VARCHAR)), rows_r
        )
        sql = "SELECT bigl.v, bigr.w FROM bigl, bigr WHERE bigl.k = bigr.k"
        broadcast_result = sorted(engine.query_rows(sql))
        import repro.sql.executor as executor_module

        monkeypatch.setattr(executor_module, "BROADCAST_THRESHOLD_BYTES", 0)
        shuffle_result = sorted(engine.query_rows(sql))
        assert shuffle_result == broadcast_result
        # reference: Python-computed join
        reference = sorted(
            (lv, rw) for lk, lv in rows_l for rk, rw in rows_r if lk == rk
        )
        assert broadcast_result == reference

    def test_shuffle_accounting(self, users_carts):
        before = users_carts.cluster.ledger.snapshot()
        users_carts.query_rows(
            "SELECT U.age FROM carts C, users U WHERE C.userid = U.userid"
        )
        delta = users_carts.cluster.ledger.delta(
            before, users_carts.cluster.ledger.snapshot()
        )
        assert delta["sql.shuffle"] > 0  # broadcast replication cost


class TestAggregates:
    def test_global_aggregates(self, users_carts):
        (row,) = users_carts.query_rows(
            "SELECT COUNT(*), SUM(age), MIN(age), MAX(age), AVG(age) FROM users"
        )
        assert row == (5, 218, 25, 61, 43.6)

    def test_group_by(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT gender, COUNT(*), AVG(age) FROM users GROUP BY gender"
        )
        assert sorted(rows) == [("F", 3, 51.0), ("M", 2, 32.5)]

    def test_count_star_vs_count_column_with_nulls(self, engine):
        engine.create_table(
            "n", Schema.of(("x", DataType.INT)), [(1,), (None,), (3,), (None,)]
        )
        (row,) = engine.query_rows("SELECT COUNT(*), COUNT(x), SUM(x) FROM n")
        assert row == (4, 2, 4)

    def test_count_distinct(self, users_carts):
        (row,) = users_carts.query_rows("SELECT COUNT(DISTINCT gender) FROM users")
        assert row == (2,)

    def test_sum_distinct(self, engine):
        engine.create_table(
            "d", Schema.of(("x", DataType.INT)), [(1,), (1,), (2,), (3,), (3,)]
        )
        (row,) = engine.query_rows("SELECT SUM(DISTINCT x), AVG(DISTINCT x) FROM d")
        assert row == (6, 2.0)

    def test_empty_global_aggregate(self, users_carts):
        (row,) = users_carts.query_rows(
            "SELECT COUNT(*), SUM(age), MAX(age) FROM users WHERE age > 1000"
        )
        assert row == (0, None, None)

    def test_empty_grouped_aggregate_yields_no_rows(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT gender, COUNT(*) FROM users WHERE age > 1000 GROUP BY gender"
        )
        assert rows == []

    def test_having(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT gender FROM users GROUP BY gender HAVING COUNT(*) > 2"
        )
        assert rows == [("F",)]

    def test_expression_over_aggregates(self, users_carts):
        (row,) = users_carts.query_rows(
            "SELECT MAX(age) - MIN(age) FROM users"
        )
        assert row == (36,)

    def test_group_by_expression(self, users_carts):
        rows = users_carts.query_rows(
            "SELECT age / 10, COUNT(*) FROM users GROUP BY age / 10"
        )
        assert sorted(rows) == [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1)]

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(st.none(), st.integers(-50, 50)),
            ),
            min_size=0,
            max_size=60,
        )
    )
    def test_grouped_aggregates_match_reference(self, data):
        """Distributed partial+merge aggregation equals a flat reference."""
        cluster = make_paper_cluster()
        engine = BigSQL(cluster)
        engine.create_table(
            "p", Schema.of(("g", DataType.INT), ("x", DataType.INT)), data
        )
        rows = engine.query_rows(
            "SELECT g, COUNT(*), COUNT(x), SUM(x), MIN(x), MAX(x) FROM p GROUP BY g"
        )
        reference = {}
        for g, x in data:
            entry = reference.setdefault(g, [0, 0, None, None, None])
            entry[0] += 1
            if x is not None:
                entry[1] += 1
                entry[2] = x if entry[2] is None else entry[2] + x
                entry[3] = x if entry[3] is None else min(entry[3], x)
                entry[4] = x if entry[4] is None else max(entry[4], x)
        expected = sorted((g, *vals) for g, vals in reference.items())
        assert sorted(rows) == expected


class TestExternalTables:
    def test_scan_parses_types(self, engine, dfs):
        dfs.write_text("/ext/data.csv", "1,2.5,abc,true\n2,,xyz,false\n")
        engine.register_external_table(
            "ext",
            Schema.of(
                ("i", DataType.BIGINT),
                ("d", DataType.DOUBLE),
                ("s", DataType.VARCHAR),
                ("b", DataType.BOOLEAN),
            ),
            "/ext/data.csv",
        )
        rows = engine.query_rows("SELECT i, d, s, b FROM ext ORDER BY i")
        assert rows == [(1, 2.5, "abc", True), (2, None, "xyz", False)]

    def test_scan_large_file_exactly_once(self, engine, dfs):
        lines = "\n".join(f"{i},{i * 3}" for i in range(3000)) + "\n"
        dfs.write_text("/ext/big.csv", lines)
        engine.register_external_table(
            "big", Schema.of(("i", DataType.BIGINT), ("v", DataType.BIGINT)), "/ext/big.csv"
        )
        (count_row,) = engine.query_rows("SELECT COUNT(*), SUM(i) FROM big")
        assert count_row == (3000, sum(range(3000)))

    def test_bad_record_raises(self, engine, dfs):
        dfs.write_text("/ext/bad.csv", "1,2\n3\n")
        engine.register_external_table(
            "bad", Schema.of(("a", DataType.INT), ("b", DataType.INT)), "/ext/bad.csv"
        )
        with pytest.raises(ExecutionError, match="expected 2 fields"):
            engine.query_rows("SELECT * FROM bad")

    def test_bad_record_names_file_split_and_record(self, engine, dfs):
        """And fires on the full record: here the missing field is in a
        column the statement does not read."""
        good = "".join(f"{i},x,{i}\n" for i in range(20_000))  # two 64 KiB splits
        dfs.write_text("/ext/ragged.csv", good + "7,y\n")
        schema = Schema.of(("a", DataType.INT), ("s", DataType.VARCHAR), ("c", DataType.INT))
        engine.register_external_table("ragged", schema, "/ext/ragged.csv")
        assert engine.plan("SELECT a FROM ragged").child.columns == (0,)
        with pytest.raises(ExecutionError) as raised:
            engine.query_rows("SELECT a FROM ragged")
        conf = JobConf({"input.path": "/ext/ragged.csv"}, dfs=dfs)
        fmt = CsvInputFormat()
        last = fmt.get_splits(conf, engine.num_workers * 2)[-1]
        with fmt.create_record_reader(last, conf) as reader:
            records = sum(1 for _ in reader)
        assert last.start > 0
        assert str(raised.value) == (
            f"bad record in ragged: expected 3 fields, got 2 (record {records} of "
            f"the split of /ext/ragged.csv starting at byte {last.start})"
        )

    def test_unparsable_and_null_fields_of_a_text_scan(self, engine, dfs):
        dfs.write_text("/ext/n.csv", "1,,a\n\\N,2.5,\n3,1e3,\\N\n")
        schema = Schema.of(("i", DataType.INT), ("d", DataType.DOUBLE), ("s", DataType.VARCHAR))
        engine.register_external_table("n", schema, "/ext/n.csv")
        assert engine.query_rows("SELECT i, d, s FROM n ORDER BY i") == [
            (1, None, "a"), (3, 1000.0, None), (None, 2.5, None),
        ]
        dfs.write_text("/ext/u.csv", "1,x\n2,y\n")
        engine.register_external_table(
            "u", Schema.of(("i", DataType.INT), ("j", DataType.INT)), "/ext/u.csv"
        )
        assert engine.query_rows("SELECT i FROM u ORDER BY i") == [(1,), (2,)]  # j is not read
        with pytest.raises(ValueError, match="invalid literal for int"):
            engine.query_rows("SELECT j FROM u")

    def test_scan_accounting(self, engine, dfs):
        dfs.write_text("/ext/acct.csv", "1\n2\n3\n")
        engine.register_external_table(
            "acct", Schema.of(("a", DataType.INT)), "/ext/acct.csv"
        )
        before = engine.cluster.ledger.snapshot()
        engine.query_rows("SELECT * FROM acct")
        delta = engine.cluster.ledger.delta(before, engine.cluster.ledger.snapshot())
        assert delta["sql.scan"] == 6


def per_line_columns(dfs, split, delimiter, width, kept):
    """What the scan cut before it split flat: one ``line.split`` per
    non-blank line, a width check per record, one pivot — the oracle."""
    with PerLineReader(dfs, split) as reader:
        records = [line.split(delimiter) for line in reader if line]
    for index, record in enumerate(records, 1):
        if len(record) != width:
            return (
                f"expected {width} fields, got {len(record)} "
                f"(record {index} of the split of {split.path} starting at byte {split.start})"
            )
    return [[record[i] for record in records] for i in kept]


class TestFlatSplit:
    @settings(max_examples=80, deadline=None)
    @given(
        delimiter=st.sampled_from([",", "|", "||", "::", ",|"]),
        width=st.integers(1, 4),
        # field text holds pieces of every delimiter and 2-/3-byte characters
        fields=st.lists(st.text(alphabet="a7é✓ ,|:", max_size=3), max_size=24),
        blanks=st.lists(st.integers(0, 8), max_size=3),
        ragged=st.one_of(st.none(), st.tuples(st.integers(0, 8), st.booleans())),
        trailing_newline=st.booleans(),
        kept_mask=st.integers(1, 15),
    )
    # a field ending in half a delimiter: "a|" + "||" + "b" must not cut as "a" + "|b"
    @example(
        delimiter="||", width=2, fields=["a|", "b", "|c", "d|"], blanks=[1], ragged=None,
        trailing_newline=True, kept_mask=3,
    )
    def test_flat_split_matches_the_per_line_split(
        self, delimiter, width, fields, blanks, ragged, trailing_newline, kept_mask
    ):
        """Blank lines, a ragged record at any position, non-ASCII fields,
        multi-character delimiters, and every split boundary of the file:
        the same columns, or the same error naming file, split and record."""
        clean = []
        for field in fields:
            while delimiter in field:
                field = field.replace(delimiter, "")
            clean.append(field)
        records = [clean[i : i + width] for i in range(0, len(clean) - width + 1, width)]
        if ragged is not None and records:
            at, longer = ragged
            record = records[at % len(records)]
            records[at % len(records)] = record + ["x"] if longer else record[:-1]
        lines = [delimiter.join(record) for record in records]
        for at in blanks:
            lines.insert(at % (len(lines) + 1), "")
        raw = ("\n".join(lines) + ("\n" if trailing_newline and lines else "")).encode("utf-8")

        cluster = make_paper_cluster()
        dfs = DistributedFileSystem(cluster, block_size=32)
        dfs.write_bytes("/flat.csv", raw)
        engine = BigSQL(cluster, dfs)
        schema = Schema.of(*((f"c{i}", DataType.VARCHAR) for i in range(width)))
        engine.register_external_table("flat", schema, "/flat.csv", delimiter=delimiter)
        kept = [i for i in range(width) if kept_mask >> i & 1] or [0]
        scan = engine.plan("SELECT " + ", ".join(f"c{i}" for i in kept) + " FROM flat").child
        assert scan.columns == tuple(kept)

        for cut in range(len(raw) + 1):
            for start, end in ((0, cut), (cut, len(raw))):
                if start == end:
                    continue
                split = FileSplit("/flat.csv", start, end - start)
                expected = per_line_columns(dfs, split, delimiter, width, kept)
                with LineRecordReader(dfs, split) as reader:
                    raw = b"\n".join(reader.chunks())
                    if isinstance(expected, str):
                        with pytest.raises(RecordWidthError) as raised:
                            split_fields(raw, split, delimiter, width, kept)
                        assert str(raised.value) == expected
                    else:
                        assert split_fields(raw, split, delimiter, width, kept) == expected


class TestSplitAssignment:
    def test_locality_preferred(self):
        cluster = make_paper_cluster()
        nodes = cluster.workers
        splits = [
            FileSplit("/f", i * 10, 10, hosts=(nodes[i % 4].ip,)) for i in range(8)
        ]
        assignments = assign_splits(splits, nodes)
        for worker_id, assigned in enumerate(assignments):
            for split in assigned:
                assert nodes[worker_id].ip in split.hosts

    def test_balanced_when_no_locality(self):
        cluster = make_paper_cluster()
        splits = [FileSplit("/f", i * 10, 10) for i in range(9)]
        assignments = assign_splits(splits, cluster.workers)
        sizes = [len(a) for a in assignments]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 9

    def test_hotspot_spills_over(self):
        """All splits local to one node still spread across workers."""
        cluster = make_paper_cluster()
        hot = cluster.workers[0].ip
        splits = [FileSplit("/f", i * 10, 10, hosts=(hot,)) for i in range(8)]
        assignments = assign_splits(splits, cluster.workers)
        assert len(assignments[0]) == 2  # capped at ceil(8/4)
        assert sum(len(a) for a in assignments) == 8
