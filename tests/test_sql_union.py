"""UNION ALL support."""

import pytest

from repro.common.errors import PlanError
from repro.sql.ast import SelectQuery, UnionAll
from repro.sql.parser import parse
from repro.sql.types import DataType, Schema


@pytest.fixture()
def union_engine(engine):
    engine.create_table(
        "a", Schema.of(("x", DataType.INT), ("s", DataType.VARCHAR)),
        [(1, "a1"), (2, "a2")],
    )
    engine.create_table(
        "b", Schema.of(("y", DataType.INT), ("t", DataType.VARCHAR)),
        [(2, "b2"), (3, "b3")],
    )
    return engine


class TestParsing:
    def test_two_branches(self):
        query = parse("SELECT x FROM a UNION ALL SELECT y FROM b")
        assert isinstance(query, UnionAll)
        assert len(query.branches) == 2
        assert all(isinstance(b, SelectQuery) for b in query.branches)

    def test_single_select_stays_plain(self):
        assert isinstance(parse("SELECT x FROM a"), SelectQuery)

    def test_to_sql_roundtrip(self):
        sql = "SELECT x FROM a UNION ALL SELECT y FROM b UNION ALL SELECT x FROM a"
        query = parse(sql)
        assert parse(query.to_sql()) == query


class TestExecution:
    def test_bag_semantics(self, union_engine):
        rows = union_engine.query_rows(
            "SELECT x FROM a UNION ALL SELECT y FROM b"
        )
        assert sorted(rows) == [(1,), (2,), (2,), (3,)]  # duplicates kept

    def test_schema_from_first_branch(self, union_engine):
        relation = union_engine.execute_distributed(
            "SELECT x, s FROM a UNION ALL SELECT y, t FROM b"
        )
        assert relation.schema.names == ["x", "s"]

    def test_branches_with_filters_and_expressions(self, union_engine):
        rows = union_engine.query_rows(
            "SELECT x * 10 AS v FROM a WHERE x = 1 "
            "UNION ALL SELECT y * 100 AS v FROM b WHERE y = 3"
        )
        assert sorted(rows) == [(10,), (300,)]

    def test_union_feeds_distinct_via_view(self, union_engine):
        union_engine.create_materialized_view(
            "both", "SELECT x FROM a UNION ALL SELECT y FROM b"
        )
        rows = union_engine.query_rows("SELECT DISTINCT x FROM both ORDER BY x")
        assert rows == [(1,), (2,), (3,)]

    def test_arity_mismatch_rejected(self, union_engine):
        with pytest.raises(PlanError, match="columns"):
            union_engine.query_rows("SELECT x, s FROM a UNION ALL SELECT y FROM b")

    def test_type_mismatch_rejected(self, union_engine):
        with pytest.raises(PlanError, match="type mismatch"):
            union_engine.query_rows("SELECT x FROM a UNION ALL SELECT t FROM b")

    def test_explain(self, union_engine):
        text = union_engine.explain("SELECT x FROM a UNION ALL SELECT y FROM b")
        assert "UnionAll(2 branches)" in text
