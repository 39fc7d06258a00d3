"""Engine facade: DDL, UDF registration, materialized views, versions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import CatalogError
from repro.sql.engine import BigSQL
from repro.sql.types import DataType, Schema
from repro.sql.udf import TableUDF
from tests.byte_oracle import estimate_rows_bytes


class TestDdl:
    def test_create_table_partitions_across_workers(self, engine):
        table = engine.create_table(
            "t", Schema.of(("x", DataType.INT)), [(i,) for i in range(10)]
        )
        assert len(table.partitions) == engine.num_workers
        assert table.num_rows() == 10

    def test_duplicate_table_rejected(self, engine):
        engine.create_table("t", Schema.of(("x", DataType.INT)), [])
        with pytest.raises(CatalogError, match="already exists"):
            engine.create_table("T", Schema.of(("x", DataType.INT)), [])

    def test_drop_table(self, engine):
        engine.create_table("t", Schema.of(("x", DataType.INT)), [])
        engine.drop_table("t")
        with pytest.raises(CatalogError):
            engine.query_rows("SELECT * FROM t")

    def test_drop_missing_raises(self, engine):
        with pytest.raises(CatalogError):
            engine.drop_table("ghost")

    def test_insert_rows_and_version_bump(self, engine):
        engine.create_table("t", Schema.of(("x", DataType.INT)), [(1,)])
        assert engine.catalog.get_entry("t").version == 0
        engine.insert_rows("t", [(2,), (3,)])
        assert engine.catalog.get_entry("t").version == 1
        assert sorted(engine.query_rows("SELECT x FROM t")) == [(1,), (2,), (3,)]

    def test_insert_into_external_rejected(self, engine, dfs):
        dfs.write_text("/e.csv", "1\n")
        engine.register_external_table("e", Schema.of(("x", DataType.INT)), "/e.csv")
        with pytest.raises(CatalogError):
            engine.insert_rows("e", [(2,)])

    def test_external_table_without_dfs_rejected(self, cluster):
        from repro.sql.engine import BigSQL

        engine = BigSQL(cluster, dfs=None)
        with pytest.raises(CatalogError, match="DFS"):
            engine.register_external_table("e", Schema.of(("x", DataType.INT)), "/e")


EDGE_SCHEMA = Schema.of(
    ("i", DataType.INT), ("d", DataType.DOUBLE), ("s", DataType.VARCHAR), ("b", DataType.BOOLEAN)
)
#: per column: values its typed storage holds, and values it does not (2**70
#: and a bool in the INT column, an int in the VARCHAR column)
EDGE_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1), st.just(2**70), st.booleans()),
        st.one_of(st.none(), st.floats(), st.just(-0.0), st.integers(-(2**60), 2**60)),
        st.one_of(st.none(), st.text(max_size=4), st.integers(-3, 3)),
        st.one_of(st.none(), st.booleans()),
    ),
    max_size=9,
)


def _typed(row: tuple) -> str:
    """A row's values with their types (NaN equal to NaN, -0.0 apart from 0.0)."""
    return repr([(type(v).__name__, v) for v in row])


class TestRowEdges:
    """Rows enter a table at ``create_table`` / ``insert_rows`` and leave a
    query at ``query_rows``; between the two they are read-only batches."""

    @settings(max_examples=60, deadline=None)
    @given(first=EDGE_ROWS, inserts=st.lists(EDGE_ROWS, max_size=3))
    def test_rows_come_back_as_stored_and_every_scan_charges_them(self, first, inserts):
        engine = BigSQL(make_paper_cluster())
        engine.create_table("t", EDGE_SCHEMA, first)
        stored = list(first)
        ledger = engine.cluster.ledger
        for rows in [[]] + inserts:
            engine.insert_rows("t", rows)
            stored += rows
            before = ledger.get("sql.scan")
            got = engine.query_rows("SELECT * FROM t")
            assert ledger.get("sql.scan") - before == estimate_rows_bytes(stored)
        # an int in the DOUBLE column is stored as the float a scan returns
        expected = [(i, float(d) if type(d) is int else d, s, b) for i, d, s, b in stored]
        assert sorted(map(_typed, got)) == sorted(map(_typed, expected))
        for batch in engine.catalog.get_table("t").partitions:  # what every scan hands out
            for column in batch.columns:
                with pytest.raises(ValueError, match="read-only"):
                    column.data[...] = column.data
                with pytest.raises(ValueError, match="read-only"):
                    column.valid[...] = True


class TestScalarUdfs:
    def test_register_and_call(self, engine):
        engine.create_table("t", Schema.of(("x", DataType.INT)), [(3,), (4,)])
        engine.register_scalar_udf("square", lambda v: v * v, DataType.BIGINT)
        rows = engine.query_rows("SELECT square(x) FROM t ORDER BY x")
        assert rows == [(9,), (16,)]


class TestTableUdfs:
    class RepeatUDF(TableUDF):
        """Emits each row `times` times, tagged with the worker id."""

        name = "repeat_rows"

        def output_schema(self, input_schema, args):
            from repro.sql.types import Column

            return Schema(list(input_schema.columns) + [Column("worker", DataType.INT)])

        def process_partition(self, rows, input_schema, args, ctx):
            times = int(args[0])
            for row in rows:
                for _ in range(times):
                    yield row + (ctx.worker_id,)

    def test_invocation_and_context(self, engine):
        engine.create_table("t", Schema.of(("x", DataType.INT)), [(i,) for i in range(8)])
        engine.register_table_udf(self.RepeatUDF())
        rows = engine.query_rows("SELECT * FROM TABLE(repeat_rows(t, 2)) AS r")
        assert len(rows) == 16
        workers = {w for _x, w in rows}
        assert workers == set(range(engine.num_workers))  # parallel slots used

    def test_udf_over_subquery(self, engine):
        engine.create_table("t", Schema.of(("x", DataType.INT)), [(1,), (2,), (3,)])
        engine.register_table_udf(self.RepeatUDF())
        rows = engine.query_rows(
            "SELECT r.x FROM TABLE(repeat_rows((SELECT x FROM t WHERE x > 1), 1)) AS r"
        )
        assert sorted(rows) == [(2,), (3,)]

    def test_unknown_udf(self, engine):
        engine.create_table("t", Schema.of(("x", DataType.INT)), [])
        with pytest.raises(CatalogError, match="unknown table UDF"):
            engine.query_rows("SELECT * FROM TABLE(nosuch(t)) AS r")

    def test_duplicate_udf_rejected(self, engine):
        engine.register_table_udf(self.RepeatUDF())
        with pytest.raises(CatalogError, match="already registered"):
            engine.register_table_udf(self.RepeatUDF())

    def test_unnamed_udf_rejected(self, engine):
        class Anon(TableUDF):
            name = ""

            def output_schema(self, input_schema, args):
                return input_schema

            def process_partition(self, rows, input_schema, args, ctx):
                return rows

        with pytest.raises(CatalogError, match="name"):
            engine.register_table_udf(Anon())


class TestMaterializedViews:
    def test_create_and_query(self, users_carts):
        users_carts.create_materialized_view(
            "usa_users", "SELECT userid, age FROM users WHERE country = 'USA'"
        )
        rows = users_carts.query_rows("SELECT age FROM usa_users ORDER BY age")
        assert rows == [(25,), (40,), (57,), (61,)]

    def test_definition_recorded(self, users_carts):
        users_carts.create_materialized_view(
            "v", "SELECT age FROM users WHERE country = 'USA'"
        )
        entry = users_carts.catalog.get_entry("v")
        assert entry.definition is not None
        assert "USA" in entry.definition.to_sql()

    def test_view_joins_with_base_tables(self, users_carts):
        users_carts.create_materialized_view(
            "v", "SELECT userid FROM users WHERE gender = 'F'"
        )
        rows = users_carts.query_rows(
            "SELECT C.cartid FROM carts C, v WHERE C.userid = v.userid"
        )
        assert sorted(rows) == [(10,), (12,), (13,), (15,), (16,)]


class TestServices:
    def test_add_service_reaches_udf_context(self, engine):
        seen = []

        class ServiceProbe(TableUDF):
            name = "probe"

            def output_schema(self, input_schema, args):
                return input_schema

            def process_partition(self, rows, input_schema, args, ctx):
                seen.append(ctx.service("custom"))
                return rows

        sentinel = object()
        engine.add_service("custom", sentinel)
        engine.register_table_udf(ServiceProbe())
        engine.create_table("t", Schema.of(("x", DataType.INT)), [(1,)])
        engine.query_rows("SELECT * FROM TABLE(probe(t)) AS p")
        assert sentinel in seen

    def test_missing_service_error(self, engine):
        class Needy(TableUDF):
            name = "needy"

            def output_schema(self, input_schema, args):
                return input_schema

            def process_partition(self, rows, input_schema, args, ctx):
                ctx.service("absent")
                return rows

        engine.register_table_udf(Needy())
        engine.create_table("t", Schema.of(("x", DataType.INT)), [(1,)])
        with pytest.raises(Exception, match="absent"):
            engine.query_rows("SELECT * FROM TABLE(needy(t)) AS n")
