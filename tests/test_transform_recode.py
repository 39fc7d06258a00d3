"""Recoding of categorical variables (§2.1): both implementations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import ExecutionError, TransformError
from repro.sql.engine import BigSQL
from repro.sql.types import DataType, Schema
from repro.transform.spec import TransformSpec
from repro.transform import (
    LocalDistinctUDF,
    RecodeMap,
    RecodeUDF,
    TransformService,
    recode_join_sql,
)


@pytest.fixture()
def transform_engine(users_carts):
    transforms = TransformService()
    users_carts.register_table_udf(LocalDistinctUDF())
    users_carts.register_table_udf(RecodeUDF(transforms))
    return users_carts, transforms


PREP = (
    "SELECT U.age, U.gender, C.amount, C.abandoned "
    "FROM carts C, users U WHERE C.userid = U.userid AND U.country = 'USA'"
)


class TestRecodeMap:
    def test_paper_figure1_example(self):
        """Figure 1(b): F->1 M->2, No->1 Yes->2 (sorted, consecutive from 1)."""
        rows = [("gender", "F"), ("gender", "M"), ("abandoned", "Yes"), ("abandoned", "No")]
        recode_map = RecodeMap.from_distinct_rows(rows)
        assert recode_map.mapping("gender") == {"F": 1, "M": 2}
        assert recode_map.mapping("abandoned") == {"No": 1, "Yes": 2}
        assert recode_map.cardinality("gender") == 2

    def test_nulls_skipped(self):
        recode_map = RecodeMap.from_distinct_rows([("c", "x"), ("c", None)])
        assert recode_map.mapping("c") == {"x": 1}

    def test_code_lookup(self):
        recode_map = RecodeMap.from_distinct_rows([("c", "b"), ("c", "a")])
        assert recode_map.code("c", "a") == 1
        assert recode_map.code("c", "b") == 2
        assert recode_map.code("c", None) is None
        assert recode_map.code("c", "unseen") is None

    def test_values_in_code_order(self):
        recode_map = RecodeMap.from_distinct_rows([("c", "z"), ("c", "a"), ("c", "m")])
        assert recode_map.values_in_code_order("c") == ["a", "m", "z"]

    def test_as_table_rows_roundtrip(self):
        recode_map = RecodeMap.from_distinct_rows([("g", "F"), ("g", "M"), ("l", "x")])
        rows = recode_map.as_table_rows()
        assert ("g", "F", 1) in rows and ("g", "M", 2) in rows and ("l", "x", 1) in rows

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.text(alphabet="abcdefg", min_size=1, max_size=3), min_size=1, max_size=30
        )
    )
    def test_codes_consecutive_from_one(self, values):
        """Invariant the paper requires (SystemML-style consumers): codes
        are exactly 1..K for K distinct values."""
        recode_map = RecodeMap.from_distinct_rows([("c", v) for v in values])
        mapping = recode_map.mapping("c")
        assert sorted(mapping.values()) == list(range(1, len(set(values)) + 1))


class TestLocalDistinctUDF:
    def test_one_scan_covers_all_columns(self, transform_engine):
        engine, _ = transform_engine
        rows = engine.query_rows(
            "SELECT DISTINCT colName, colVal FROM "
            f"TABLE(local_distinct(({PREP}), 'gender', 'abandoned')) AS d"
        )
        assert sorted(rows) == [
            ("abandoned", "No"),
            ("abandoned", "Yes"),
            ("gender", "F"),
            ("gender", "M"),
        ]

    def test_unknown_column_fails_at_planning(self, transform_engine):
        engine, _ = transform_engine
        with pytest.raises(Exception, match="unknown column"):
            engine.query_rows(
                "SELECT * FROM TABLE(local_distinct(users, 'ghost')) AS d"
            )

    def test_needs_columns(self, transform_engine):
        engine, _ = transform_engine
        with pytest.raises(ExecutionError):
            engine.query_rows("SELECT * FROM TABLE(local_distinct(users)) AS d")

    def test_nulls_not_emitted(self, engine):
        engine.register_table_udf(LocalDistinctUDF())
        engine.create_table(
            "withnull", Schema.of(("c", DataType.VARCHAR)), [("x",), (None,), ("y",)]
        )
        rows = engine.query_rows(
            "SELECT DISTINCT colName, colVal FROM "
            "TABLE(local_distinct(withnull, 'c')) AS d"
        )
        assert sorted(rows) == [("c", "x"), ("c", "y")]


class TestRecodeUDF:
    def test_recode_matches_figure1(self, transform_engine):
        engine, transforms = transform_engine
        distinct = engine.query_rows(
            "SELECT DISTINCT colName, colVal FROM "
            f"TABLE(local_distinct(({PREP}), 'gender', 'abandoned')) AS d"
        )
        transforms.register("m", RecodeMap.from_distinct_rows(distinct))
        rows = engine.query_rows(
            f"SELECT * FROM TABLE(recode(({PREP}), 'm', 'gender', 'abandoned')) AS r"
        )
        # F->1 M->2; No->1 Yes->2
        assert (57, 1, 142.65, 2) in rows
        assert (40, 2, 299.99, 2) in rows
        assert (25, 2, 55.10, 1) in rows
        assert all(isinstance(r[1], int) and isinstance(r[3], int) for r in rows)

    def test_output_schema_types(self, transform_engine):
        engine, transforms = transform_engine
        transforms.register(
            "m", RecodeMap.from_distinct_rows([("gender", "F"), ("gender", "M")])
        )
        plan = engine.plan("SELECT * FROM TABLE(recode(users, 'm', 'gender')) AS r")
        types = {c.name: c.dtype for c in plan.schema}
        assert types["gender"] is DataType.INT
        assert types["age"] is DataType.INT
        assert types["country"] is DataType.VARCHAR

    def test_unseen_value_becomes_null(self, engine):
        transforms = TransformService()
        engine.register_table_udf(RecodeUDF(transforms))
        transforms.register("m", RecodeMap.from_distinct_rows([("c", "x")]))
        engine.create_table("t", Schema.of(("c", DataType.VARCHAR)), [("x",), ("zzz",), (None,)])
        rows = engine.query_rows("SELECT * FROM TABLE(recode(t, 'm', 'c')) AS r")
        assert sorted(rows, key=str) == [(1,), (None,), (None,)]

    def test_unknown_handle(self, transform_engine):
        engine, _ = transform_engine
        with pytest.raises(ExecutionError, match="unknown recode map"):
            engine.query_rows("SELECT * FROM TABLE(recode(users, 'ghost', 'gender')) AS r")


class TestJoinFormulation:
    def test_join_sql_matches_paper_text(self):
        sql = recode_join_sql(
            "T", "M", ["gender", "abandoned"], ["age", "gender", "amount", "abandoned"]
        )
        assert "M0.recodeVal AS gender" in sql
        assert "M1.recodeVal AS abandoned" in sql
        assert "M0.colName = 'gender'" in sql
        assert "T.gender = M0.colVal" in sql

    def test_join_path_equals_udf_path(self, transform_engine):
        """§2.1's join-based recode and the broadcast-map UDF agree."""
        engine, transforms = transform_engine
        distinct = engine.query_rows(
            "SELECT DISTINCT colName, colVal FROM "
            f"TABLE(local_distinct(({PREP}), 'gender', 'abandoned')) AS d"
        )
        recode_map = RecodeMap.from_distinct_rows(distinct)
        transforms.register("m", recode_map)

        udf_rows = engine.query_rows(
            f"SELECT * FROM TABLE(recode(({PREP}), 'm', 'gender', 'abandoned')) AS r"
        )

        engine.create_materialized_view("T", PREP)
        map_schema = Schema.of(
            ("colName", DataType.VARCHAR),
            ("colVal", DataType.VARCHAR),
            ("recodeVal", DataType.INT),
        )
        engine.create_table("M", map_schema, recode_map.as_table_rows())
        join_rows = engine.query_rows(
            recode_join_sql("T", "M", ["gender", "abandoned"],
                            ["age", "gender", "amount", "abandoned"])
        )
        assert sorted(udf_rows) == sorted(join_rows)


class TestDistributedVsCentralized:
    @settings(max_examples=20, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "e"]),
                st.sampled_from(["X", "Y", "Z"]),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_two_phase_equals_single_pass(self, data):
        """The distributed two-phase recoding produces the same map as the
        centralized one-pass algorithm the paper describes for comparison
        (up to the deterministic code assignment)."""
        cluster = make_paper_cluster()
        engine = BigSQL(cluster)
        transforms = TransformService()
        engine.register_table_udf(LocalDistinctUDF())
        engine.create_table(
            "t", Schema.of(("u", DataType.VARCHAR), ("v", DataType.VARCHAR)), data
        )
        distinct = engine.query_rows(
            "SELECT DISTINCT colName, colVal FROM TABLE(local_distinct(t, 'u', 'v')) AS d"
        )
        two_phase = RecodeMap.from_distinct_rows(distinct)
        centralized = RecodeMap.from_distinct_rows(
            [("u", u) for u, _v in data] + [("v", v) for _u, v in data]
        )
        assert two_phase == centralized


class TestOnUnseenPolicy:
    """Dirty-data hardening: the ``on_unseen`` policy of the recode UDF."""

    @pytest.fixture()
    def dirty_engine(self, engine):
        transforms = TransformService()
        engine.register_table_udf(RecodeUDF(transforms))
        transforms.register("m", RecodeMap.from_distinct_rows([("c", "x")]))
        engine.create_table(
            "t",
            Schema.of(("c", DataType.VARCHAR), ("v", DataType.INT)),
            [("x", 1), ("zzz", 2), (None, 3), ("www", 4)],
        )
        return engine

    def test_null_policy_is_default_and_counted(self, dirty_engine):
        rows = dirty_engine.query_rows("SELECT * FROM TABLE(recode(t, 'm', 'c')) AS r")
        assert sorted(rows, key=str) == [(1, 1), (None, 2), (None, 3), (None, 4)]
        # Two unseen values nulled; the pre-existing NULL is not "unseen".
        assert dirty_engine.cluster.ledger.get("transform.unseen_nulled") == 2
        assert dirty_engine.cluster.ledger.get("transform.rows_skipped") == 0

    def test_skip_row_policy_drops_and_counts(self, dirty_engine):
        rows = dirty_engine.query_rows(
            "SELECT * FROM TABLE(recode(t, 'm', 'on_unseen=skip_row', 'c')) AS r"
        )
        assert sorted(rows, key=str) == [(1, 1), (None, 3)]
        assert dirty_engine.cluster.ledger.get("transform.rows_skipped") == 2
        assert dirty_engine.cluster.ledger.get("transform.unseen_nulled") == 0

    def test_error_policy_raises_typed_error(self, dirty_engine):
        with pytest.raises(TransformError, match="unseen value 'zzz'") as excinfo:
            dirty_engine.query_rows(
                "SELECT * FROM TABLE(recode(t, 'm', 'on_unseen=error', 'c')) AS r"
            )
        assert excinfo.value.column == "c"
        assert excinfo.value.value == "zzz"

    def test_invalid_policy_rejected(self, dirty_engine):
        with pytest.raises(ExecutionError, match="on_unseen"):
            dirty_engine.query_rows(
                "SELECT * FROM TABLE(recode(t, 'm', 'on_unseen=bogus', 'c')) AS r"
            )

    def test_spec_validates_and_fingerprints_policy(self):
        with pytest.raises(ValueError, match="on_unseen"):
            TransformSpec(recode=("c",), on_unseen="bogus")
        base = TransformSpec(recode=("c",))
        skipping = TransformSpec(recode=("c",), on_unseen="skip_row")
        assert base.on_unseen == "null"
        assert base.fingerprint() != skipping.fingerprint()
