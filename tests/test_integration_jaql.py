"""The Jaql baseline: MapReduce-based recode + dummy-code over DFS text."""

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.hdfs.filesystem import DistributedFileSystem
from repro.integration.jaql import JaqlEngine
from repro.sql.types import DataType, Schema
from repro.transform.spec import TransformSpec

SCHEMA = Schema.of(
    ("age", DataType.INT),
    ("gender", DataType.VARCHAR),
    ("amount", DataType.DOUBLE),
    ("abandoned", DataType.VARCHAR),
)
SPEC = TransformSpec(recode=("gender", "abandoned"), dummy=("gender",), label="abandoned")


@pytest.fixture()
def jaql_env():
    cluster = make_paper_cluster()
    dfs = DistributedFileSystem(cluster, block_size=256)
    dfs.mkdirs("/in")
    dfs.write_text(
        "/in/part-0",
        "57,F,142.65,Yes\n40,M,299.99,Yes\n35,F,18.0,No\n",
    )
    return cluster, dfs


class TestJaqlTransform:
    def test_paper_figure1_transformation(self, jaql_env):
        cluster, dfs = jaql_env
        jaql = JaqlEngine(cluster, dfs)
        result = jaql.transform("/in", "/out", SCHEMA, SPEC)
        assert result.records == 3
        assert result.recode_map.mapping("gender") == {"F": 1, "M": 2}
        lines = []
        for path in dfs.list_files("/out"):
            lines.extend(dfs.read_text(path).splitlines())
        # age, gender_F, gender_M, amount, abandoned(recoded)
        assert sorted(lines) == sorted(
            ["57,1,0,142.65,2", "40,0,1,299.99,2", "35,1,0,18.0,1"]
        )

    def test_two_mapreduce_jobs_run(self, jaql_env):
        cluster, dfs = jaql_env
        before = cluster.ledger.snapshot()
        JaqlEngine(cluster, dfs).transform("/in", "/out", SCHEMA, SPEC)
        delta = cluster.ledger.delta(before, cluster.ledger.snapshot())
        input_bytes = dfs.total_size("/in")
        # Both jobs scan the input from the DFS: distinct pass + transform pass.
        assert delta["mr.read"] == 2 * input_bytes
        assert delta["mr.write"] > 0

    def test_recode_only_spec(self, jaql_env):
        cluster, dfs = jaql_env
        spec = TransformSpec(recode=("gender", "abandoned"), label="abandoned")
        JaqlEngine(cluster, dfs).transform("/in", "/out2", SCHEMA, spec)
        lines = []
        for path in dfs.list_files("/out2"):
            lines.extend(dfs.read_text(path).splitlines())
        assert sorted(lines) == sorted(
            ["57,1,142.65,2", "40,2,299.99,2", "35,1,18.0,1"]
        )

    def test_null_categorical_recoded_to_empty(self, jaql_env):
        cluster, dfs = jaql_env
        dfs.write_text("/in2/part-0", "20,,5.0,No\n")
        spec = TransformSpec(recode=("gender", "abandoned"), label="abandoned")
        JaqlEngine(cluster, dfs).transform("/in2", "/out3", SCHEMA, spec)
        lines = []
        for path in dfs.list_files("/out3"):
            lines.extend(dfs.read_text(path).splitlines())
        assert lines == ["20,,5.0,1"]

    def test_matches_insql_transformation(self, jaql_env, users_carts):
        """Jaql's output must agree with the In-SQL UDF path — the paper's
        Figure 3 compares them as equivalent computations."""
        cluster, dfs = jaql_env
        from repro.transform import (
            DummyCodeUDF,
            LocalDistinctUDF,
            RecodeMap,
            RecodeUDF,
            TransformService,
        )

        engine = users_carts
        transforms = TransformService()
        engine.register_table_udf(LocalDistinctUDF())
        engine.register_table_udf(RecodeUDF(transforms))
        engine.register_table_udf(DummyCodeUDF(transforms))
        prep = (
            "SELECT U.age, U.gender, C.amount, C.abandoned "
            "FROM carts C, users U WHERE C.userid = U.userid AND U.country = 'USA'"
        )
        # In-SQL path
        distinct = engine.query_rows(
            "SELECT DISTINCT colName, colVal FROM "
            f"TABLE(local_distinct(({prep}), 'gender', 'abandoned')) AS d"
        )
        transforms.register("m", RecodeMap.from_distinct_rows(distinct))
        insql_rows = engine.query_rows(
            "SELECT * FROM TABLE(dummy_code((SELECT * FROM TABLE(recode("
            f"({prep}), 'm', 'gender', 'abandoned')) AS r), 'm', 'gender')) AS d"
        )
        # Jaql path over the materialized prep result
        result_table = engine.execute_distributed(prep)
        lines = [
            ",".join(
                dt.render(v)
                for dt, v in zip([c.dtype for c in result_table.schema], row)
            )
            for row in result_table.all_rows()
        ]
        dfs.write_text("/prep/part-0", "\n".join(lines) + "\n")
        JaqlEngine(cluster, dfs).transform("/prep", "/jaqlout", result_table.schema, SPEC)
        jaql_rows = []
        out_schema_types = [
            DataType.INT, DataType.INT, DataType.INT, DataType.DOUBLE, DataType.INT
        ]
        for path in dfs.list_files("/jaqlout"):
            for line in dfs.read_text(path).splitlines():
                fields = line.split(",")
                jaql_rows.append(
                    tuple(t.parse(f) for t, f in zip(out_schema_types, fields))
                )
        assert sorted(jaql_rows) == sorted(insql_rows)
