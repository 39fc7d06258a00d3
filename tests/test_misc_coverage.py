"""Coverage for remaining public surfaces: reader positions, error
hierarchy, broker-UDF validation, table helpers."""

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.common import errors
from repro.common.errors import TransferError
from repro.hdfs.filesystem import DistributedFileSystem
from repro.columnar.batch import ColumnBatch
from repro.sql.table import ExternalLocation, Table
from repro.sql.types import DataType, Schema


class TestErrorHierarchy:
    def test_all_subclass_repro_error(self):
        for name in (
            "ParseError",
            "PlanError",
            "CatalogError",
            "ExecutionError",
            "HdfsError",
            "TransferError",
            "MLError",
            "CacheError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_parse_error_position(self):
        error = errors.ParseError("bad token", position=17)
        assert "17" in str(error)
        assert error.position == 17

    def test_dfs_errors_are_hdfs_errors(self):
        assert issubclass(errors.FileNotFoundInDfs, errors.HdfsError)
        assert issubclass(errors.FileAlreadyExists, errors.HdfsError)
        assert issubclass(errors.BlockError, errors.HdfsError)


class TestDfsReaderPosition:
    def test_position_tracks_reads_and_seeks(self):
        cluster = make_paper_cluster()
        dfs = DistributedFileSystem(cluster, block_size=16)
        dfs.write_bytes("/p", bytes(range(64)))
        with dfs.open("/p") as reader:
            assert reader.position() == 0
            reader.read(10)
            assert reader.position() == 10
            reader.read(20)  # crosses block boundaries
            assert reader.position() == 30
            reader.seek(50)
            assert reader.position() == 50
            reader.read()
            assert reader.position() == 64


class TestTableHelpers:
    def test_partition_rows_round_robin(self, engine):
        """``create_table`` deals row ``i`` to slot ``i % n``."""
        table = engine.create_table("t", Schema.of(("x", DataType.INT)), [(i,) for i in range(10)])
        assert engine.num_workers == 4
        assert [p.columns[0].to_pylist() for p in table.partitions] == [
            [0, 4, 8], [1, 5, 9], [2, 6], [3, 7]
        ]

    def test_table_must_be_memory_xor_external(self):
        schema = Schema.of(("x", DataType.INT))
        with pytest.raises(Exception, match="either"):
            Table("t", schema)
        with pytest.raises(Exception, match="either"):
            Table(
                "t",
                schema,
                partitions=[],
                external=ExternalLocation("/p"),
            )

    def test_external_table_refuses_memory_operations(self):
        table = Table("t", Schema.of(("x", DataType.INT)), external=ExternalLocation("/p"))
        assert table.is_external
        with pytest.raises(Exception):
            table.num_rows()
        with pytest.raises(Exception):
            table.estimated_bytes()

    def test_partition_estimated_bytes(self):
        schema = Schema.of(("x", DataType.INT), ("s", DataType.VARCHAR))
        partition = ColumnBatch.from_rows(schema, [(1, "ab"), (2, "cd")])
        assert Table("t", schema, partitions=[partition]).estimated_bytes() == 2 * (2 + 8 + 6)


class TestBrokerUdfValidation:
    def test_needs_topic(self, deployment):
        engine = deployment.engine
        engine.create_table("t", Schema.of(("x", DataType.INT)), [(1,)])
        with pytest.raises(TransferError, match="topic"):
            engine.query_rows("SELECT * FROM TABLE(broker_transfer(t)) AS b")

    def test_too_few_partitions_rejected(self, deployment):
        engine = deployment.engine
        engine.create_table("t", Schema.of(("x", DataType.INT)), [(1,)])
        deployment.broker.create_topic("narrow", 2)  # < 4 SQL workers
        with pytest.raises(TransferError, match="at least one each"):
            engine.query_rows(
                "SELECT * FROM TABLE(broker_transfer(t, 'narrow')) AS b"
            )

    def test_stream_udf_needs_session_arg(self, deployment):
        engine = deployment.engine
        engine.create_table("t2", Schema.of(("x", DataType.INT)), [(1,)])
        with pytest.raises(TransferError, match="session"):
            engine.query_rows("SELECT * FROM TABLE(stream_transfer(t2)) AS s")

    def test_ml_args_parsing(self):
        from repro.transfer.stream_udf import parse_ml_args

        assert parse_ml_args("iterations=10, step=0.5") == {
            "iterations": "10",
            "step": "0.5",
        }
        assert parse_ml_args("") == {}
        with pytest.raises(TransferError, match="key=value"):
            parse_ml_args("oops")
