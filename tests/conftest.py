"""Shared fixtures: clusters, file systems, engines, full deployments."""

import pytest
from hypothesis import settings

from repro import Deployment, make_deployment
from repro.cluster.cluster import make_paper_cluster
from repro.hdfs.filesystem import DistributedFileSystem
from repro.sql.engine import BigSQL
from repro.sql.types import DataType, Schema
from repro.transfer.socket_channel import MuxPipe, MuxSocketTransport

# CI runs ``--hypothesis-profile=ci``: examples derive from each test's source,
# so a property failure on a runner replays on any checkout of that commit.
settings.register_profile("ci", derandomize=True)


@pytest.fixture()
def cluster():
    """The paper topology: 1 head + 4 workers."""
    return make_paper_cluster()


@pytest.fixture()
def dfs(cluster):
    """A DFS with small blocks so files split even at test scale."""
    return DistributedFileSystem(cluster, block_size=1024, replication=3)


@pytest.fixture()
def engine(cluster, dfs):
    """A BigSQL engine attached to the DFS."""
    return BigSQL(cluster, dfs)


@pytest.fixture()
def users_carts(engine):
    """The paper's two tables, tiny and hand-checkable."""
    users_schema = Schema.of(
        ("userid", DataType.BIGINT),
        ("age", DataType.INT),
        ("gender", DataType.VARCHAR),
        ("country", DataType.VARCHAR),
    )
    carts_schema = Schema.of(
        ("cartid", DataType.BIGINT),
        ("userid", DataType.BIGINT),
        ("amount", DataType.DOUBLE),
        ("year", DataType.INT),
        ("abandoned", DataType.VARCHAR),
    )
    engine.create_table(
        "users",
        users_schema,
        [
            (1, 57, "F", "USA"),
            (2, 40, "M", "USA"),
            (3, 35, "F", "DE"),
            (4, 25, "M", "USA"),
            (5, 61, "F", "USA"),
        ],
    )
    engine.create_table(
        "carts",
        carts_schema,
        [
            (10, 1, 142.65, 2014, "Yes"),
            (11, 2, 299.99, 2013, "Yes"),
            (12, 3, 18.00, 2014, "No"),
            (13, 1, 7.50, 2014, "No"),
            (14, 4, 55.10, 2012, "No"),
            (15, 5, 120.00, 2014, "Yes"),
            (16, 5, 3.99, 2013, "No"),
        ],
    )
    return engine


@pytest.fixture()
def deployment() -> Deployment:
    """A fully wired deployment (engine + ML + coordinator + pipeline)."""
    return make_deployment(block_size=64 * 1024)


@pytest.fixture()
def socket_pipe():
    """Factory of socket byte pipes — ``socket_pipe(buffer_bytes, budget=None)``
    is one tag of a fresh mux transport, closed at teardown."""
    transports = []

    def make(buffer_bytes: int, budget=None) -> MuxPipe:
        transports.append(MuxSocketTransport(buffer_bytes=buffer_bytes))
        return MuxPipe(transports[-1], budget=budget)

    yield make
    for transport in transports:
        transport.close()
