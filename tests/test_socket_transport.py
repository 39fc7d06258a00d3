"""The socket transport: the channel contract over a mux tag, e2e transfer."""

import pytest

from repro import make_deployment
from repro.common.errors import TransferError
from repro.sql.types import DataType, Schema
from repro.transfer.socket_channel import MuxSocketTransport
from tests.channel_contract import ChannelContract


class TestSocketChannelUnit(ChannelContract):
    """The channel contract over one tag of a mux socket pair."""

    @pytest.fixture(autouse=True)
    def _pipes(self, socket_pipe):
        self.make_pipe = socket_pipe


class TestSocketTransportEndToEnd:
    def test_pipeline_over_sockets_matches_memory_transport(self):
        from repro.workloads import generate_retail

        mem = make_deployment(block_size=64 * 1024, transport="memory")
        sock = make_deployment(block_size=64 * 1024, transport="socket")
        results = {}
        for name, deployment in (("memory", mem), ("socket", sock)):
            wl = generate_retail(
                deployment.engine, deployment.dfs, num_users=150, num_carts=1_500, seed=31
            )
            deployment.pipeline.byte_scale = wl.byte_scale
            result = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
            results[name] = sorted(
                (lp.label, tuple(lp.features))
                for lp in result.ml_result.dataset.collect()
            )
        assert results["memory"] == results["socket"]
        assert len(results["socket"]) > 0

    def test_socket_transport_trains_model(self):
        deployment = make_deployment(block_size=64 * 1024, transport="socket")
        engine = deployment.engine
        engine.create_table(
            "pts",
            Schema.of(("a", DataType.DOUBLE), ("b", DataType.DOUBLE), ("y", DataType.DOUBLE)),
            [(float(i % 5), float(i % 3), float(i % 2)) for i in range(400)],
        )
        deployment.coordinator.create_session(
            "socksvm",
            command="svm_with_sgd",
            args={"iterations": 3},
            conf_props={"record.format": "labeled_csv", "label.index": -1},
        )
        engine.query_rows(
            "SELECT * FROM TABLE(stream_transfer((SELECT a, b, y FROM pts), 'socksvm')) AS s"
        )
        result = deployment.coordinator.wait_result("socksvm")
        assert result.dataset.count() == 400
        assert result.model.weights.shape == (2,)

    def test_unknown_transport_rejected(self):
        from repro.cluster.cluster import make_paper_cluster
        from repro.transfer.coordinator import Coordinator

        with pytest.raises(TransferError, match="transport"):
            Coordinator(make_paper_cluster(), transport="carrier-pigeon")


def test_released_tags_leave_no_state_behind():
    """A transport outlives its sessions, so it holds state for live tags
    only: a released tag's queues and its EOF and closed marks go with it
    (they used to stay, and a serving process grew with every session),
    and frames of it still on the wire are dropped when they arrive."""
    transport = MuxSocketTransport(buffer_bytes=4096)
    try:
        live = transport.new_tag()
        for _ in range(50):
            tag = transport.new_tag()
            transport.send(tag, b"x" * 100)
            transport.close_tag(tag)
            assert transport.recv(tag, timeout=5) == b"x" * 100
            assert transport.recv(tag, timeout=5) is None
            transport.release_tag(tag)
        late = transport.new_tag()
        transport.send(late, b"late")
        transport.close_tag(late)
        transport.release_tag(late)  # its frame and EOF are still on the wire
        transport.send(live, b"live")
        assert transport.recv(live, timeout=5) == b"live"
        assert transport.recv(late, timeout=5) is None
        with pytest.raises(TransferError):
            transport.send(late, b"after release")
        assert set(transport._overflow) == set(transport._frames) == {live}
        assert not transport._eof and not transport._closed_tags
    finally:
        transport.close()
