"""Cluster topology and cost-ledger behaviour."""

import threading

import pytest

from repro.cluster.cluster import Cluster, make_paper_cluster
from repro.cluster.cost import CostLedger, CostModel, paper_cost_model
from repro.cluster.node import Node


class TestTopology:
    def test_paper_cluster_shape(self):
        cluster = make_paper_cluster()
        assert len(cluster) == 5
        assert cluster.head.hostname == "head"
        assert len(cluster.workers) == 4
        assert all(n.cores == 12 for n in cluster.nodes)
        assert all(len(n.disks) == 12 for n in cluster.nodes)

    def test_unique_ips(self):
        cluster = make_paper_cluster(8)
        ips = [n.ip for n in cluster.nodes]
        assert len(set(ips)) == len(ips)

    def test_locality(self):
        cluster = make_paper_cluster()
        a, b = cluster.workers[0], cluster.workers[1]
        assert cluster.is_local(a.ip, a.ip)
        assert not cluster.is_local(a.ip, b.ip)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_duplicate_ids_rejected(self):
        nodes = [Node(1, "a", "10.0.0.1"), Node(1, "b", "10.0.0.2")]
        with pytest.raises(ValueError):
            Cluster(nodes)

    def test_duplicate_ips_rejected(self):
        nodes = [Node(1, "a", "10.0.0.1"), Node(2, "b", "10.0.0.1")]
        with pytest.raises(ValueError):
            Cluster(nodes)


class TestCostLedger:
    def test_add_and_get(self):
        ledger = CostLedger()
        ledger.add("dfs.read", 100)
        ledger.add("dfs.read", 50)
        assert ledger.get("dfs.read") == 150
        assert ledger.get("never.seen") == 0

    def test_negative_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.add("x", -1)

    def test_snapshot_and_delta(self):
        ledger = CostLedger()
        ledger.add("a", 10)
        before = ledger.snapshot()
        ledger.add("a", 5)
        ledger.add("b", 7)
        delta = CostLedger.delta(before, ledger.snapshot())
        assert delta == {"a": 5, "b": 7}

    def test_reset(self):
        ledger = CostLedger()
        ledger.add("a", 10)
        ledger.reset()
        assert ledger.get("a") == 0

    def test_thread_safety(self):
        ledger = CostLedger()

        def worker():
            for _ in range(10_000):
                ledger.add("hits", 1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.get("hits") == 80_000


class TestCostModel:
    def test_paper_ml_ingest_calibration(self):
        """The one absolute number the paper gives: 5.6 GB from HDFS ~ 46 s."""
        cost = paper_cost_model()
        assert 40.0 <= cost.ml_hdfs_ingest_time(5.6e9) <= 52.0

    def test_scan_time_linear(self):
        cost = paper_cost_model()
        assert cost.sql_scan_time(2e9) == pytest.approx(2 * cost.sql_scan_time(1e9))

    def test_distinct_pass_faster_than_scan(self):
        cost = paper_cost_model()
        assert cost.distinct_pass_time(1e9) < cost.sql_scan_time(1e9)

    def test_mr_pass_includes_startup(self):
        cost = paper_cost_model()
        assert cost.mr_pass_time(0, 0) == cost.mr_job_startup_s

    def test_stream_ingest_beats_hdfs_ingest(self):
        """Pre-parsed streamed rows ingest faster than text from the DFS —
        the mechanism behind the paper's 43 s saving."""
        cost = paper_cost_model()
        nbytes = 5.6e9
        assert cost.ml_stream_ingest_time(nbytes) < cost.ml_hdfs_ingest_time(nbytes)

    def test_custom_model_overrides(self):
        cost = CostModel(sql_scan_bps=1e9)
        assert cost.sql_scan_time(1e9) == 1.0
