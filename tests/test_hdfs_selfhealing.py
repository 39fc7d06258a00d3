"""Self-healing storage plane: checksums, failover, repair, ENOSPC ladders."""

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.cluster.cost import CostLedger
from repro.common.errors import (
    BlockCorruptError,
    BlockError,
    CheckpointError,
    HdfsError,
    StorageFullError,
)
from repro.checkpoint.store import CheckpointStore, encode_checkpoint
from repro.faults.injector import FaultConfig, FaultInjector
from repro.hdfs.filesystem import DistributedFileSystem
from repro.hdfs.namenode import NameNode
from repro.transfer.buffers import SpillableBuffer

HEAD_IP = "10.0.0.1"  # the head node hosts no DataNode: all reads remote


class FakeClock:
    """Minimal now()-only clock for heartbeat/TTL tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def now(self) -> float:
        return self.t


def make_dfs(num_workers: int = 4, **kwargs) -> DistributedFileSystem:
    cluster = make_paper_cluster(num_workers)
    kwargs.setdefault("block_size", 64)
    kwargs.setdefault("replication", 3)
    return DistributedFileSystem(cluster, **kwargs)


# --------------------------------------------------------------- checksums


class TestChecksummedReads:
    def test_corrupt_replica_detected_and_failed_over(self):
        dfs = make_dfs()
        payload = bytes(range(256))
        client = dfs.cluster.workers[0].ip
        dfs.write_bytes("/f", payload, client_ip=client)
        # Rot the client-local replica of every block: the preferred copy.
        for loc in dfs.block_locations("/f"):
            dfs.datanodes[client].corrupt_replica(loc.block_id)
        before = dfs.ledger.snapshot()
        assert dfs.read_bytes("/f", client_ip=client) == payload
        delta = dfs.ledger.delta(before, dfs.ledger.snapshot())
        assert delta.get("dfs.read.failover", 0) >= 1
        assert dfs.namenode.bad_replica_reports >= 1

    def test_bad_replica_dropped_from_block_map(self):
        dfs = make_dfs()
        dfs.write_bytes("/f", b"x" * 64)
        loc = dfs.block_locations("/f")[0]
        victim = loc.hosts[0]
        dfs.datanodes[victim].corrupt_replica(loc.block_id)
        dfs.read_bytes("/f")
        assert victim not in dfs.namenode.block_replicas(loc.block_id)

    def test_all_replicas_corrupt_raises_typed(self):
        dfs = make_dfs()
        dfs.write_bytes("/f", b"y" * 64)
        loc = dfs.block_locations("/f")[0]
        for host in loc.hosts:
            dfs.datanodes[host].corrupt_replica(loc.block_id)
        with pytest.raises(BlockError):
            dfs.read_bytes("/f")

    def test_datanode_down_failover_and_report(self):
        dfs = make_dfs()
        payload = b"z" * 200
        client = dfs.cluster.workers[1].ip
        dfs.write_bytes("/f", payload, client_ip=client)
        dfs.datanodes[client].stop()
        assert dfs.read_bytes("/f", client_ip=client) == payload
        assert not dfs.namenode.is_live(client)
        assert dfs.namenode.dead_datanode_reports >= 1

    def test_direct_read_of_corrupt_replica_is_typed(self):
        dfs = make_dfs()
        dfs.write_bytes("/f", b"q" * 64)
        loc = dfs.block_locations("/f")[0]
        dfs.datanodes[loc.hosts[0]].corrupt_replica(loc.block_id)
        with pytest.raises(BlockCorruptError):
            dfs.datanodes[loc.hosts[0]].read_block(loc.block_id)


# ---------------------------------------------------- read rotation (satellite)


class TestReadRotation:
    def test_remote_net_bytes_invariant_under_rotation_seed(self):
        """Rotation spreads replica choice but never changes the byte bill."""
        totals = []
        for seed in (7, 8, 99):
            dfs = make_dfs(seed=seed)
            dfs.write_bytes("/f", b"r" * 1000, client_ip=dfs.cluster.workers[0].ip)
            before = dfs.ledger.snapshot()
            dfs.read_bytes("/f", client_ip=HEAD_IP)  # head: every block remote
            delta = dfs.ledger.delta(before, dfs.ledger.snapshot())
            totals.append((delta["dfs.read"], delta["dfs.read.remote_net"]))
        assert len(set(totals)) == 1
        assert totals[0] == (1000, 1000)

    def test_rotation_spreads_nonlocal_reads(self):
        dfs = make_dfs()
        dfs.write_bytes("/f", b"s" * 1000)  # ~16 blocks
        with dfs.open("/f", client_ip=HEAD_IP) as reader:
            first_choices = {
                reader._replica_order(loc)[0] for loc in dfs.block_locations("/f")
            }
        assert len(first_choices) > 1, "every non-local read hit one replica"

    def test_rotation_is_deterministic(self):
        orders = []
        for _ in range(2):
            dfs = make_dfs(seed=7)
            dfs.write_bytes("/f", b"d" * 1000)
            with dfs.open("/f", client_ip=HEAD_IP) as reader:
                orders.append(
                    [reader._replica_order(loc) for loc in dfs.block_locations("/f")]
                )
        assert orders[0] == orders[1]

    def test_local_replica_still_preferred(self):
        dfs = make_dfs()
        client = dfs.cluster.workers[2].ip
        dfs.write_bytes("/f", b"l" * 64, client_ip=client)
        before = dfs.ledger.snapshot()
        dfs.read_bytes("/f", client_ip=client)
        delta = dfs.ledger.delta(before, dfs.ledger.snapshot())
        assert delta.get("dfs.read.remote_net", 0) == 0


# --------------------------------------------------- writer abort (satellite)


class TestWriterAbort:
    def test_exception_in_context_cleans_up(self):
        dfs = make_dfs()
        used_before = sum(d.used_bytes() for d in dfs.datanodes.values())
        with pytest.raises(RuntimeError):
            with dfs.create("/partial") as writer:
                writer.write(b"x" * 500)
                raise RuntimeError("mid-write crash")
        assert not dfs.exists("/partial")
        assert sum(d.used_bytes() for d in dfs.datanodes.values()) == used_before
        # The path is reusable after the abort.
        dfs.write_bytes("/partial", b"ok")
        assert dfs.read_bytes("/partial") == b"ok"

    def test_explicit_abort_is_idempotent(self):
        dfs = make_dfs()
        writer = dfs.create("/a")
        writer.write(b"x" * 200)
        writer.abort()
        writer.abort()
        assert not dfs.exists("/a")

    def test_close_after_abort_raises(self):
        dfs = make_dfs()
        writer = dfs.create("/a")
        writer.write(b"x")
        writer.abort()
        with pytest.raises(HdfsError):
            writer.close()


# ----------------------------------------------- idempotent writes (satellite)


class TestIdempotentWriteBlock:
    def test_identical_rewrite_is_noop(self):
        dfs = make_dfs()
        dn = next(iter(dfs.datanodes.values()))
        dn.write_block("b1", b"same")
        dn.write_block("b1", b"same")
        assert dn.used_bytes() == 4
        assert dn.block_count() == 1

    def test_divergent_rewrite_raises(self):
        dfs = make_dfs()
        dn = next(iter(dfs.datanodes.values()))
        dn.write_block("b1", b"one")
        with pytest.raises(BlockError):
            dn.write_block("b1", b"two")

    def test_rewrite_idempotent_even_after_rot(self):
        """Idempotency keys on the recorded checksum, so a rotted stored
        copy still accepts the same logical content as a no-op."""
        dfs = make_dfs()
        dn = next(iter(dfs.datanodes.values()))
        dn.write_block("b1", b"payload!")
        dn.corrupt_replica("b1")
        dn.write_block("b1", b"payload!")  # must not raise


# ------------------------------------------------------- liveness + heartbeats


class TestLiveness:
    def test_heartbeat_ttl_expiry_and_revival(self):
        nn = NameNode(["10.0.0.2", "10.0.0.3"], heartbeat_ttl_s=10.0)
        nn.heartbeat("10.0.0.2", 0.0)
        assert nn.expire_heartbeats(5.0) == []
        assert nn.expire_heartbeats(11.0) == ["10.0.0.2"]
        assert not nn.is_live("10.0.0.2")
        nn.heartbeat("10.0.0.2", 12.0)
        assert nn.is_live("10.0.0.2")

    def test_silent_node_stays_live(self):
        """Deployments that never pump heartbeats must keep working."""
        nn = NameNode(["10.0.0.2"], heartbeat_ttl_s=1.0)
        assert nn.expire_heartbeats(1e9) == []
        assert nn.is_live("10.0.0.2")

    def test_scanner_pump_sweeps_stopped_node(self):
        clock = FakeClock()
        dfs = make_dfs(clock=clock, heartbeat_ttl_s=10.0)
        dfs.write_bytes("/f", b"x" * 200)
        dfs.run_repair_cycle()  # everyone heartbeats at t=0
        victim = dfs.cluster.workers[0].ip
        dfs.datanodes[victim].stop()
        clock.t = 20.0
        report = dfs.run_repair_cycle()
        assert victim in report.expired_datanodes
        assert not dfs.namenode.is_live(victim)

    def test_node_dead_before_first_heartbeat_is_swept(self):
        """A node that dies before ever heartbeating must not stay live
        forever: the first pump seeds its TTL baseline, so it expires one
        TTL after first observation."""
        clock = FakeClock()
        dfs = make_dfs(clock=clock, heartbeat_ttl_s=10.0)
        dfs.write_bytes("/f", b"x" * 200)
        victim = dfs.cluster.workers[0].ip
        dfs.datanodes[victim].stop()  # down before any repair cycle ran
        report = dfs.run_repair_cycle()  # t=0: baseline only, not yet dead
        assert victim not in report.expired_datanodes
        clock.t = 11.0
        report = dfs.run_repair_cycle()
        assert victim in report.expired_datanodes
        assert not dfs.namenode.is_live(victim)
        assert dfs.fsck().summary()["healthy"]


# --------------------------------------------------------- scrub + re-replicate


class TestScannerRepair:
    def test_scrub_repairs_corrupt_replica(self):
        dfs = make_dfs()
        payload = bytes(range(200))
        dfs.write_bytes("/f", payload)
        loc = dfs.block_locations("/f")[0]
        dfs.datanodes[loc.hosts[0]].corrupt_replica(loc.block_id)
        before = dfs.ledger.snapshot()
        report = dfs.repair_until_stable()
        assert report.corrupt_replicas == 1
        assert report.repaired_blocks >= 1
        assert dfs.fsck().healthy
        assert dfs.read_bytes("/f") == payload
        delta = dfs.ledger.delta(before, dfs.ledger.snapshot())
        assert delta.get("dfs.scan.corrupt") == 1
        assert delta.get("dfs.repair.blocks", 0) >= 1

    def test_dead_node_re_replicated(self):
        clock = FakeClock()
        dfs = make_dfs(clock=clock, heartbeat_ttl_s=5.0)
        payload = b"k" * 500
        dfs.write_bytes("/f", payload)
        dfs.run_repair_cycle()
        victim = dfs.cluster.workers[1].ip
        dfs.datanodes[victim].stop()
        clock.t = 10.0
        report = dfs.repair_until_stable()
        assert report.healthy
        fsck = dfs.fsck()
        assert fsck.healthy
        # Every block now has 3 healthy replicas on *live* nodes.
        for loc in dfs.block_locations("/f"):
            live = [h for h in loc.hosts if dfs.namenode.is_live(h)]
            assert len(live) >= 3
        assert dfs.read_bytes("/f") == payload

    def test_unrecoverable_block_reported_not_hidden(self):
        dfs = make_dfs()
        dfs.write_bytes("/f", b"u" * 64)
        loc = dfs.block_locations("/f")[0]
        for host in loc.hosts:
            dfs.datanodes[host].corrupt_replica(loc.block_id)
        report = dfs.repair_until_stable()
        assert loc.block_id in report.unrecoverable_blocks
        assert loc.block_id in dfs.fsck().missing_blocks

    def test_decommission_drains_node(self):
        dfs = make_dfs()
        dfs.write_bytes("/f", b"d" * 500)
        victim = dfs.cluster.workers[0].ip
        dfs.decommission(victim)
        report = dfs.repair_until_stable()
        assert report.healthy
        for loc in dfs.block_locations("/f"):
            live = [h for h in loc.hosts if dfs.namenode.is_live(h)]
            assert victim not in live
            assert len(live) >= 3

    def test_fault_free_scan_charges_only_scan_counters(self):
        dfs = make_dfs()
        dfs.write_bytes("/f", b"h" * 300)
        before = dfs.ledger.snapshot()
        report = dfs.run_repair_cycle()
        assert report.corrupt_replicas == 0 and report.repaired_blocks == 0
        delta = dfs.ledger.delta(before, dfs.ledger.snapshot())
        charged = {k for k, v in delta.items() if v}
        assert charged <= {"dfs.scan.bytes", "dfs.scan.blocks"}


# ------------------------------------------------------- placement edge cases


class TestPlacementEdgeCases:
    def test_replication_exceeding_live_nodes_is_capped(self):
        dfs = make_dfs(num_workers=4)
        for ip in [w.ip for w in dfs.cluster.workers[:2]]:
            dfs.namenode.report_dead_datanode(ip)
        dfs.write_bytes("/f", b"x" * 64)
        loc = dfs.block_locations("/f")[0]
        assert len(loc.hosts) == 2
        assert all(dfs.namenode.is_live(h) for h in loc.hosts)
        # target adapts: min(3 wanted, 2 live) -> not under-replicated
        assert dfs.namenode.under_replicated() == []

    def test_placement_skips_decommissioned_node(self):
        dfs = make_dfs()
        victim = dfs.cluster.workers[0].ip
        dfs.decommission(victim)
        dfs.write_bytes("/f", b"x" * 500)
        for loc in dfs.block_locations("/f"):
            assert victim not in loc.hosts

    def test_no_live_datanodes_raises_typed(self):
        dfs = make_dfs(num_workers=2)
        for w in dfs.cluster.workers:
            dfs.namenode.report_dead_datanode(w.ip)
        with pytest.raises(HdfsError):
            dfs.write_bytes("/f", b"x")

    def test_placement_is_seed_deterministic(self):
        placements = []
        for _ in range(2):
            dfs = make_dfs(seed=13)
            for i in range(5):
                dfs.write_bytes(f"/f{i}", b"p" * 200)
            placements.append(
                [
                    loc.hosts
                    for i in range(5)
                    for loc in dfs.block_locations(f"/f{i}")
                ]
            )
        assert placements[0] == placements[1]

    def test_recommission_restores_placement(self):
        dfs = make_dfs(num_workers=2)
        victim = dfs.cluster.workers[0].ip
        dfs.decommission(victim)
        dfs.recommission(victim)
        dfs.write_bytes("/f", b"x" * 64)
        assert victim in dfs.block_locations("/f")[0].hosts


# ---------------------------------------------------------- capacity + ENOSPC


class TestCapacity:
    def test_full_datanode_raises_typed(self):
        cluster = make_paper_cluster(2)
        dfs = DistributedFileSystem(
            cluster, block_size=64, replication=2, capacity_bytes=100
        )
        with pytest.raises(StorageFullError):
            dfs.write_bytes("/big", b"x" * 200)

    def test_delete_releases_capacity(self):
        cluster = make_paper_cluster(2)
        dfs = DistributedFileSystem(
            cluster, block_size=64, replication=2, capacity_bytes=100
        )
        dfs.write_bytes("/a", b"x" * 80)
        with pytest.raises(StorageFullError):
            dfs.write_bytes("/b", b"x" * 80)
        dfs.delete("/a")
        assert all(d.used_bytes() == 0 for d in dfs.datanodes.values())
        dfs.write_bytes("/b", b"x" * 80)
        assert dfs.read_bytes("/b") == b"x" * 80

    def test_enospc_redirects_replica_to_spare_node(self):
        """One full node costs a redirect, not the write."""
        dfs = make_dfs(num_workers=4, replication=3, capacity_bytes=1000)
        spare_room = {ip: dn for ip, dn in dfs.datanodes.items()}
        victim = dfs.cluster.workers[0].ip
        # Pre-fill the victim so the next replica targeting it bounces.
        spare_room[victim].write_block("filler", b"x" * 990)
        before = dfs.ledger.snapshot()
        dfs.write_bytes("/f", b"y" * 64, client_ip=victim)
        delta = dfs.ledger.delta(before, dfs.ledger.snapshot())
        assert delta.get("dfs.write.redirect", 0) >= 1
        loc = dfs.block_locations("/f")[0]
        assert victim not in loc.hosts
        assert len(loc.hosts) == 3
        assert dfs.read_bytes("/f") == b"y" * 64


# -------------------------------------------- ENOSPC ladders: spill + checkpoint


class TestSpillEnospcLadder:
    def _make_buffer(self, tmp_path, rate: float):
        ledger = CostLedger()
        injector = FaultInjector(FaultConfig(dfs_enospc_rate=rate))
        buf = SpillableBuffer(
            capacity_bytes=8,
            spill_path=str(tmp_path / "spill.bin"),
            ledger=ledger,
            injector=injector,
        )
        return buf, ledger

    def test_spill_enospc_degrades_to_memory_fifo(self, tmp_path):
        buf, ledger = self._make_buffer(tmp_path, rate=1.0)
        items = [f"item-{i}".encode() for i in range(10)]
        for item in items:
            buf.put(item)
        buf.close()
        assert [buf.get(timeout=1.0) for _ in range(10)] == items
        assert buf.get(timeout=1.0) is None
        assert ledger.snapshot().get("stream.spill_enospc", 0) >= 1

    def test_no_enospc_no_counter(self, tmp_path):
        buf, ledger = self._make_buffer(tmp_path, rate=0.0)
        for i in range(10):
            buf.put(f"item-{i}".encode())
        buf.close()
        drained = []
        while (item := buf.get(timeout=1.0)) is not None:
            drained.append(item)
        assert len(drained) == 10
        assert "stream.spill_enospc" not in ledger.snapshot()


class TestCheckpointEnospcLadder:
    def _make_store(self, capacity: int) -> CheckpointStore:
        cluster = make_paper_cluster(2)
        dfs = DistributedFileSystem(
            cluster, block_size=4096, replication=2, capacity_bytes=capacity
        )
        return CheckpointStore(dfs, ledger=dfs.ledger)

    def test_save_prunes_old_versions_and_retries(self):
        state = {"algorithm": "svm", "weights": [0.0] * 8, "iteration": 1}
        blob = len(encode_checkpoint(state))
        store = self._make_store(capacity=int(blob * 2.5))
        assert store.save("job", state) == 1
        assert store.save("job", state) == 2
        version = store.save("job", state)  # full: prunes v1, retries
        assert version == 3
        assert store.versions("job") == [2, 3]
        assert store.enospc_prunes == 1
        loaded, latest = store.load_latest("job")
        assert latest == 3 and loaded["algorithm"] == "svm"

    def test_save_escalates_typed_when_nothing_to_prune(self):
        state = {"algorithm": "svm", "weights": [0.0] * 8, "iteration": 1}
        blob = len(encode_checkpoint(state))
        store = self._make_store(capacity=blob // 2)
        with pytest.raises(CheckpointError):
            store.save("job", state)
        assert store.write_failures == 1
        assert store.versions("job") == []


# ----------------------------------------------------------- injected sites


class TestInjectedStorageFaults:
    def test_replica_corrupt_rate_one_read_is_typed(self):
        cluster = make_paper_cluster()
        injector = FaultInjector(FaultConfig(dfs_replica_corrupt_rate=1.0))
        dfs = DistributedFileSystem(
            cluster, block_size=64, replication=3, fault_injector=injector
        )
        dfs.write_bytes("/f", b"x" * 64)
        with pytest.raises(BlockError):
            dfs.read_bytes("/f")
        assert any(e.kind == "replica_corrupt" for e in injector.events)
        # The scanner repairs nothing (no healthy source) but stays typed.
        report = dfs.repair_until_stable()
        assert report.unrecoverable_blocks

    def test_read_error_rate_one_is_typed(self):
        cluster = make_paper_cluster()
        injector = FaultInjector(FaultConfig(dfs_read_error_rate=1.0))
        dfs = DistributedFileSystem(
            cluster, block_size=64, replication=3, fault_injector=injector
        )
        dfs.write_bytes("/f", b"x" * 64)
        with pytest.raises(BlockError):
            dfs.read_bytes("/f")
        assert any(e.kind == "dfs_read_error" for e in injector.events)

    def test_datanode_kill_one_shot_survivable(self):
        cluster = make_paper_cluster()
        injector = FaultInjector(
            FaultConfig(dfs_kill_datanode=0, dfs_kill_datanode_after=0)
        )
        dfs = DistributedFileSystem(
            cluster, block_size=64, replication=3, fault_injector=injector
        )
        payload = b"k" * 300
        dfs.write_bytes("/f", payload)
        assert dfs.read_bytes("/f") == payload
        assert not dfs.datanodes[dfs.cluster.workers[0].ip].alive
        assert any(e.kind == "datanode_down" for e in injector.events)

    def test_disarmed_ledger_has_no_selfheal_counters(self):
        """Fault-free runs never see the armed-only counters, so the
        Figure 3/4 ledgers stay bit-identical to the seed."""
        dfs = make_dfs()
        dfs.write_bytes("/f", b"x" * 500, client_ip=dfs.cluster.workers[0].ip)
        dfs.read_bytes("/f", client_ip=HEAD_IP)
        armed_only = (
            "dfs.read.failover",
            "dfs.write.redirect",
            "dfs.scan.",
            "dfs.repair.",
            "stream.spill_enospc",
            "checkpoint.enospc_prune",
        )
        for key in dfs.ledger.snapshot():
            assert not any(key.startswith(p) or key == p for p in armed_only), key
