"""Storage scanner: heartbeats, checksum scrubbing, re-replication.

The self-healing loop of the storage plane (DESIGN §14).  One cycle:

1. **heartbeat pump** — every :class:`~repro.hdfs.datanode.DataNode` that
   is up heartbeats the NameNode with the injected clock's ``now()``;
   nodes silent past the TTL are swept dead (a killed node stops
   heartbeating by construction);
2. **scrub** — every stored replica is verified against its CRC32; a
   corrupt replica is dropped locally and reported, which makes its block
   under-replicated;
3. **re-replication** — every block whose *live* replica count is below
   ``min(file.replication, live datanodes)`` is restored: a healthy
   source replica (checksum-verified, decommissioned nodes may serve) is
   copied to seeded-chosen live targets and the NameNode's replica map is
   updated.

All scanner traffic is accounted to the dedicated ``dfs.scan.*`` /
``dfs.repair.*`` ledger categories — never to ``dfs.read`` /
``dfs.write.local`` — and the scanner only runs when explicitly called
(:meth:`run_cycle`, or the chaos harness's quiescence repair), so
fault-free Figure 3/4 ledgers stay bit-identical to the seed.
"""

import threading
from dataclasses import dataclass, field

from repro.common.errors import (
    BlockCorruptError,
    BlockError,
    DataNodeDownError,
    StorageFullError,
)
from repro.sim.clock import WALL


@dataclass
class ScanReport:
    """Outcome of one scanner cycle (or one :meth:`fsck` sweep)."""

    blocks_scanned: int = 0
    corrupt_replicas: int = 0
    repaired_blocks: int = 0
    repaired_bytes: int = 0
    unrecoverable_blocks: list[str] = field(default_factory=list)
    expired_datanodes: list[str] = field(default_factory=list)
    under_replicated_after: int = 0

    @property
    def healthy(self) -> bool:
        return not self.unrecoverable_blocks and self.under_replicated_after == 0


@dataclass
class FsckReport:
    """Namespace-wide health check: every completed file's every block."""

    files: int = 0
    blocks: int = 0
    corrupt_replicas: int = 0
    missing_blocks: list[str] = field(default_factory=list)
    under_replicated: list[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return not self.missing_blocks and not self.under_replicated

    def summary(self) -> dict:
        return {
            "files": self.files,
            "blocks": self.blocks,
            "corrupt_replicas": self.corrupt_replicas,
            "missing_blocks": list(self.missing_blocks),
            "under_replicated": list(self.under_replicated),
            "healthy": self.healthy,
        }


class StorageScanner:
    """On-demand self-healing pass over one DFS."""

    def __init__(self, fs, clock=None):
        self.fs = fs
        self.clock = clock or WALL
        self.cycles = 0
        self._cycle_lock = threading.Lock()

    # ----------------------------------------------------------- the cycle

    def run_cycle(self) -> ScanReport:
        """One full pump → scrub → re-replicate pass (thread-safe)."""
        with self._cycle_lock:
            report = ScanReport()
            report.expired_datanodes = self.pump_heartbeats()
            self._scrub(report)
            self._re_replicate(report)
            report.under_replicated_after = len(self.fs.namenode.under_replicated())
            self.cycles += 1
            return report

    def pump_heartbeats(self) -> list[str]:
        """Heartbeat every up datanode, then sweep the silent ones."""
        namenode = self.fs.namenode
        now = self.clock.now()
        for ip, datanode in self.fs.datanodes.items():
            if datanode.alive:
                namenode.heartbeat(ip, now)
            else:
                # A node that died before its first heartbeat would never
                # trip the TTL sweep (no record to go stale); start its
                # TTL clock at first observation instead.
                namenode.observe_datanode(ip, now)
        return namenode.expire_heartbeats(now)

    def _scrub(self, report: ScanReport) -> None:
        """Verify every replica on every up datanode; drop + report rot."""
        namenode = self.fs.namenode
        ledger = self.fs.ledger
        for ip, datanode in self.fs.datanodes.items():
            if not datanode.alive:
                continue
            for block_id in datanode.block_ids():
                report.blocks_scanned += 1
                length = namenode.block_length(block_id)
                if length:
                    ledger.add("dfs.scan.bytes", length)
                ledger.add("dfs.scan.blocks", 1)
                if not datanode.verify_block(block_id):
                    datanode.delete_block(block_id)
                    namenode.report_bad_replica(block_id, ip)
                    report.corrupt_replicas += 1
                    ledger.add("dfs.scan.corrupt", 1)

    def _re_replicate(self, report: ScanReport) -> None:
        """Restore the replication factor of every under-replicated block."""
        namenode = self.fs.namenode
        ledger = self.fs.ledger
        for block_id, missing, _live_hosts in namenode.under_replicated():
            data = self._healthy_source(block_id)
            if data is None:
                report.unrecoverable_blocks.append(block_id)
                ledger.add("dfs.repair.unrecoverable", 1)
                continue
            for target in namenode.choose_repair_targets(block_id, missing):
                try:
                    self.fs.datanodes[target].restore_block(block_id, data)
                except StorageFullError:
                    ledger.add("dfs.repair.enospc", 1)
                    continue
                except DataNodeDownError:
                    continue
                namenode.add_replica(block_id, target)
                report.repaired_blocks += 1
                report.repaired_bytes += len(data)
                ledger.add("dfs.repair.blocks", 1)
                ledger.add("dfs.repair.bytes", len(data))

    def _healthy_source(self, block_id: str) -> bytes | None:
        """Checksum-verified bytes from any up replica holder (recorded in
        the replica map or not — a drained node may still hold a copy);
        corrupt sources found on the way are dropped and reported."""
        namenode = self.fs.namenode
        recorded = namenode.block_replicas(block_id)
        candidates = list(recorded) + [
            ip for ip in self.fs.datanodes if ip not in recorded
        ]
        for ip in candidates:
            datanode = self.fs.datanodes.get(ip)
            if datanode is None or not datanode.alive or not datanode.has_block(block_id):
                continue
            try:
                return datanode.replica_bytes(block_id)
            except BlockCorruptError:
                datanode.delete_block(block_id)
                namenode.report_bad_replica(block_id, ip)
            except (BlockError, DataNodeDownError):
                continue
        return None

    # ----------------------------------------------------------------- fsck

    def fsck(self) -> FsckReport:
        """Namespace-wide health check (no repair, but scrub-accurate:
        replicas are checksum-verified, not just counted)."""
        namenode = self.fs.namenode
        report = FsckReport()
        live = set(namenode.live_datanodes())
        for meta in namenode.completed_files():
            report.files += 1
            target = min(meta.replication, len(live))
            for block in meta.blocks:
                report.blocks += 1
                hosts = meta.replica_hosts.get(block.block_id, ())
                healthy_live = 0
                healthy_any = 0
                for ip in hosts:
                    datanode = self.fs.datanodes.get(ip)
                    if datanode is None or not datanode.alive:
                        continue
                    if datanode.verify_block(block.block_id):
                        healthy_any += 1
                        if ip in live:
                            healthy_live += 1
                    else:
                        report.corrupt_replicas += 1
                if healthy_any == 0:
                    report.missing_blocks.append(block.block_id)
                elif healthy_live < target:
                    report.under_replicated.append(block.block_id)
        return report

    def repair_until_stable(self, max_cycles: int = 4) -> ScanReport:
        """Run cycles until a pass finds nothing to fix (quiescence repair,
        used by the chaos harness) — bounded by ``max_cycles``.  The
        returned report aggregates scan/repair totals across all cycles;
        ``under_replicated_after`` and ``unrecoverable_blocks`` reflect the
        final state."""
        total = self.run_cycle()
        for _ in range(max_cycles - 1):
            if (
                total.corrupt_replicas == 0
                and total.under_replicated_after == 0
            ):
                break
            cycle = self.run_cycle()
            total.blocks_scanned += cycle.blocks_scanned
            total.corrupt_replicas += cycle.corrupt_replicas
            total.repaired_blocks += cycle.repaired_blocks
            total.repaired_bytes += cycle.repaired_bytes
            total.expired_datanodes.extend(cycle.expired_datanodes)
            total.unrecoverable_blocks = cycle.unrecoverable_blocks
            total.under_replicated_after = cycle.under_replicated_after
            if cycle.corrupt_replicas == 0 and cycle.repaired_blocks == 0:
                break
        return total
