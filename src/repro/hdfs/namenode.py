"""NameNode: the DFS namespace and block map."""

import itertools
import random
import threading
from dataclasses import dataclass, field

from repro.common.errors import FileAlreadyExists, FileNotFoundInDfs, HdfsError
from repro.hdfs.block import Block, BlockLocation


def _normalize(path: str) -> str:
    """Canonicalize a DFS path: absolute, single slashes, no trailing slash."""
    if not path or not path.startswith("/"):
        raise HdfsError(f"DFS paths must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise HdfsError(f"relative components not allowed: {path!r}")
    return "/" + "/".join(parts)


@dataclass
class FileMeta:
    """Namespace entry for one file."""

    path: str
    replication: int
    block_size: int
    blocks: list[Block] = field(default_factory=list)
    # block_id -> replica host IPs
    replica_hosts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    complete: bool = False

    @property
    def length(self) -> int:
        return sum(b.length for b in self.blocks)


class NameNode:
    """Owns the namespace tree, the block map, and datanode liveness.

    Placement follows the simplified classic HDFS policy: first replica on
    the writing client's node when that node hosts a DataNode, remaining
    replicas on distinct other nodes chosen pseudo-randomly (seeded, so runs
    are reproducible).  Placement only ever targets *live* datanodes: dead
    (reported or heartbeat-expired) and decommissioned nodes are excluded.

    Liveness is clock-injected: callers (the storage scanner) pump
    :meth:`heartbeat` with their clock's ``now()`` and sweep stale nodes
    with :meth:`expire_heartbeats`.  A node that never heartbeats stays
    live by default — the seed deployments never pump heartbeats, and
    their behavior must not change.
    """

    def __init__(
        self,
        datanode_ips: list[str],
        seed: int = 7,
        heartbeat_ttl_s: float = 10.0,
    ):
        if not datanode_ips:
            raise HdfsError("a NameNode needs at least one DataNode")
        self._datanode_ips = list(datanode_ips)
        self._files: dict[str, FileMeta] = {}
        self._dirs: set[str] = {"/"}
        self._lock = threading.Lock()
        self._block_counter = itertools.count(1)
        self._rng = random.Random(seed)
        self.heartbeat_ttl_s = heartbeat_ttl_s
        self._last_heartbeat: dict[str, float] = {}
        self._dead: set[str] = set()
        self._decommissioned: set[str] = set()
        #: block_id -> owning FileMeta, for replica-map surgery on repair
        self._block_owner: dict[str, FileMeta] = {}
        #: observability counters (typed, not ledger — see the scanner for
        #: the ``dfs.repair.*`` / ``dfs.scan.*`` byte accounting)
        self.bad_replica_reports = 0
        self.dead_datanode_reports = 0

    # ------------------------------------------------------------- liveness

    def datanode_ips(self) -> list[str]:
        """Every registered datanode, live or not."""
        with self._lock:
            return list(self._datanode_ips)

    def heartbeat(self, ip: str, now: float) -> None:
        """Record one datanode heartbeat; revives a reported-dead node."""
        with self._lock:
            if ip not in self._datanode_ips:
                raise HdfsError(f"unknown datanode {ip}")
            self._last_heartbeat[ip] = now
            self._dead.discard(ip)

    def observe_datanode(self, ip: str, now: float) -> None:
        """Seed a liveness baseline for a node with no heartbeat on record.

        The TTL sweep deliberately ignores nodes that never heartbeated
        (deployments without a scanner never pump, and their nodes must
        stay live).  But under a running scanner that same rule would hide
        a node that died *before its first heartbeat* forever.  The pump
        calls this for silent nodes, so the TTL clock starts at the first
        observation and the node is expired one TTL later — the detection
        delay the heartbeat model promises, instead of never."""
        with self._lock:
            if ip in self._datanode_ips:
                self._last_heartbeat.setdefault(ip, now)

    def expire_heartbeats(self, now: float) -> list[str]:
        """Mark every node whose last heartbeat is older than the TTL as
        dead; returns the newly dead ips.  Nodes that never heartbeated
        are left alone (the no-scanner deployments never pump)."""
        newly_dead = []
        with self._lock:
            for ip, seen in self._last_heartbeat.items():
                if ip not in self._dead and now - seen > self.heartbeat_ttl_s:
                    self._dead.add(ip)
                    newly_dead.append(ip)
        return newly_dead

    def report_dead_datanode(self, ip: str) -> None:
        """A client hit :class:`DataNodeDownError` — mark the node dead
        immediately instead of waiting out the heartbeat TTL."""
        with self._lock:
            if ip in self._datanode_ips and ip not in self._dead:
                self._dead.add(ip)
                self.dead_datanode_reports += 1

    def decommission(self, ip: str) -> None:
        """Exclude a node from placement; its replicas still serve reads
        but no longer count toward replication targets, so the scanner
        drains it by re-replicating everything it holds elsewhere."""
        with self._lock:
            if ip not in self._datanode_ips:
                raise HdfsError(f"unknown datanode {ip}")
            self._decommissioned.add(ip)

    def recommission(self, ip: str) -> None:
        """Readmit a decommissioned node to placement."""
        with self._lock:
            self._decommissioned.discard(ip)

    def is_live(self, ip: str) -> bool:
        """Live = registered, not reported/expired dead, not decommissioned."""
        with self._lock:
            return self._is_live_locked(ip)

    def _is_live_locked(self, ip: str) -> bool:
        return (
            ip in self._datanode_ips
            and ip not in self._dead
            and ip not in self._decommissioned
        )

    def live_datanodes(self) -> list[str]:
        """Ips eligible for placement, in registration order."""
        with self._lock:
            return [ip for ip in self._datanode_ips if self._is_live_locked(ip)]

    # ------------------------------------------------------------ block map

    def report_bad_replica(self, block_id: str, host: str) -> tuple[str, ...]:
        """A reader (or the scrub scan) found this replica corrupt or
        missing: drop the host from the block's replica set and return the
        survivors.  The repair scanner restores the factor later."""
        with self._lock:
            meta = self._block_owner.get(block_id)
            if meta is None:
                return ()
            hosts = meta.replica_hosts.get(block_id, ())
            if host in hosts:
                hosts = tuple(h for h in hosts if h != host)
                meta.replica_hosts[block_id] = hosts
                self.bad_replica_reports += 1
            return hosts

    def add_replica(self, block_id: str, host: str) -> None:
        """Record a repaired/re-replicated copy on ``host``."""
        with self._lock:
            meta = self._block_owner.get(block_id)
            if meta is None:
                return
            hosts = meta.replica_hosts.get(block_id, ())
            if host not in hosts:
                meta.replica_hosts[block_id] = hosts + (host,)

    def set_replicas(self, block_id: str, hosts: tuple[str, ...]) -> None:
        """Replace a block's replica set (the writer's pipeline records
        where the replicas actually landed after ENOSPC redirections)."""
        with self._lock:
            meta = self._block_owner.get(block_id)
            if meta is not None:
                meta.replica_hosts[block_id] = tuple(hosts)

    def block_replicas(self, block_id: str) -> tuple[str, ...]:
        """Current replica hosts of one block (empty if unknown)."""
        with self._lock:
            meta = self._block_owner.get(block_id)
            if meta is None:
                return ()
            return meta.replica_hosts.get(block_id, ())

    def under_replicated(self) -> list[tuple[str, int, tuple[str, ...]]]:
        """Blocks whose *live* replica count is below target, as
        ``(block_id, missing_count, surviving_live_hosts)``.

        The target adapts to the cluster: ``min(file.replication, live
        datanodes)`` — with every node but one dead, a replication-3 file
        is healthy at one replica.  Decommissioned and dead hosts never
        count, which is what drains a decommissioning node.
        """
        report = []
        with self._lock:
            live = [ip for ip in self._datanode_ips if self._is_live_locked(ip)]
            for meta in self._files.values():
                target = min(meta.replication, len(live))
                for block in meta.blocks:
                    hosts = meta.replica_hosts.get(block.block_id, ())
                    live_hosts = tuple(h for h in hosts if self._is_live_locked(h))
                    if len(live_hosts) < target:
                        report.append(
                            (
                                block.block_id,
                                target - len(live_hosts),
                                live_hosts,
                            )
                        )
        return report

    def block_length(self, block_id: str) -> int:
        """Length of one block (0 if unknown)."""
        with self._lock:
            meta = self._block_owner.get(block_id)
            if meta is None:
                return 0
            for block in meta.blocks:
                if block.block_id == block_id:
                    return block.length
            return 0

    def choose_repair_targets(self, block_id: str, count: int) -> tuple[str, ...]:
        """Up to ``count`` live hosts not already holding the block, chosen
        with the placement RNG (seeded, so repairs are reproducible)."""
        with self._lock:
            meta = self._block_owner.get(block_id)
            current = set(meta.replica_hosts.get(block_id, ())) if meta else set()
            candidates = [
                ip
                for ip in self._datanode_ips
                if self._is_live_locked(ip) and ip not in current
            ]
            self._rng.shuffle(candidates)
            return tuple(candidates[:count])

    # ---------------------------------------------------------------- files

    def create_file(self, path: str, replication: int, block_size: int) -> FileMeta:
        """Begin writing a new file (fails if the path exists)."""
        path = _normalize(path)
        replication = min(replication, len(self._datanode_ips))
        if replication < 1 or block_size < 1:
            raise HdfsError("replication and block_size must be >= 1")
        with self._lock:
            if path in self._files:
                raise FileAlreadyExists(path)
            if path in self._dirs:
                raise FileAlreadyExists(f"{path} is a directory")
            meta = FileMeta(path=path, replication=replication, block_size=block_size)
            self._files[path] = meta
            self._ensure_parents(path)
            return meta

    def allocate_block(self, path: str, length: int, client_ip: str | None) -> tuple[Block, tuple[str, ...]]:
        """Allocate the next block of ``path`` and choose replica hosts."""
        path = _normalize(path)
        with self._lock:
            meta = self._files.get(path)
            if meta is None:
                raise FileNotFoundInDfs(path)
            if meta.complete:
                raise HdfsError(f"cannot append to completed file {path}")
            block = Block(block_id=f"blk_{next(self._block_counter):010d}", length=length)
            hosts = self._choose_replicas(meta.replication, client_ip)
            if not hosts:
                raise HdfsError("no live datanodes available for placement")
            meta.blocks.append(block)
            meta.replica_hosts[block.block_id] = hosts
            self._block_owner[block.block_id] = meta
            return block, hosts

    def replacement_host(self, block_id: str, exclude) -> str | None:
        """One live host outside ``exclude`` for a redirected replica write
        (the ENOSPC / dead-target path of the write pipeline)."""
        with self._lock:
            candidates = [
                ip
                for ip in self._datanode_ips
                if self._is_live_locked(ip) and ip not in exclude
            ]
            if not candidates:
                return None
            self._rng.shuffle(candidates)
            return candidates[0]

    def complete_file(self, path: str) -> None:
        """Seal the file; it becomes visible to readers."""
        path = _normalize(path)
        with self._lock:
            meta = self._files.get(path)
            if meta is None:
                raise FileNotFoundInDfs(path)
            meta.complete = True

    def get_file(self, path: str) -> FileMeta:
        """Metadata of a completed file."""
        path = _normalize(path)
        with self._lock:
            meta = self._files.get(path)
            if meta is None or not meta.complete:
                raise FileNotFoundInDfs(path)
            return meta

    def completed_files(self) -> list[FileMeta]:
        """Snapshot of every completed file's metadata (fsck inventory)."""
        with self._lock:
            return [m for m in self._files.values() if m.complete]

    def block_locations(self, path: str) -> list[BlockLocation]:
        """Per-block replica locations, in file order with byte offsets."""
        meta = self.get_file(path)
        locations = []
        offset = 0
        for block in meta.blocks:
            locations.append(
                BlockLocation(
                    block_id=block.block_id,
                    offset=offset,
                    length=block.length,
                    hosts=meta.replica_hosts[block.block_id],
                )
            )
            offset += block.length
        return locations

    # ------------------------------------------------------------ namespace

    def exists(self, path: str) -> bool:
        """True for a completed file or a directory."""
        path = _normalize(path)
        with self._lock:
            meta = self._files.get(path)
            if meta is not None:
                return meta.complete
            return path in self._dirs

    def is_dir(self, path: str) -> bool:
        """True when ``path`` is a directory."""
        path = _normalize(path)
        with self._lock:
            return path in self._dirs

    def mkdirs(self, path: str) -> None:
        """Create a directory and all missing parents."""
        path = _normalize(path)
        with self._lock:
            if path in self._files:
                raise FileAlreadyExists(f"{path} is a file")
            self._dirs.add(path)
            self._ensure_parents(path + "/x")

    def listdir(self, path: str) -> list[str]:
        """Immediate children (full paths) of a directory, sorted."""
        path = _normalize(path)
        with self._lock:
            if path not in self._dirs:
                raise FileNotFoundInDfs(path)
            prefix = path if path.endswith("/") else path + "/"
            children = set()
            for candidate in itertools.chain(self._files, self._dirs):
                if candidate != path and candidate.startswith(prefix):
                    rest = candidate[len(prefix):]
                    children.add(prefix + rest.split("/", 1)[0])
            return sorted(children)

    def delete(self, path: str, recursive: bool = False) -> list[str]:
        """Remove a file or directory; returns the block ids to reclaim."""
        path = _normalize(path)
        with self._lock:
            if path in self._files:
                meta = self._files.pop(path)
                return self._reclaim_locked(meta)
            if path in self._dirs:
                prefix = path + "/"
                inside_files = [p for p in self._files if p.startswith(prefix)]
                inside_dirs = [p for p in self._dirs if p.startswith(prefix)]
                if (inside_files or inside_dirs) and not recursive:
                    raise HdfsError(f"directory not empty: {path}")
                reclaimed: list[str] = []
                for p in inside_files:
                    reclaimed.extend(self._reclaim_locked(self._files.pop(p)))
                for p in inside_dirs:
                    self._dirs.discard(p)
                self._dirs.discard(path)
                return reclaimed
            raise FileNotFoundInDfs(path)

    def _reclaim_locked(self, meta: FileMeta) -> list[str]:
        """Caller holds the lock: release a removed file's block bookkeeping."""
        ids = [b.block_id for b in meta.blocks]
        for block_id in ids:
            self._block_owner.pop(block_id, None)
        return ids

    def rename(self, src: str, dst: str, overwrite: bool = False) -> list[str]:
        """Rename a completed file (directories not supported).

        With ``overwrite`` an existing destination *file* is atomically
        replaced under the namespace lock — the commit step of the
        write-then-rename protocol (checkpoints, spill promotion).  Returns
        the replaced file's block ids so the caller can reclaim replicas
        (empty for a plain rename).
        """
        src, dst = _normalize(src), _normalize(dst)
        with self._lock:
            meta = self._files.get(src)
            if meta is None:
                raise FileNotFoundInDfs(src)
            if dst in self._dirs:
                raise FileAlreadyExists(dst)
            reclaimed: list[str] = []
            if dst in self._files:
                if not overwrite:
                    raise FileAlreadyExists(dst)
                reclaimed = self._reclaim_locked(self._files.pop(dst))
            del self._files[src]
            meta.path = dst
            self._files[dst] = meta
            self._ensure_parents(dst)
            return reclaimed

    # -------------------------------------------------------------- helpers

    def _ensure_parents(self, path: str) -> None:
        parts = [p for p in path.split("/") if p][:-1]
        current = ""
        for part in parts:
            current += "/" + part
            self._dirs.add(current)

    def _choose_replicas(self, replication: int, client_ip: str | None) -> tuple[str, ...]:
        """Caller holds the lock.  Live datanodes only: a dead or
        decommissioned node never receives new replicas."""
        chosen: list[str] = []
        if client_ip is not None and self._is_live_locked(client_ip):
            chosen.append(client_ip)
        remaining = [
            ip
            for ip in self._datanode_ips
            if ip not in chosen and self._is_live_locked(ip)
        ]
        self._rng.shuffle(remaining)
        chosen.extend(remaining[: replication - len(chosen)])
        return tuple(chosen[:replication])
