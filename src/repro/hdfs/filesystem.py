"""Client-facing DFS API: writers, readers, namespace operations."""

import zlib
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.common.errors import (
    BlockCorruptError,
    BlockError,
    DataNodeDownError,
    FileNotFoundInDfs,
    HdfsError,
    StorageFullError,
)
from repro.hdfs.block import BlockLocation
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode, _normalize
from repro.hdfs.scanner import FsckReport, ScanReport, StorageScanner

DEFAULT_BLOCK_SIZE = 8 * 1024 * 1024  # small blocks keep scaled runs splittable
DEFAULT_REPLICATION = 3


@dataclass(frozen=True)
class FileStatus:
    """Client view of one file's metadata."""

    path: str
    length: int
    block_size: int
    replication: int
    num_blocks: int


class DfsWriter:
    """Streaming writer that chunks data into replicated blocks.

    Accounting: each replica write lands on a DataNode (``dfs.write.local``);
    replicas stored away from the client's node additionally cost
    ``dfs.write.replica_net`` network bytes, mimicking the HDFS replication
    pipeline over the wire.

    Fault behavior: a replica target that refuses the write
    (:class:`StorageFullError` — real capacity or an injected ENOSPC
    window — or :class:`DataNodeDownError`) is *redirected*: the NameNode
    picks a replacement live host and the pipeline records where replicas
    actually landed.  Only when no live DataNode can take the block does
    the typed error escalate to the caller.  A write abandoned mid-stream
    (exception inside the ``with`` block, or explicit :meth:`abort`)
    deletes the partial file and every replica it placed — no leaked
    namespace entries, no orphaned replica bytes.
    """

    def __init__(self, fs: "DistributedFileSystem", path: str, client_ip: str | None):
        self._fs = fs
        self._path = path
        self._client_ip = client_ip
        self._buffer = bytearray()
        self._closed = False
        self._aborted = False
        fs.namenode.create_file(path, fs.replication, fs.block_size)

    def write(self, data: bytes | str) -> int:
        """Append bytes (str is UTF-8 encoded); returns bytes written."""
        if self._closed:
            raise HdfsError(f"writer for {self._path} is closed")
        if isinstance(data, str):
            data = data.encode("utf-8")
        self._buffer.extend(data)
        while len(self._buffer) >= self._fs.block_size:
            chunk = bytes(self._buffer[: self._fs.block_size])
            del self._buffer[: self._fs.block_size]
            self._flush_block(chunk)
        return len(data)

    def close(self) -> None:
        """Flush the tail block and seal the file."""
        if self._closed:
            if self._aborted:
                raise HdfsError(f"writer for {self._path} was aborted")
            return
        if self._buffer:
            # A tail flush that escalates (e.g. every live node full) must
            # not leave a half-created namespace entry behind: abort first,
            # then let the typed error reach the caller.
            try:
                self._flush_block(bytes(self._buffer))
            except Exception:
                self.abort()
                raise
            self._buffer.clear()
        self._fs.namenode.complete_file(self._path)
        self._closed = True

    def abort(self) -> None:
        """Abandon the write: delete the partial file and every replica
        already placed.  Idempotent; aborting after :meth:`close` is a
        no-op (the file is already committed)."""
        if self._closed:
            return
        self._closed = True
        self._aborted = True
        self._buffer.clear()
        try:
            block_ids = self._fs.namenode.delete(self._path)
        except FileNotFoundInDfs:
            return
        for block_id in block_ids:
            for datanode in self._fs.datanodes.values():
                datanode.delete_block(block_id)

    def __enter__(self) -> "DfsWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    def _flush_block(self, chunk: bytes) -> None:
        fs = self._fs
        block, hosts = fs.namenode.allocate_block(
            self._path, len(chunk), self._client_ip
        )
        placed: list[str] = []
        tried: set[str] = set()
        pending = list(hosts)
        last_error: Exception | None = None
        while pending:
            host = pending.pop(0)
            tried.add(host)
            try:
                if fs.injector is not None:
                    fs.injector.check_dfs_enospc(
                        f"dfswrite/{self._path}/{block.block_id}/{host}"
                    )
                fs.datanodes[host].write_block(block.block_id, chunk)
            except (StorageFullError, DataNodeDownError) as exc:
                last_error = exc
                if isinstance(exc, DataNodeDownError):
                    fs.namenode.report_dead_datanode(host)
                fs.ledger.add("dfs.write.redirect", 1)
                replacement = fs.namenode.replacement_host(
                    block.block_id, tried.union(pending)
                )
                if replacement is not None:
                    pending.append(replacement)
                continue
            placed.append(host)
            if host != self._client_ip:
                fs.ledger.add("dfs.write.replica_net", len(chunk))
        if not placed:
            # Nothing could take the replica: escalate typed.  The caller's
            # ladder decides (spill buffers fall back to memory, checkpoint
            # commits prune and retry); the partial file is reclaimed by
            # abort() when the writer's context unwinds.
            fs.namenode.set_replicas(block.block_id, ())
            raise last_error  # StorageFullError or DataNodeDownError
        if tuple(placed) != hosts:
            fs.namenode.set_replicas(block.block_id, tuple(placed))


class DfsReader:
    """Sequential reader across a file's blocks, preferring local replicas.

    Remote reads rotate deterministically across the block's replicas
    (seeded by client, path, and block id) instead of hammering the first
    recorded host.  A replica that fails — checksum mismatch
    (:class:`BlockCorruptError`), dead node (:class:`DataNodeDownError`),
    or an injected transient read error — triggers *failover*: the reader
    reports the bad replica / dead node to the NameNode (so the repair
    scanner can act) and tries the next candidate, consulting the NameNode
    for freshly repaired replicas as a last resort.  Only when every
    replica fails does the read escalate as a :class:`BlockError`.
    """

    def __init__(self, fs: "DistributedFileSystem", path: str, client_ip: str | None):
        self._fs = fs
        self._path = path
        self._client_ip = client_ip
        self._locations = fs.namenode.block_locations(path)
        self._block_index = 0
        self._block_data = b""
        self._block_pos = 0
        self._closed = False

    def read(self, size: int = -1) -> bytes:
        """Read up to ``size`` bytes (-1 = to end of file)."""
        if self._closed:
            raise HdfsError(f"reader for {self._path} is closed")
        chunks: list[bytes] = []
        remaining = size if size >= 0 else float("inf")
        while remaining > 0:
            if self._block_pos >= len(self._block_data):
                if not self._load_next_block():
                    break
            take = len(self._block_data) - self._block_pos
            if take > remaining:
                take = int(remaining)
            chunks.append(self._block_data[self._block_pos : self._block_pos + take])
            self._block_pos += take
            remaining -= take
        return b"".join(chunks)

    def seek(self, offset: int) -> None:
        """Position the reader at exactly ``offset`` bytes into the file.

        Loads the containing block; used by InputFormat record readers that
        process one byte-range split at a time.  Seeking to the end of the
        file is allowed (subsequent reads return empty).
        """
        total = sum(loc.length for loc in self._locations)
        if offset == total:
            self._block_index = len(self._locations)
            self._block_data = b""
            self._block_pos = 0
            return
        for i, loc in enumerate(self._locations):
            if loc.offset <= offset < loc.offset + loc.length:
                self._block_index = i
                self._block_data = b""
                self._block_pos = 0
                self._load_next_block()
                self._block_pos = offset - loc.offset
                return
        raise HdfsError(f"offset {offset} beyond end of {self._path}")

    def position(self) -> int:
        """Current byte offset into the file."""
        if self._block_index == 0 and not self._block_data:
            return 0
        if self._block_index > len(self._locations):
            raise HdfsError("reader position corrupted")
        if self._block_index == 0:
            return self._block_pos
        consumed_blocks = self._block_index - 1 if self._block_data else self._block_index
        base = sum(loc.length for loc in self._locations[:consumed_blocks])
        return base + (self._block_pos if self._block_data else 0)

    def close(self) -> None:
        self._closed = True
        self._block_data = b""

    def __enter__(self) -> "DfsReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _load_next_block(self) -> bool:
        if self._block_index >= len(self._locations):
            return False
        loc = self._locations[self._block_index]
        self._block_data = self._fetch_block(loc)
        self._block_pos = 0
        self._block_index += 1
        return True

    def _fetch_block(self, loc: BlockLocation) -> bytes:
        """Read one block with replica failover (see the class docstring)."""
        fs = self._fs
        queue = self._replica_order(loc)
        tried: set[str] = set()
        refreshed = False
        last_error: Exception | None = None
        while queue:
            host = queue.pop(0)
            if host in tried:
                continue
            tried.add(host)
            datanode = fs.datanodes.get(host)
            try:
                if datanode is None:
                    raise BlockError(f"no datanode registered at {host}")
                if fs.injector is not None:
                    fs.injector.check_dfs_read(
                        f"dfsread/{self._path}/{loc.block_id}/{host}/{self._client_ip}"
                    )
                data = datanode.read_block(loc.block_id)
            except BlockCorruptError as exc:
                last_error = exc
                fs.namenode.report_bad_replica(loc.block_id, host)
                fs.ledger.add("dfs.read.failover", 1)
            except DataNodeDownError as exc:
                last_error = exc
                fs.namenode.report_dead_datanode(host)
                fs.ledger.add("dfs.read.failover", 1)
            except BlockError as exc:
                # Injected transient read error, or a recorded replica the
                # node does not actually hold (stale map — report it so the
                # scanner restores the factor).
                last_error = exc
                fs.ledger.add("dfs.read.failover", 1)
                if (
                    datanode is not None
                    and datanode.alive
                    and not datanode.has_block(loc.block_id)
                ):
                    fs.namenode.report_bad_replica(loc.block_id, host)
            else:
                if host != self._client_ip:
                    fs.ledger.add("dfs.read.remote_net", len(data))
                return data
            if not queue and not refreshed:
                # Last resort: the NameNode may know of replicas repaired
                # after this reader cached its block locations.
                refreshed = True
                queue.extend(
                    h
                    for h in fs.namenode.block_replicas(loc.block_id)
                    if h not in tried
                )
        raise BlockError(
            f"block {loc.block_id} of {self._path} unreadable: "
            f"all {len(tried)} replicas failed"
        ) from last_error

    def _replica_order(self, loc: BlockLocation) -> list[str]:
        """Candidate replicas in preference order: the client's local copy
        first, the rest rotated deterministically (seeded by client, path,
        and block id) so concurrent remote readers spread across replicas
        instead of all hammering ``hosts[0]``."""
        hosts = list(loc.hosts)
        local = [h for h in hosts if h == self._client_ip]
        remote = [h for h in hosts if h != self._client_ip]
        if len(remote) > 1:
            key = (
                f"{self._fs.read_rotation_seed}/{self._client_ip}"
                f"/{self._path}/{loc.block_id}"
            )
            offset = zlib.crc32(key.encode("utf-8")) % len(remote)
            remote = remote[offset:] + remote[:offset]
        return local + remote


class DistributedFileSystem:
    """The façade every other subsystem talks to.

    One DataNode is created per cluster worker node; the NameNode lives on
    the head.  All traffic is recorded in the cluster's ledger.

    Self-healing knobs (all off by default — the fault-free byte ledgers
    stay bit-identical to the seed):

    * ``capacity_bytes`` — per-DataNode disk capacity; writes past it raise
      :class:`StorageFullError` (redirected by the write pipeline first);
    * ``fault_injector`` — arms the ``dfs.replica_corrupt`` /
      ``dfs.read_error`` / ``dfs.datanode_down`` / ``dfs.enospc`` sites;
    * ``clock`` — time source for heartbeats and the scanner
      (:data:`~repro.sim.clock.WALL` when None);
    * the :class:`~repro.hdfs.scanner.StorageScanner` is always constructed
      but never runs unless :meth:`run_repair_cycle` is called.
    """

    def __init__(
        self,
        cluster: Cluster,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = DEFAULT_REPLICATION,
        fault_injector=None,  # FaultInjector | None — storage fault sites
        clock=None,  # repro.sim.clock.Clock | None — heartbeats + scanner
        capacity_bytes: int | None = None,  # per-DataNode disk capacity
        seed: int = 7,  # placement + read-rotation seed
        heartbeat_ttl_s: float = 10.0,
    ):
        from repro.sim.clock import WALL

        self.cluster = cluster
        self.block_size = block_size
        self.replication = replication
        self.ledger = cluster.ledger
        self.injector = fault_injector
        self.clock = clock or WALL
        self.read_rotation_seed = seed
        worker_ips = [n.ip for n in cluster.workers]
        self.namenode = NameNode(worker_ips, seed=seed, heartbeat_ttl_s=heartbeat_ttl_s)
        self.datanodes: dict[str, DataNode] = {
            n.ip: DataNode(
                n,
                self.ledger,
                capacity_bytes=capacity_bytes,
                injector=fault_injector,
                dn_index=i,
            )
            for i, n in enumerate(cluster.workers)
        }
        self.scanner = StorageScanner(self, clock=self.clock)

    # ------------------------------------------------------------------ I/O

    def create(self, path: str, client_ip: str | None = None) -> DfsWriter:
        """Open a new file for writing."""
        return DfsWriter(self, path, client_ip)

    def open(self, path: str, client_ip: str | None = None) -> DfsReader:
        """Open a completed file for reading."""
        return DfsReader(self, path, client_ip)

    def write_bytes(self, path: str, data: bytes, client_ip: str | None = None) -> None:
        """Write a whole file in one call."""
        with self.create(path, client_ip) as writer:
            writer.write(data)

    def read_bytes(self, path: str, client_ip: str | None = None) -> bytes:
        """Read a whole file in one call."""
        with self.open(path, client_ip) as reader:
            return reader.read()

    def write_text(self, path: str, text: str, client_ip: str | None = None) -> None:
        """Write a whole text file (UTF-8)."""
        self.write_bytes(path, text.encode("utf-8"), client_ip)

    def read_text(self, path: str, client_ip: str | None = None) -> str:
        """Read a whole text file (UTF-8)."""
        return self.read_bytes(path, client_ip).decode("utf-8")

    # --------------------------------------------------------- self-healing

    def run_repair_cycle(self) -> ScanReport:
        """One synchronous scrub + re-replication pass (heartbeats pumped).

        The way virtual-time runs drive the scanner: call it at
        quiescence."""
        return self.scanner.run_cycle()

    def repair_until_stable(self, max_cycles: int = 4) -> ScanReport:
        """Repair cycles until a pass finds nothing to fix."""
        return self.scanner.repair_until_stable(max_cycles)

    def fsck(self) -> FsckReport:
        """Checksum-verified health report over every completed file."""
        return self.scanner.fsck()

    def decommission(self, ip: str) -> None:
        """Drain a DataNode: no new placements; the scanner re-replicates
        everything it holds onto the remaining live nodes."""
        self.namenode.decommission(ip)

    def recommission(self, ip: str) -> None:
        """Readmit a decommissioned DataNode to placement."""
        self.namenode.recommission(ip)

    # ------------------------------------------------------------ namespace

    def exists(self, path: str) -> bool:
        """True for a file or directory."""
        return self.namenode.exists(path)

    def is_dir(self, path: str) -> bool:
        """True for a directory."""
        return self.namenode.is_dir(path)

    def mkdirs(self, path: str) -> None:
        """Create a directory and missing parents."""
        self.namenode.mkdirs(path)

    def listdir(self, path: str) -> list[str]:
        """Immediate children of a directory (full paths, sorted)."""
        return self.namenode.listdir(path)

    def list_files(self, path: str) -> list[str]:
        """All files under ``path`` — itself if a file, else recursive."""
        path = _normalize(path)
        if self.namenode.is_dir(path):
            files: list[str] = []
            for child in self.listdir(path):
                files.extend(self.list_files(child))
            return files
        if self.exists(path):
            return [path]
        raise FileNotFoundInDfs(path)

    def delete(self, path: str, recursive: bool = False) -> None:
        """Remove a file or directory tree, reclaiming block replicas."""
        for block_id in self.namenode.delete(path, recursive):
            for datanode in self.datanodes.values():
                datanode.delete_block(block_id)

    def rename(self, src: str, dst: str, overwrite: bool = False) -> None:
        """Rename a completed file; ``overwrite`` atomically replaces an
        existing destination file (write-then-rename commit)."""
        for block_id in self.namenode.rename(src, dst, overwrite=overwrite):
            for datanode in self.datanodes.values():
                datanode.delete_block(block_id)

    def status(self, path: str) -> FileStatus:
        """Metadata of a completed file."""
        meta = self.namenode.get_file(path)
        return FileStatus(
            path=meta.path,
            length=meta.length,
            block_size=meta.block_size,
            replication=meta.replication,
            num_blocks=len(meta.blocks),
        )

    def block_locations(self, path: str) -> list[BlockLocation]:
        """Per-block replica locations of a file."""
        return self.namenode.block_locations(path)

    def total_size(self, path: str) -> int:
        """Sum of file lengths under ``path`` (logical, not replicated)."""
        return sum(self.status(f).length for f in self.list_files(path))
