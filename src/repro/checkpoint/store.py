"""Checksummed, versioned training checkpoints on the simulated HDFS.

File format (one checkpoint = one DFS file)::

   +--------+---------+-----------+-------------+----------------+
   | magic  | version | crc32     | payload len | pickled state  |
   | 4s     | >H      | >I        | >Q          | ...            |
   +--------+---------+-----------+-------------+----------------+

The payload is a plain ``dict`` produced by the trainer (weights/centers,
iteration counter, RNG bit-generator state, optimizer step) — the store
never interprets it beyond the ``algorithm`` tag used as a resume guard.

Durability discipline:

* **atomic commit** — the blob is written to ``<file>.tmp`` and renamed
  into place, so a crash mid-write never leaves a half-visible checkpoint
  (readers only ever list committed ``ckpt-*.bin`` names);
* **versioning** — every save gets the next monotonically increasing
  version; :meth:`CheckpointStore.load_latest` walks versions newest-first
  and falls back past any checkpoint whose checksum fails, so a corrupted
  latest file degrades to the previous good one instead of poisoning the
  resume;
* **dedicated accounting** — logical checkpoint traffic is charged to the
  ``checkpoint.write`` / ``checkpoint.read`` ledger counters (on top of the
  physical ``dfs.*`` counters the DFS itself records), and checkpointing is
  off by default, so the fault-free Figure 3/4 byte totals are untouched.
"""

import pickle
import struct
import threading
import zlib

from repro.common.errors import (
    CheckpointCorruptError,
    CheckpointError,
    StorageFullError,
)

_MAGIC = b"RCKP"
_FORMAT_VERSION = 1
_HEADER = struct.Struct(">4sHIQ")  # magic, format version, crc32, payload len


def encode_checkpoint(state: dict) -> bytes:
    """Serialize one state dict into the framed, checksummed blob."""
    payload = pickle.dumps(state, protocol=4)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(_MAGIC, _FORMAT_VERSION, crc, len(payload)) + payload


def decode_checkpoint(blob: bytes) -> dict:
    """Parse and validate a checkpoint blob; raises on any damage."""
    if len(blob) < _HEADER.size:
        raise CheckpointCorruptError(f"checkpoint truncated: {len(blob)} bytes")
    magic, fmt, crc, length = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise CheckpointCorruptError(f"bad checkpoint magic {magic!r}")
    if fmt != _FORMAT_VERSION:
        raise CheckpointCorruptError(f"unsupported checkpoint format v{fmt}")
    payload = blob[_HEADER.size :]
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"checkpoint payload length {len(payload)} != header {length}"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise CheckpointCorruptError("checkpoint checksum mismatch")
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # crc passed but pickle is damaged
        raise CheckpointCorruptError(f"checkpoint payload undecodable: {exc}") from exc
    if not isinstance(state, dict):
        raise CheckpointCorruptError(f"checkpoint payload is {type(state).__name__}")
    return state


class CheckpointStore:
    """Per-deployment checkpoint directory on the simulated DFS."""

    def __init__(
        self,
        dfs,
        base_dir: str = "/checkpoints",
        ledger=None,
        injector=None,
        client_ip: str | None = None,
    ):
        self.dfs = dfs
        self.base_dir = base_dir.rstrip("/")
        self.ledger = ledger
        self.injector = injector  # FaultInjector | None (§6 checkpoint chaos)
        self.client_ip = client_ip
        self._lock = threading.Lock()
        self.writes = 0
        self.write_failures = 0
        self.corrupt_detected = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.enospc_prunes = 0  # old versions deleted to make room

    # ------------------------------------------------------------- namespace

    def _job_dir(self, job_id: str) -> str:
        return f"{self.base_dir}/{job_id}"

    def _path(self, job_id: str, version: int) -> str:
        return f"{self._job_dir(job_id)}/ckpt-{version:06d}.bin"

    def versions(self, job_id: str) -> list[int]:
        """Committed checkpoint versions of a job, ascending."""
        job_dir = self._job_dir(job_id)
        if not self.dfs.exists(job_dir):
            return []
        found = []
        for path in self.dfs.listdir(job_dir):
            name = path.rsplit("/", 1)[-1]
            if name.startswith("ckpt-") and name.endswith(".bin"):
                try:
                    found.append(int(name[len("ckpt-") : -len(".bin")]))
                except ValueError:
                    continue
        return sorted(found)

    # ------------------------------------------------------------ save/load

    def save(self, job_id: str, state: dict) -> int:
        """Atomically commit one checkpoint; returns its version.

        Injected ``checkpoint.write_fail`` faults fire *between* the tmp
        write and the rename — the window where a real crash would land —
        so the committed namespace never sees a partial file.  Injected
        ``checkpoint.corrupt`` faults flip payload bytes after the checksum
        is computed, so the damage is always detectable at load time.

        ENOSPC ladder: when the DFS refuses the tmp write with
        :class:`StorageFullError` (capacity or an injected window, after
        the write pipeline's own replica redirection), the store prunes
        this job's older committed versions — the newest stays, resumes
        must keep working — and retries once.  Only when the cluster is
        full even after pruning does the failure escalate, as a typed
        :class:`CheckpointError` (which the best-effort
        :class:`TrainCheckpointer` counts instead of crashing training).
        """
        with self._lock:
            existing = self.versions(job_id)
            version = (existing[-1] + 1) if existing else 1
            payload = pickle.dumps(state, protocol=4)
            crc = zlib.crc32(payload) & 0xFFFFFFFF
            if self.injector is not None:
                payload = self.injector.corrupt_checkpoint(
                    payload, f"checkpoint/{job_id}/{version}"
                )
            blob = _HEADER.pack(_MAGIC, _FORMAT_VERSION, crc, len(payload)) + payload
            path = self._path(job_id, version)
            tmp = f"{path}.tmp"
            self.dfs.mkdirs(self._job_dir(job_id))
            if self.dfs.exists(tmp):  # stale tmp from an earlier failed save
                self.dfs.delete(tmp)
            try:
                try:
                    self.dfs.write_bytes(tmp, blob, client_ip=self.client_ip)
                except StorageFullError as exc:
                    pruned = self._prune_for_space(job_id, keep=1)
                    if pruned == 0:
                        raise CheckpointError(
                            f"checkpoint {job_id} v{version}: storage full and "
                            "nothing left to prune"
                        ) from exc
                    try:
                        self.dfs.write_bytes(tmp, blob, client_ip=self.client_ip)
                    except StorageFullError as retry_exc:
                        raise CheckpointError(
                            f"checkpoint {job_id} v{version}: storage full even "
                            f"after pruning {pruned} old version(s)"
                        ) from retry_exc
                if self.injector is not None:
                    self.injector.check_checkpoint_write(
                        f"checkpoint/{job_id}/{version}"
                    )
                self.dfs.rename(tmp, path, overwrite=True)
            except CheckpointError:
                self.write_failures += 1
                raise
            self.writes += 1
            self.bytes_written += len(blob)
            if self.ledger is not None:
                self.ledger.add("checkpoint.write", len(blob))
            return version

    def _prune_for_space(self, job_id: str, keep: int = 1) -> int:
        """Delete this job's oldest committed versions (keeping the newest
        ``keep``) to free replica space; returns how many were pruned.
        Caller holds the lock."""
        versions = self.versions(job_id)
        victims = versions[:-keep] if keep else versions
        pruned = 0
        for version in victims:
            self.dfs.delete(self._path(job_id, version))
            pruned += 1
        if pruned:
            self.enospc_prunes += pruned
            if self.ledger is not None:
                self.ledger.add("checkpoint.enospc_prune", pruned)
        return pruned

    def load(self, job_id: str, version: int) -> dict:
        """Load and validate one specific checkpoint version."""
        blob = self.dfs.read_bytes(self._path(job_id, version), client_ip=self.client_ip)
        state = decode_checkpoint(blob)
        with self._lock:
            self.bytes_read += len(blob)
        if self.ledger is not None:
            self.ledger.add("checkpoint.read", len(blob))
        return state

    def load_latest(self, job_id: str) -> tuple[dict, int] | None:
        """Newest checkpoint that validates, or None.

        Corrupted versions are counted and skipped — the fall-back-to-older
        behavior that makes ``checkpoint.corrupt`` chaos survivable.
        """
        for version in reversed(self.versions(job_id)):
            try:
                return self.load(job_id, version), version
            except CheckpointCorruptError:
                with self._lock:
                    self.corrupt_detected += 1
        return None


class TrainCheckpointer:
    """Per-job iteration hooks handed to the iterative trainers.

    ``iteration_done(t, state_fn)`` is called at every iteration boundary:
    it saves a checkpoint when ``t`` hits the interval (``state_fn`` is only
    invoked when a save is due), then gives the fault injector its
    ``ml.iteration_kill`` window.  Checkpoint *write* failures are swallowed
    — checkpointing is best-effort and must never fail a healthy run — but
    they are counted by the store and recorded by the injector.

    A checkpointer may exist without a store (``can_resume`` False): it then
    acts purely as the iteration-kill conduit for chaos runs that test the
    no-checkpoint recovery tiers.

    With a session :class:`~repro.runtime.budget.Budget` attached, the
    iteration boundary is also where trainers observe cancellation and
    deadlines: the budget check runs *after* the maybe-save, so an aborting
    trainer has always committed its last due checkpoint — a later retry of
    the same job id resumes instead of restarting.
    """

    def __init__(
        self,
        job_id: str,
        store: CheckpointStore | None = None,
        interval: int = 1,
        injector=None,
        budget=None,
    ):
        self.job_id = job_id
        self.store = store
        self.interval = max(int(interval), 1)
        self.injector = injector
        self.budget = budget
        self.saves = 0
        self.save_failures = 0
        self.restored_iteration: int | None = None

    @property
    def can_resume(self) -> bool:
        return self.store is not None

    def restore(self, algorithm: str) -> dict | None:
        """Latest valid state for this job, or None for a fresh start.

        ``algorithm`` guards against resuming one trainer from another's
        state (a stable job id reused across pipeline attempts must still
        never cross algorithms).
        """
        if self.store is None:
            return None
        loaded = self.store.load_latest(self.job_id)
        if loaded is None:
            return None
        state, _version = loaded
        if state.get("algorithm") != algorithm:
            return None
        self.restored_iteration = int(state.get("iteration", 0))
        return state

    def iteration_done(self, iteration: int, state_fn) -> None:
        """One iteration boundary: maybe save, then maybe stop.

        Order: save first (the last due checkpoint is always committed
        before an abort), then the budget check — raising the typed
        :class:`~repro.common.errors.SessionCancelled` /
        :class:`~repro.common.errors.DeadlineExceeded`, which are *not*
        ``MLError`` so the in-place training retry loop never swallows
        them — then the injected iteration-kill window.
        """
        if self.store is not None and iteration % self.interval == 0:
            try:
                self.store.save(self.job_id, state_fn())
                self.saves += 1
            except CheckpointError:
                self.save_failures += 1
        if self.budget is not None:
            self.budget.check(f"training iteration {iteration}")
        if self.injector is not None:
            self.injector.check_train_kill(self.job_id, iteration)
