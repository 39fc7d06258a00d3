"""ZooKeeperLite: the coordination substrate §6 calls for.

"First, we need the coordinator service to be resilient itself.  This can
be achieved by using Zookeeper."  This module provides the ZooKeeper
essentials in-process:

* a hierarchical namespace of *znodes*, each carrying bytes and a version
  (compare-and-set updates);
* *ephemeral* znodes bound to a client session — they vanish when the
  session closes or expires (how real coordinators detect dead workers);
* one-shot *watches* on node creation/change/deletion, delivered
  synchronously on the mutating call (deterministic for tests).

:class:`CoordinatorStateStore` builds on it to mirror every transfer
session's metadata (registration progress, command, configuration), so a
replacement coordinator can list and inspect in-flight sessions after the
original dies — the §6 resilience story at the metadata level.
"""

import json
import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.common.errors import TransferError


class ZkError(TransferError):
    """ZooKeeperLite namespace violation (missing node, bad version, ...)."""


@dataclass
class _Znode:
    data: bytes
    version: int = 0
    ephemeral_owner: str | None = None


def _validate(path: str) -> str:
    if not path.startswith("/") or path != "/" and path.endswith("/"):
        raise ZkError(f"bad znode path {path!r}")
    return path


def _parent(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


class ZooKeeperLite:
    """The coordination service: znodes + sessions + watches."""

    def __init__(self):
        self._nodes: dict[str, _Znode] = {"/": _Znode(b"")}
        self._sessions: set[str] = set()
        self._watches: dict[str, list[Callable[[str, str], None]]] = {}
        self._lock = threading.RLock()

    # --------------------------------------------------------------- session

    def start_session(self, client_id: str) -> None:
        """Register a client session (owner of future ephemerals)."""
        with self._lock:
            if client_id in self._sessions:
                raise ZkError(f"session {client_id!r} already active")
            self._sessions.add(client_id)

    def close_session(self, client_id: str) -> list[str]:
        """End a session; its ephemeral nodes are deleted (watches fire).
        Returns the removed paths."""
        with self._lock:
            self._sessions.discard(client_id)
            doomed = [
                path
                for path, node in self._nodes.items()
                if node.ephemeral_owner == client_id
            ]
            for path in sorted(doomed, key=len, reverse=True):
                self._delete_locked(path)
            return sorted(doomed)

    def expire_session(self, client_id: str) -> list[str]:
        """Server-side session expiry: the client missed its heartbeats.

        Semantically identical to :meth:`close_session` — ephemerals vanish
        and their watches fire — but it is the *coordination service's*
        verdict, not the client's choice, which is exactly how §6's failure
        detector learns that a worker died mid-transfer.  Raises if the
        session was never started (expiring nothing is a bug in the caller).
        """
        with self._lock:
            if client_id not in self._sessions:
                raise ZkError(f"no session {client_id!r} to expire")
            return self.close_session(client_id)

    # ----------------------------------------------------------------- CRUD

    def create(
        self,
        path: str,
        data: bytes = b"",
        ephemeral_owner: str | None = None,
    ) -> None:
        """Create a znode (parents must exist; fails if present)."""
        path = _validate(path)
        with self._lock:
            if path in self._nodes:
                raise ZkError(f"znode {path!r} already exists")
            if _parent(path) not in self._nodes:
                raise ZkError(f"parent of {path!r} does not exist")
            if ephemeral_owner is not None:
                if ephemeral_owner not in self._sessions:
                    raise ZkError(f"no session {ephemeral_owner!r}")
            self._nodes[path] = _Znode(data, ephemeral_owner=ephemeral_owner)
            self._fire(path, "created")

    def ensure_path(self, path: str) -> None:
        """Create a persistent node and all missing ancestors (idempotent)."""
        path = _validate(path)
        with self._lock:
            parts = [p for p in path.split("/") if p]
            current = ""
            for part in parts:
                current += "/" + part
                if current not in self._nodes:
                    self._nodes[current] = _Znode(b"")
                    self._fire(current, "created")

    def get(self, path: str) -> tuple[bytes, int]:
        """(data, version) of a znode."""
        path = _validate(path)
        with self._lock:
            node = self._nodes.get(path)
            if node is None:
                raise ZkError(f"no znode {path!r}")
            return node.data, node.version

    def set(self, path: str, data: bytes, expected_version: int | None = None) -> int:
        """Update data; with ``expected_version`` it is a compare-and-set.
        Returns the new version."""
        path = _validate(path)
        with self._lock:
            node = self._nodes.get(path)
            if node is None:
                raise ZkError(f"no znode {path!r}")
            if expected_version is not None and node.version != expected_version:
                raise ZkError(
                    f"version conflict on {path!r}: "
                    f"expected {expected_version}, is {node.version}"
                )
            node.data = data
            node.version += 1
            self._fire(path, "changed")
            return node.version

    def delete(self, path: str) -> None:
        """Delete a leaf znode."""
        path = _validate(path)
        with self._lock:
            if path not in self._nodes:
                raise ZkError(f"no znode {path!r}")
            if any(_parent(p) == path for p in self._nodes if p != path):
                raise ZkError(f"znode {path!r} has children")
            self._delete_locked(path)

    def exists(self, path: str) -> bool:
        with self._lock:
            return _validate(path) in self._nodes

    def children(self, path: str) -> list[str]:
        """Immediate child names (not full paths), sorted."""
        path = _validate(path)
        with self._lock:
            if path not in self._nodes:
                raise ZkError(f"no znode {path!r}")
            prefix = path if path != "/" else ""
            names = []
            for candidate in self._nodes:
                if candidate != path and _parent(candidate) == path:
                    names.append(candidate[len(prefix) + 1 :])
            return sorted(names)

    # --------------------------------------------------------------- watches

    def watch(self, path: str, callback: Callable[[str, str], None]) -> None:
        """One-shot watch: ``callback(path, event)`` fires on the next
        created/changed/deleted event for ``path``, then disarms."""
        path = _validate(path)
        with self._lock:
            self._watches.setdefault(path, []).append(callback)

    # ------------------------------------------------------------- internals

    def _delete_locked(self, path: str) -> None:
        del self._nodes[path]
        self._fire(path, "deleted")

    def _fire(self, path: str, event: str) -> None:
        callbacks = self._watches.pop(path, [])
        for callback in callbacks:
            callback(path, event)


class CoordinatorStateStore:
    """Replicated journal of transfer-session control state (§6 resilience).

    The coordinator versioned-writes every session mutation — create,
    SQL-worker registration, split plan, ML-worker claims, recovery-log
    entries, result status — as znodes under ``/coordinator/sessions/<id>``,
    and :meth:`session_view` reads it all back, so a standby coordinator can
    reconstruct :class:`~repro.transfer.coordinator.StreamSession` *control*
    state on takeover (channel buffers are data-plane state living on the
    worker hosts and are re-attached, not replayed — see DESIGN.md §9).

    Writes are fenced by leader epoch: a store bound to an epoch (via
    :meth:`for_epoch`) refuses to write once a newer leader has CAS-bumped
    the epoch znode, so a deposed leader that is still running cannot corrupt
    the journal mid-takeover.  Journal traffic is metered into the
    ``zk.journal`` ledger counter when a ledger is attached (off by default —
    the non-HA byte totals stay bit-identical).
    """

    ROOT = "/coordinator/sessions"
    EPOCH_PATH = "/coordinators/epoch"
    ADMISSION_PATH = "/coordinator/admission"

    def __init__(self, zk: ZooKeeperLite, ledger=None, fencing_epoch: int | None = None):
        self.zk = zk
        self.ledger = ledger
        #: leader term this store writes on behalf of; None = unfenced
        #: (the single-coordinator deployments of PR 2/3)
        self.fencing_epoch = fencing_epoch
        zk.ensure_path(self.ROOT)

    def for_epoch(self, epoch: int) -> "CoordinatorStateStore":
        """A fenced view of the same journal, bound to one leader term."""
        return CoordinatorStateStore(self.zk, ledger=self.ledger, fencing_epoch=epoch)

    # ------------------------------------------------------------- writing

    def _check_fence(self) -> None:
        if self.fencing_epoch is None or not self.zk.exists(self.EPOCH_PATH):
            return
        data, _v = self.zk.get(self.EPOCH_PATH)
        current = int(data or b"0")
        if current != self.fencing_epoch:
            raise ZkError(
                f"fenced: journal write from stale leader epoch "
                f"{self.fencing_epoch} (current epoch is {current})"
            )

    def _write(self, path: str, payload: bytes) -> None:
        """Fenced, versioned journal write (create, or CAS on the version
        just read — a concurrent stale-leader write loses the race loudly)."""
        self._check_fence()
        if self.zk.exists(path):
            _data, version = self.zk.get(path)
            self.zk.set(path, payload, expected_version=version)
        else:
            self.zk.create(path, payload)
        if self.ledger is not None:
            self.ledger.add("zk.journal", len(payload))

    def record_session(
        self,
        session_id: str,
        command: str | None,
        conf: dict,
        args: dict | None = None,
        settings: dict | None = None,
    ) -> None:
        base = f"{self.ROOT}/{session_id}"
        self.zk.ensure_path(base)
        self.zk.ensure_path(f"{base}/workers")
        self.zk.ensure_path(f"{base}/ml")
        self.zk.ensure_path(f"{base}/recovery")
        payload = json.dumps(
            {
                "command": command,
                "conf": conf,
                "args": args or {},
                "settings": settings or {},
            }
        ).encode()
        self._write(f"{base}/meta", payload)

    def record_worker(
        self, session_id: str, worker_id: int, ip: str, total_workers: int
    ) -> None:
        base = f"{self.ROOT}/{session_id}/workers"
        payload = json.dumps({"ip": ip, "total": total_workers}).encode()
        self._write(f"{base}/{worker_id}", payload)

    def record_splits(self, session_id: str, groups: dict) -> None:
        """Journal the split plan: SQL worker id -> its channel ids."""
        payload = json.dumps(
            {
                str(worker_id): [[cid.sql_worker_id, cid.index] for cid in group]
                for worker_id, group in groups.items()
            }
        ).encode()
        self._write(f"{self.ROOT}/{session_id}/splits", payload)

    def record_ml_claim(self, session_id: str, channel_id) -> None:
        """Journal one ML reader's split claim."""
        base = f"{self.ROOT}/{session_id}/ml"
        payload = json.dumps([channel_id.sql_worker_id, channel_id.index]).encode()
        self._write(f"{base}/{channel_id.index}", payload)

    def record_recovery(self, session_id: str, entry: dict) -> None:
        """Append one recovery-log entry (sequential child znodes)."""
        base = f"{self.ROOT}/{session_id}/recovery"
        if not self.zk.exists(base):
            self.zk.ensure_path(base)
        seq = len(self.zk.children(base))
        self._write(f"{base}/{seq:06d}", json.dumps(entry).encode())

    def record_status(self, session_id: str, status: str) -> None:
        self._write(f"{self.ROOT}/{session_id}/status", status.encode())

    def record_admission(self, state: dict) -> None:
        """Journal one admission transition (multi-tenant deployments; one
        znode, overwritten on every admit/release).

        The payload is the *transition* — event, session, tenant — not a
        snapshot of the whole running set: a snapshot's size depends on how
        many sessions happen to overlap, which is thread-interleaving noise,
        and the ``zk.journal`` byte total must stay a pure function of the
        workload so chaos fingerprints replay bit-identically.  A takeover
        audits tenant occupancy from the per-session journal entries (which
        carry tenant and status) rather than from this znode."""
        self._write(self.ADMISSION_PATH, json.dumps(state, sort_keys=True).encode())

    # ------------------------------------------------------------- reading

    def sessions(self) -> list[str]:
        return self.zk.children(self.ROOT)

    def session_view(self, session_id: str) -> dict:
        """Everything a replacement coordinator needs to know."""
        from repro.transfer.channel import ChannelId

        base = f"{self.ROOT}/{session_id}"
        meta, _v = self.zk.get(f"{base}/meta")
        view = json.loads(meta.decode())
        workers = {}
        for name in self.zk.children(f"{base}/workers"):
            data, _v = self.zk.get(f"{base}/workers/{name}")
            workers[int(name)] = json.loads(data.decode())
        view["workers"] = workers
        if self.zk.exists(f"{base}/splits"):
            raw, _v = self.zk.get(f"{base}/splits")
            view["groups"] = {
                int(worker_id): [ChannelId(w, i) for w, i in group]
                for worker_id, group in json.loads(raw.decode()).items()
            }
        else:
            view["groups"] = None
        claims = []
        if self.zk.exists(f"{base}/ml"):
            for name in self.zk.children(f"{base}/ml"):
                data, _v = self.zk.get(f"{base}/ml/{name}")
                w, i = json.loads(data.decode())
                claims.append(ChannelId(w, i))
        view["ml_claims"] = claims
        log = []
        if self.zk.exists(f"{base}/recovery"):
            for name in self.zk.children(f"{base}/recovery"):
                data, _v = self.zk.get(f"{base}/recovery/{name}")
                log.append(json.loads(data.decode()))
        view["recovery_log"] = log
        if self.zk.exists(f"{base}/status"):
            status, _v = self.zk.get(f"{base}/status")
            view["status"] = status.decode()
        else:
            view["status"] = "registering"
        return view

    def journal_dump(self) -> dict:
        """Every znode under the journal root, decoded — the CI artifact a
        failed chaos run uploads so takeover state can be inspected."""
        dump = {}
        with self.zk._lock:
            paths = sorted(p for p in self.zk._nodes if p.startswith("/coordinator"))
        for path in paths:
            try:
                data, version = self.zk.get(path)
            except ZkError:
                continue
            dump[path] = {
                "version": version,
                "data": data.decode("utf-8", errors="replace"),
            }
        return dump
