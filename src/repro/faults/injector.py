"""Deterministic, seed-driven fault injection for the transfer stack.

§6 describes the failure modes of the integration pipeline — worker crashes
during the parallel streaming transfer, lost/stalled channels, and broker
replay after a consumer dies before committing — but a reproduction can only
*test* them if failures arrive on demand and identically run after run.  The
:class:`FaultInjector` is that chaos source: every decision draws from a
per-site :func:`repro.common.rng.derive_seed_stable` stream, so outcomes are
independent of thread interleaving (each SQL worker, channel, and broker
partition owns its own RNG), and two runs with the same seed inject the
exact same faults at the exact same points.

Injection sites (all no-ops when the matching rate/point is unset):

* ``check_kill(worker_id, rows_streamed)`` — SQL-worker crash, by
  deterministic point (``kill_at``) or per-block probability;
* ``check_ml_kill(index, rows_read)`` — ML-reader crash at a
  deterministic point (``kill_ml_at``; recovered at the pipeline tier);
* ``check_send(channel_key)`` — transient channel loss
  (:class:`~repro.common.errors.ChannelTimeoutError`) or a stall
  (sleep) on one send;
* ``corrupt_fetch(payload, site)`` — bit-flips a broker record in flight;
* ``check_duplicate_fetch(site)`` — re-delivers a broker fetch, modelling a
  consumer that died after processing but before committing;
* ``check_train_kill(job_id, iteration)`` — the ``ml.iteration_kill`` site:
  crashes iterative training at an iteration boundary (one-shot; recovered
  by checkpoint resume or the lineage replay ladder);
* ``check_checkpoint_write(site)`` — the ``checkpoint.write_fail`` site:
  fails a checkpoint commit between tmp-write and rename;
* ``corrupt_checkpoint(payload, site)`` — the ``checkpoint.corrupt`` site:
  flips a payload byte after the checksum is computed, so loads detect it;
* ``check_coordinator_kill(point)`` / ``check_lease_expire(point)`` /
  ``check_handshake_drop(point)`` — the coordinator-HA sites: crash the
  leader, expire its ZooKeeper lease, or lose one handshake response at a
  named failover point (recovered by leader election + idempotent
  re-handshake; see :mod:`repro.transfer.ha`);
* ``corrupt_replica(payload, site)`` — the ``dfs.replica_corrupt`` site:
  damages a freshly written block replica *after* its checksum is
  recorded, so every verified read detects it (recovered by reader
  failover + scanner repair from a healthy copy);
* ``check_dfs_read(site)`` — the ``dfs.read_error`` site: one replica
  read fails transiently (recovered by reader failover);
* ``check_datanode_down(index, ops)`` — the ``dfs.datanode_down`` site:
  one-shot death of one DataNode after it has served a given number of
  block operations (recovered by failover + re-replication);
* ``check_dfs_enospc(site)`` — the ``dfs.enospc`` site: one replica write
  hits a full disk (recovered by write redirection, spill fallback, or
  the checkpoint prune-and-retry ladder).

Every injected event is recorded in :attr:`FaultInjector.events` so tests
and the chaos benchmark can assert exactly what happened.
"""

import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.common.errors import (
    BlockError,
    ChannelTimeoutError,
    CheckpointError,
    StorageFullError,
    TrainingInterrupted,
    WorkerFailedError,
)
from repro.common.rng import derive_seed_stable, make_rng

#: The §6 pipeline's retry-attempt naming (``<session>_a<N>``); stripped
#: when scoping one-shot kills so every attempt of one logical session
#: shares the same bookkeeping.
_ATTEMPT_SUFFIX = re.compile(r"_a\d+$")


@dataclass(frozen=True)
class FaultConfig:
    """What to inject, how often, and where.

    Rates are per-opportunity probabilities (per block sent, per fetch).
    ``kill_at`` pins deterministic crashes: ``{worker_id: row_index}`` kills
    that SQL worker the first time it has streamed >= ``row_index`` rows.
    Budgets (``max_kills``, ``max_events``) bound rate-driven chaos so a
    seeded run always terminates.
    """

    seed: int = 0
    #: deterministic kills: SQL worker id -> row index of the crash
    kill_at: dict[int, int] = field(default_factory=dict)
    #: deterministic ML-reader kills: split index -> rows read at the crash
    kill_ml_at: dict[int, int] = field(default_factory=dict)
    #: probability a SQL worker dies at each block boundary
    kill_sql_worker_rate: float = 0.0
    #: probability one channel send fails transiently (retryable timeout)
    send_drop_rate: float = 0.0
    #: probability one channel send stalls for ``stall_seconds``
    send_stall_rate: float = 0.0
    stall_seconds: float = 0.0
    #: probability one broker fetch arrives corrupted (re-fetch recovers)
    broker_corrupt_rate: float = 0.0
    #: probability one broker fetch is re-delivered (at-least-once replay)
    broker_duplicate_rate: float = 0.0
    #: probability one broker append fails transiently before commit
    producer_drop_rate: float = 0.0
    #: deterministic training crash: kill the first ML training job that
    #: completes this many iterations (0 = off; one-shot, like ``kill_at``)
    kill_train_at: int = 0
    #: probability one checkpoint commit fails between write and rename
    checkpoint_write_fail_rate: float = 0.0
    #: probability one checkpoint payload is corrupted after checksumming
    checkpoint_corrupt_rate: float = 0.0
    #: the ``coordinator.kill`` site: one-shot crash of the *leader*
    #: coordinator the next time a client handshake hits this failover
    #: point ("create_session" / "pre_registration" / "split_plan" /
    #: "post_split_plan" / "matchmaking" / "mid_stream" / "result")
    kill_coordinator_at: str = ""
    #: occurrences of the point to let pass before the kill fires (lets
    #: "mid_stream" mean *mid*, not the first heartbeat)
    coordinator_kill_skip: int = 0
    #: the ``coordinator.lease_expire`` site: one-shot expiry of the
    #: leader's ZooKeeper session at a failover point — the process stays
    #: alive but loses its lease (and must be fenced out of the journal)
    lease_expire_at: str = ""
    lease_expire_skip: int = 0
    #: the ``handshake.drop`` site: one-shot loss of a handshake *response*
    #: at a failover point — the mutation applied server-side, the client
    #: never heard, and must re-issue the call idempotently
    handshake_drop_at: str = ""
    #: probability any handshake response is dropped (budgeted)
    handshake_drop_rate: float = 0.0
    #: probability a freshly written block replica is stored damaged
    #: (bytes flipped after the checksum was recorded, so reads detect it)
    dfs_replica_corrupt_rate: float = 0.0
    #: probability one replica read fails transiently (reader fails over)
    dfs_read_error_rate: float = 0.0
    #: the ``dfs.datanode_down`` site: index of the DataNode to kill
    #: one-shot (-1 = off) ...
    dfs_kill_datanode: int = -1
    #: ... after it has served this many block operations (0 = dead from
    #: its first operation on)
    dfs_kill_datanode_after: int = 0
    #: probability one replica write hits an injected full disk
    dfs_enospc_rate: float = 0.0
    #: scope point-kill one-shots per logical session instead of globally.
    #: Off (the seed behavior), ``kill_at`` / ``kill_ml_at`` fire exactly
    #: once per deployment — whichever stream crosses the row threshold
    #: first eats the kill, which is interleaving-dependent when sessions
    #: run concurrently.  On (set by the chaos schedule compiler), every
    #: logical session hits its kill point exactly once, so the victim set
    #: is a pure function of the schedule.
    scoped_kills: bool = False
    #: cap on rate-driven kills (None = unlimited; kill_at is separate)
    max_kills: int | None = 1
    #: cap on all transient events — drops, stalls, corruptions, duplicates
    max_events: int | None = None

    @property
    def any_faults(self) -> bool:
        return bool(
            self.kill_at
            or self.kill_ml_at
            or self.kill_sql_worker_rate
            or self.send_drop_rate
            or self.send_stall_rate
            or self.broker_corrupt_rate
            or self.broker_duplicate_rate
            or self.producer_drop_rate
            or self.kill_train_at
            or self.checkpoint_write_fail_rate
            or self.checkpoint_corrupt_rate
            or self.kill_coordinator_at
            or self.lease_expire_at
            or self.handshake_drop_at
            or self.handshake_drop_rate
            or self.dfs_replica_corrupt_rate
            or self.dfs_read_error_rate
            or self.dfs_kill_datanode >= 0
            or self.dfs_enospc_rate
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-hoc assertions."""

    kind: str  # kill | drop | stall | corrupt | duplicate | producer_drop
    site: str  # worker/channel/partition identifier


class FaultInjector:
    """Seeded chaos source consulted by the transfer stack at each site."""

    def __init__(self, config: FaultConfig | None = None, sleep=time.sleep, clock=None):
        self.config = config or FaultConfig()
        # Stall sleeps go through the injected clock when one is named, so a
        # virtual-time chaos run pays stall_seconds in virtual time only.
        if clock is not None and sleep is time.sleep:
            sleep = clock.sleep
        self._sleep = sleep
        self._lock = threading.Lock()
        self._rngs: dict[str, object] = {}
        #: (scope, index) pairs already point-killed.  The scope — the
        #: session id at the streaming call sites — keeps the one-shot
        #: bookkeeping per-session: with concurrent sessions sharing one
        #: injector, a bare index would hand the kill to whichever session
        #: crossed the row threshold first (thread-arrival order), making
        #: the victim interleaving-dependent.
        self._killed: set[tuple[str, int]] = set()
        self._killed_ml: set[tuple[str, int]] = set()
        self._killed_train = False  # the one-shot ml.iteration_kill fired
        self._coordinator_killed = False  # the one-shot coordinator.kill fired
        self._lease_expired = False  # the one-shot coordinator.lease_expire fired
        self._handshake_dropped = False  # the one-shot handshake.drop fired
        self._datanode_killed = False  # the one-shot dfs.datanode_down fired
        self._point_hits = Counter()  # (site, point) -> handshakes seen
        self._kills = 0
        self._events_used = 0
        self.events: list[FaultEvent] = []
        self.counts: Counter = Counter()

    @classmethod
    def disabled(cls) -> "FaultInjector":
        """An installed-but-inert injector (the fault-free invariance case)."""
        return cls(FaultConfig())

    @property
    def enabled(self) -> bool:
        return self.config.any_faults

    # ------------------------------------------------------------- plumbing

    def _rng(self, site: str):
        """The per-site RNG stream (deterministic under thread interleaving)."""
        with self._lock:
            rng = self._rngs.get(site)
            if rng is None:
                rng = make_rng(derive_seed_stable(self.config.seed, site))
                self._rngs[site] = rng
            return rng

    def _record(self, kind: str, site: str) -> None:
        with self._lock:
            self.events.append(FaultEvent(kind, site))
            self.counts[kind] += 1

    def _take_event_budget(self) -> bool:
        with self._lock:
            if (
                self.config.max_events is not None
                and self._events_used >= self.config.max_events
            ):
                return False
            self._events_used += 1
            return True

    def _take_kill_budget(self) -> bool:
        with self._lock:
            if self.config.max_kills is not None and self._kills >= self.config.max_kills:
                return False
            self._kills += 1
            return True

    # ------------------------------------------------------ streaming sites

    def _kill_scope(self, scope: str) -> str:
        """One-shot bookkeeping key for point kills.  Globally scoped by
        default (the kill fires once per deployment); with
        ``scoped_kills`` every logical session keeps its own bookkeeping.
        The §6 pipeline names retry attempts ``<session>_a<N>``, and a
        retried attempt must share its predecessor's scope (the
        replacement survives) while concurrent sessions keep their own."""
        if not self.config.scoped_kills:
            return ""
        return _ATTEMPT_SUFFIX.sub("", scope)

    def check_kill(self, worker_id: int, rows_streamed: int, scope: str = "") -> None:
        """Crash this SQL worker if its point or rate says so (raises
        :class:`WorkerFailedError`).  ``scope`` (the session id) makes the
        one-shot bookkeeping per-session, so concurrent sessions each hit
        the kill point deterministically instead of racing for one kill."""
        if not self.enabled:
            return
        scope = self._kill_scope(scope)
        point = self.config.kill_at.get(worker_id)
        if point is not None and rows_streamed >= point:
            with self._lock:
                if (scope, worker_id) in self._killed:
                    point = None  # one-shot: the replacement worker survives
                else:
                    self._killed.add((scope, worker_id))
            if point is not None:
                self._record("kill", f"sql-worker-{worker_id}")
                raise WorkerFailedError(
                    f"injected crash of SQL worker {worker_id} "
                    f"after {rows_streamed} rows",
                    worker_id=worker_id,
                )
        rate = self.config.kill_sql_worker_rate
        if rate and self._rng(f"kill/{worker_id}").random() < rate:
            if self._take_kill_budget():
                self._record("kill", f"sql-worker-{worker_id}")
                raise WorkerFailedError(
                    f"injected crash of SQL worker {worker_id} "
                    f"after {rows_streamed} rows",
                    worker_id=worker_id,
                )

    def check_ml_kill(self, index: int, rows_read: int, scope: str = "") -> None:
        """Crash one ML reader at its ``kill_ml_at`` point (one-shot per
        ``scope`` — the session id; raises :class:`WorkerFailedError`).

        A dead ML reader is the *fatal* tier of §6 — its split cannot be
        handed to anyone else mid-stream — so recovery happens one level up:
        the session fails and the pipeline re-runs the transfer
        (``max_attempts``) or degrades to the DFS path.
        """
        if not self.enabled:
            return
        scope = self._kill_scope(scope)
        point = self.config.kill_ml_at.get(index)
        if point is None or rows_read < point:
            return
        with self._lock:
            if (scope, index) in self._killed_ml:
                return  # one-shot: the retried attempt's reader survives
            self._killed_ml.add((scope, index))
        self._record("kill_ml", f"ml-reader-{index}")
        raise WorkerFailedError(
            f"injected crash of ML reader {index} after {rows_read} rows",
            worker_id=index,
        )

    def check_send(self, channel_key: str) -> None:
        """Transient channel fault on one send: drop (raises a retryable
        :class:`ChannelTimeoutError`) or stall (sleeps)."""
        if not self.enabled:
            return
        rng = self._rng(f"send/{channel_key}")
        if self.config.send_drop_rate and rng.random() < self.config.send_drop_rate:
            if self._take_event_budget():
                self._record("drop", channel_key)
                raise ChannelTimeoutError(
                    f"injected send timeout on channel {channel_key}"
                )
        if self.config.send_stall_rate and rng.random() < self.config.send_stall_rate:
            if self._take_event_budget():
                self._record("stall", channel_key)
                if self.config.stall_seconds > 0:
                    self._sleep(self.config.stall_seconds)

    # ------------------------------------------------ coordinator HA sites

    def check_coordinator_kill(self, point: str) -> bool:
        """The ``coordinator.kill`` site: True when the leader coordinator
        should crash at this failover point (one-shot; the caller — the
        failover proxy — performs the kill so the election is observable)."""
        if not self.enabled or self.config.kill_coordinator_at != point:
            return False
        with self._lock:
            if self._coordinator_killed:
                return False
            self._point_hits[("coordinator_kill", point)] += 1
            if (
                self._point_hits[("coordinator_kill", point)]
                <= self.config.coordinator_kill_skip
            ):
                return False
            self._coordinator_killed = True
        self._record("coordinator_kill", f"coordinator@{point}")
        return True

    def check_lease_expire(self, point: str) -> bool:
        """The ``coordinator.lease_expire`` site: True when the leader's
        ZooKeeper session should expire at this failover point (one-shot;
        the leader process survives but is deposed and fenced)."""
        if not self.enabled or self.config.lease_expire_at != point:
            return False
        with self._lock:
            if self._lease_expired:
                return False
            self._point_hits[("lease_expire", point)] += 1
            if self._point_hits[("lease_expire", point)] <= self.config.lease_expire_skip:
                return False
            self._lease_expired = True
        self._record("lease_expire", f"coordinator@{point}")
        return True

    def check_handshake_drop(self, point: str) -> bool:
        """The ``handshake.drop`` site: True when this handshake's *response*
        is lost on the wire — the server-side mutation happened, but the
        client must re-issue the call idempotently."""
        if not self.enabled:
            return False
        if self.config.handshake_drop_at == point:
            fire = False
            with self._lock:
                if not self._handshake_dropped:
                    self._handshake_dropped = True
                    fire = True
            if fire:
                self._record("handshake_drop", f"handshake@{point}")
                return True
        rate = self.config.handshake_drop_rate
        if rate and self._rng(f"handshake/{point}").random() < rate:
            if self._take_event_budget():
                self._record("handshake_drop", f"handshake@{point}")
                return True
        return False

    # ------------------------------------------- ML training / checkpoints

    def check_train_kill(self, job_id: str, iteration: int) -> None:
        """The ``ml.iteration_kill`` site: crash iterative training at an
        iteration boundary (one-shot — the resumed/replayed run survives).

        Fires *after* the iteration's checkpoint window, so a checkpointing
        run resumes from exactly the killed iteration and stays
        weight-for-weight identical to an uninterrupted run.
        """
        if not self.enabled:
            return
        point = self.config.kill_train_at
        if not point or iteration < point:
            return
        with self._lock:
            if self._killed_train:
                return
            self._killed_train = True
        self._record("iteration_kill", f"ml-train-{job_id}")
        raise TrainingInterrupted(
            f"injected training crash of job {job_id!r} at iteration {iteration}",
            iteration=iteration,
        )

    def check_checkpoint_write(self, site: str) -> None:
        """The ``checkpoint.write_fail`` site: fail one checkpoint commit in
        the write-then-rename window (the tmp file exists, the committed
        name never appears — atomicity keeps older checkpoints valid)."""
        if not self.enabled:
            return
        rate = self.config.checkpoint_write_fail_rate
        if rate and self._rng(f"ckptw/{site}").random() < rate:
            if self._take_event_budget():
                self._record("checkpoint_write_fail", site)
                raise CheckpointError(f"injected checkpoint write failure at {site}")

    def corrupt_checkpoint(self, payload: bytes, site: str) -> bytes:
        """The ``checkpoint.corrupt`` site: flip one payload byte *after*
        the store computed its checksum, so every load detects the damage
        and falls back to the previous version (or a fresh start)."""
        if not self.enabled or not self.config.checkpoint_corrupt_rate:
            return payload
        if self._rng(f"ckptc/{site}").random() < self.config.checkpoint_corrupt_rate:
            if self._take_event_budget() and payload:
                self._record("checkpoint_corrupt", site)
                return payload[:-1] + bytes([payload[-1] ^ 0xFF])
        return payload

    # -------------------------------------------------------- storage sites

    def corrupt_replica(self, payload: bytes, site: str) -> bytes:
        """The ``dfs.replica_corrupt`` site: return a damaged copy of a
        block replica being stored.  The DataNode calls this *after*
        recording the checksum, so the rot is always detectable — a flipped
        middle byte models the classic silent single-bit disk error."""
        if not self.enabled or not self.config.dfs_replica_corrupt_rate:
            return payload
        if self._rng(f"dfscorrupt/{site}").random() < self.config.dfs_replica_corrupt_rate:
            if self._take_event_budget() and payload:
                self._record("replica_corrupt", site)
                mid = len(payload) // 2
                return payload[:mid] + bytes([payload[mid] ^ 0xFF]) + payload[mid + 1 :]
        return payload

    def check_dfs_read(self, site: str) -> None:
        """The ``dfs.read_error`` site: fail one replica read transiently
        (raises :class:`BlockError`; the reader fails over to the next
        replica).  ``site`` includes the reading client, so each client
        owns its own RNG stream and concurrent readers stay deterministic."""
        if not self.enabled:
            return
        rate = self.config.dfs_read_error_rate
        if rate and self._rng(f"dfsread/{site}").random() < rate:
            if self._take_event_budget():
                self._record("dfs_read_error", site)
                raise BlockError(f"injected replica read error at {site}")

    def check_datanode_down(self, index: int, ops: int) -> bool:
        """The ``dfs.datanode_down`` site: True when DataNode ``index``
        should go down, one-shot, once it has served
        ``dfs_kill_datanode_after`` block operations."""
        if not self.enabled or self.config.dfs_kill_datanode != index:
            return False
        if ops < self.config.dfs_kill_datanode_after:
            return False
        with self._lock:
            if self._datanode_killed:
                return False
            self._datanode_killed = True
        self._record("datanode_down", f"datanode-{index}")
        return True

    def check_dfs_enospc(self, site: str) -> None:
        """The ``dfs.enospc`` site: one replica write hits a full disk
        (raises :class:`StorageFullError`; the writer redirects the replica
        or escalates through the caller's ladder)."""
        if not self.enabled:
            return
        rate = self.config.dfs_enospc_rate
        if rate and self._rng(f"dfsenospc/{site}").random() < rate:
            if self._take_event_budget():
                self._record("enospc", site)
                raise StorageFullError(f"injected ENOSPC at {site}")

    # --------------------------------------------------------- broker sites

    def check_producer_append(self, site: str) -> None:
        """Transient append failure *before* the broker commits the record —
        safe to retry without duplication."""
        if not self.enabled:
            return
        rate = self.config.producer_drop_rate
        if rate and self._rng(f"produce/{site}").random() < rate:
            if self._take_event_budget():
                self._record("producer_drop", site)
                raise ChannelTimeoutError(f"injected append timeout at {site}")

    def corrupt_fetch(self, payload: bytes, site: str) -> bytes:
        """Possibly return a bit-flipped copy of a fetched broker record."""
        if not self.enabled or not self.config.broker_corrupt_rate:
            return payload
        if self._rng(f"corrupt/{site}").random() < self.config.broker_corrupt_rate:
            if self._take_event_budget():
                self._record("corrupt", site)
                # Flip the trailing pickle STOP byte: every frame body ends
                # in it, so the decoder rejects the result — corruption is
                # always *detectable*.
                return payload[:-1] + bytes([payload[-1] ^ 0xFF])
        return payload

    def check_duplicate_fetch(self, site: str) -> bool:
        """True when this fetch should be re-delivered (consumer died after
        processing, before committing — the at-least-once window)."""
        if not self.enabled or not self.config.broker_duplicate_rate:
            return False
        if self._rng(f"dup/{site}").random() < self.config.broker_duplicate_rate:
            if self._take_event_budget():
                self._record("duplicate", site)
                return True
        return False
