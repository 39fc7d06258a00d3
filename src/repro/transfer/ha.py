"""Coordinator high availability: leader election, journaled takeover, and
client-side failover.

§6: "First, we need the coordinator service to be resilient itself.  This
can be achieved by using Zookeeper."  PR 2 built the pieces — a
ZooKeeperLite with ephemeral znodes/watches/CAS and a
:class:`~repro.transfer.zk.CoordinatorStateStore` that *wrote* session
state — but nothing ever read the journal back, so a coordinator death
still killed every in-flight session.  This module closes the loop:

* :class:`CoordinatorHAGroup` runs one leader plus standby
  :class:`~repro.transfer.coordinator.Coordinator` replicas.  The leader
  holds an **ephemeral lease znode** (``/coordinators/leader``) tied to its
  ZooKeeper session; standbys watch it.  When the lease vanishes (leader
  crash or session expiry) the watch fires, the next standby CAS-bumps the
  **fencing epoch** (``/coordinators/epoch``), takes the lease, and rebuilds
  every in-flight session's *control* state from the journal.
* :class:`ChannelRegistry` is the data plane's home: channels conceptually
  live on the worker hosts, not inside the coordinator process, so a
  takeover **re-attaches** the live channel objects (buffers, spill files,
  dedup sequence state intact) instead of replaying any data — a coordinator
  failover costs zero re-streamed bytes.
* :class:`FailoverCoordinator` is what clients (the stream table UDF,
  ``SQLStreamInputFormat``, the pipeline) actually talk to: it resolves the
  current leader from ZooKeeperLite before every handshake, and on
  :class:`~repro.common.errors.CoordinatorUnavailableError` retries against
  the new leader with :class:`~repro.faults.recovery.RetryPolicy` backoff —
  re-registering idempotently by ``(session_id, worker_id)`` /
  ``(session_id, channel_id)`` so a mid-handshake failover converges instead
  of double-registering.

Fencing: a deposed-but-alive leader (lease expiry, not crash) is stopped two
ways — its entry guard sees the lease holder changed, and any in-flight
journal write it races through is rejected because its
:class:`CoordinatorStateStore` is bound to a stale epoch.

Everything is off by default (``make_deployment(ha_standbys=0)``); the
non-HA byte ledgers stay bit-identical.
"""

import json
import threading

from repro.common.errors import (
    CoordinatorUnavailableError,
    RetriesExhaustedError,
    TransferError,
)
from repro.faults.recovery import RecoveryManager, RetryPolicy
from repro.sim.clock import WALL
from repro.transfer.coordinator import (
    DEFAULT_BATCH_ROWS,
    DEFAULT_BUFFER_BYTES,
    DEFAULT_K,
    DEFAULT_TIMEOUT_S,
    Coordinator,
)
from repro.transfer.zk import CoordinatorStateStore, ZkError, ZooKeeperLite

LEADER_PATH = "/coordinators/leader"
EPOCH_PATH = "/coordinators/epoch"


class ChannelRegistry:
    """Session channels, held where they really live: outside the coordinator.

    In the real system every stream channel is a TCP connection between a
    SQL worker and an ML worker — coordinator death does not touch it.  The
    in-process model must say so explicitly: channels register here at split
    planning, a replacement leader re-attaches them during
    :meth:`~repro.transfer.coordinator.Coordinator.adopt_sessions`, and only
    ``close_session`` drops them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._channels: dict[str, dict] = {}  # session_id -> {ChannelId: chan}

    def register(self, session_id: str, channels: dict) -> None:
        with self._lock:
            self._channels.setdefault(session_id, {}).update(channels)

    def channels_of(self, session_id: str) -> dict:
        with self._lock:
            return dict(self._channels.get(session_id, {}))

    def drop_session(self, session_id: str) -> None:
        with self._lock:
            self._channels.pop(session_id, None)


class CoordinatorHAGroup:
    """One leader + N standby coordinators behind a ZooKeeperLite lease."""

    def __init__(
        self,
        cluster,
        standbys: int = 1,
        launcher=None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        transport: str = "memory",
        recovery=None,
        fault_injector=None,
        admission=None,  # SessionAdmission | None — shared across replicas
        worker_pool=None,  # WorkerPoolScheduler | None — shared across replicas
        retry_budget=None,  # RetryTokenBucket | None — shared across replicas
        default_deadline_s=None,  # float | None — default session deadline
        clock=None,  # repro.sim.clock.Clock | None — group-wide time source
    ):
        if standbys < 1:
            raise TransferError("a HA group needs at least one standby")
        self.clock = clock or WALL
        self.cluster = cluster
        self.zk = ZooKeeperLite()
        self.zk.ensure_path("/coordinators")
        if not self.zk.exists(EPOCH_PATH):
            self.zk.create(EPOCH_PATH, b"0")
        if recovery is None and fault_injector is not None:
            recovery = RecoveryManager(injector=fault_injector, clock=self.clock)
        #: ONE RecoveryManager for the whole group: heartbeat history and
        #: restart budgets survive takeovers (in production this state would
        #: ride the journal; sharing the manager models the same guarantee).
        self.recovery = recovery
        #: same sharing argument for the multi-tenant pair: quota occupancy
        #: and worker-slot leases are cluster facts, not leader-process
        #: facts — one object each, every replica wired to it.
        self.admission = admission
        self.worker_pool = worker_pool
        #: retry budgets are a deployment-wide allowance, like quotas.
        self.retry_budget = retry_budget
        self.default_deadline_s = default_deadline_s
        self.default_k = DEFAULT_K
        self.buffer_bytes = buffer_bytes
        self.batch_rows = batch_rows
        self.timeout_s = timeout_s
        self.transport = transport
        self.registry = ChannelRegistry()
        self._mux_transports: dict = {}
        self.store = CoordinatorStateStore(self.zk, ledger=cluster.ledger)
        self.failovers = 0
        self._results: dict[str, tuple] = {}  # session -> (result, error)
        self._lock = threading.RLock()
        #: Notified whenever a replica takes the lease: ``await_leader``
        #: waits on this instead of polling, so election-gap waiters wake
        #: the instant the new term starts (and promptly on session cancel).
        self._leader_change = threading.Condition()
        self._last_leader: Coordinator | None = None
        self.coordinators: list[Coordinator] = []
        for i in range(standbys + 1):
            replica = Coordinator(
                cluster,
                launcher=launcher,
                buffer_bytes=buffer_bytes,
                batch_rows=batch_rows,
                timeout_s=timeout_s,
                transport=transport,
                recovery=self.recovery,
                coordinator_id=f"coordinator-{i}",
                channel_registry=self.registry,
                admission=admission,
                worker_pool=worker_pool,
                retry_budget=retry_budget,
                default_deadline_s=default_deadline_s,
                clock=self.clock,
            )
            replica.ha_group = self
            # The shared mux pairs are data plane, like the channel registry:
            # every replica multiplexes over the same per-worker socket pair,
            # so a takeover keeps in-flight tagged streams attached.
            replica._mux_transports = self._mux_transports
            self.coordinators.append(replica)
        self.proxy = FailoverCoordinator(self)
        self._elect(self.coordinators[0])

    # ----------------------------------------------------------- membership

    @property
    def injector(self):
        return self.recovery.injector if self.recovery is not None else None

    @property
    def replicas(self) -> list[Coordinator]:
        return list(self.coordinators)

    def leader_id(self) -> str | None:
        """Who holds the lease right now (None while leaderless)."""
        if not self.zk.exists(LEADER_PATH):
            return None
        data, _v = self.zk.get(LEADER_PATH)
        return json.loads(data.decode())["coordinator_id"]

    def leader(self) -> Coordinator | None:
        leader_id = self.leader_id()
        for replica in self.coordinators:
            if replica.coordinator_id == leader_id and replica.alive:
                return replica
        return None

    def await_leader(
        self, timeout: float | None = None, budget=None
    ) -> Coordinator:
        """The current leader, waiting through an election gap.

        Waits on the leader-change condition (notified by :meth:`_elect`),
        not a polling sleep: waiters wake the moment the new term starts.
        With a session budget the bound is clamped to its remaining time and
        a cancel wakes the wait immediately (the post-wake ``check`` turns
        it into the typed error).  The 50 ms re-check cap is a safety net
        for leadership changes that bypass this process's notifier, or that
        land between a leader check and the wait.
        """
        bound = timeout if timeout is not None else self.timeout_s
        if budget is not None:
            budget.check("leader wait")
            bound = budget.clamp(bound)
        deadline = self.clock.now() + bound
        dispose = (
            budget.on_cancel(self._notify_leader_change)
            if budget is not None
            else None
        )
        try:
            while True:
                # Resolve the leader outside the condition: ZooKeeperLite
                # runs the failover watch, which notifies this condition,
                # under its own lock, so holding the condition across a
                # ZooKeeper read would deadlock against a takeover.
                leader = self.leader()
                if leader is not None:
                    return leader
                if budget is not None:
                    budget.check("leader wait")
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    raise CoordinatorUnavailableError(
                        "no coordinator holds the leader lease "
                        f"(replicas: {[c.coordinator_id for c in self.coordinators]})"
                    )
                with self._leader_change:
                    self.clock.wait_on(self._leader_change, min(remaining, 0.05))
        finally:
            if dispose is not None:
                dispose()

    def _notify_leader_change(self) -> None:
        with self._leader_change:
            self._leader_change.notify_all()

    # ------------------------------------------------------------- election

    def _elect(self, replica: Coordinator) -> None:
        """Lease + fencing protocol, in the only safe order:

        1. (re)open the candidate's ZooKeeper session;
        2. take the lease — create the ephemeral leader znode;
        3. CAS-bump the fencing epoch, so every journal store bound to an
           older epoch starts refusing writes;
        4. rebuild session control state from the journal (adopt), then arm
           the watch for the *next* failover.
        """
        try:
            self.zk.start_session(replica.coordinator_id)
        except ZkError:
            pass  # still active from a previous term (lease loss, not crash)
        data, version = self.zk.get(EPOCH_PATH)
        epoch = int(data or b"0") + 1
        payload = json.dumps(
            {"coordinator_id": replica.coordinator_id, "epoch": epoch}
        ).encode()
        self.zk.create(LEADER_PATH, payload, ephemeral_owner=replica.coordinator_id)
        self.zk.set(EPOCH_PATH, str(epoch).encode(), expected_version=version)
        self._last_leader = replica
        replica.become_leader(self.store.for_epoch(epoch), epoch)
        self.zk.watch(LEADER_PATH, self._on_lease_event)
        self._notify_leader_change()

    def _on_lease_event(self, _path: str, event: str) -> None:
        if event != "deleted":
            self.zk.watch(LEADER_PATH, self._on_lease_event)  # re-arm
            return
        self._failover()

    def _failover(self) -> None:
        """The lease vanished: elect the next standby, synchronously.

        ZooKeeperLite delivers watches on the mutating call, so the whole
        takeover — lease, epoch bump, journal adoption — completes before
        ``expire_session`` returns, which keeps the chaos tests
        deterministic.
        """
        with self._lock:
            candidates = [
                c for c in self.coordinators if c.alive and c is not self._last_leader
            ]
            if not candidates and self._last_leader is not None and self._last_leader.alive:
                # Everyone else is dead; the deposed leader stands again.
                candidates = [self._last_leader]
            if not candidates:
                # Leaderless: clients get CoordinatorUnavailableError until
                # an operator revives a replica.  Re-arm for that day.
                self.zk.watch(LEADER_PATH, self._on_lease_event)
                return
            self.failovers += 1
            self.cluster.ledger.add("coordinator.failover", 1)
            self._elect(candidates[0])

    # --------------------------------------------------------- chaos hooks

    def kill_leader(self) -> None:
        """Crash the leader process (the ``coordinator.kill`` site): it stops
        serving immediately and its ZooKeeper session expires, which deletes
        the lease and triggers the election."""
        leader = self.leader()
        if leader is None:
            return
        leader.kill()
        self.zk.expire_session(leader.coordinator_id)

    def expire_leader_lease(self) -> None:
        """Expire only the leader's ZooKeeper session (the
        ``coordinator.lease_expire`` site): the process stays alive — the
        dangerous case fencing exists for."""
        leader = self.leader()
        if leader is None:
            return
        self.zk.expire_session(leader.coordinator_id)

    # ------------------------------------------------------ result routing

    def deliver_result(self, session_id: str, result, error) -> None:
        """Route a finished ML job's outcome to the *current* leader.

        The launch thread belongs to whichever replica launched the job; by
        completion time a different replica may lead.  The outcome is
        recorded on the group first (so a takeover racing this call replays
        it during adoption), then applied to the leader's session.
        """
        with self._lock:
            self._results[session_id] = (result, error)
        deadline = self.clock.now() + self.timeout_s
        while True:
            remaining = deadline - self.clock.now()
            if remaining <= 0:
                return  # leaderless; adoption will replay the result
            try:
                # await_leader blocks on the leader-change condition, so no
                # extra sleep is needed between attempts: a lost race with a
                # concurrent takeover just re-resolves immediately.
                leader = self.await_leader(timeout=remaining)
                leader.apply_result(session_id, result, error)
                return
            except CoordinatorUnavailableError:
                continue
            except TransferError:
                return  # session already closed — outcome is moot

    def replay_result(self, session_id: str, coordinator: Coordinator) -> None:
        """Adoption-time half of :meth:`deliver_result`: if the job finished
        while no (or another) leader was serving, apply the recorded outcome
        to the adopting replica's session."""
        with self._lock:
            entry = self._results.get(session_id)
        if entry is None:
            return
        result, error = entry
        with coordinator._lock:
            session = coordinator._sessions.get(session_id)
        if session is not None and not session.result_ready.is_set():
            coordinator._apply_result(session, result, error)

    def journal_dump(self) -> dict:
        """The ZK journal, decoded — uploaded as a CI artifact on failure."""
        return self.store.journal_dump()


class FailoverCoordinator:
    """The client-side failover handle implementing the coordinator API.

    Every handshake resolves the current leader from ZooKeeperLite, consults
    the chaos sites (``coordinator.kill`` / ``coordinator.lease_expire`` /
    ``handshake.drop``), and on :class:`CoordinatorUnavailableError` — or a
    fenced journal write surfacing mid-call — retries against the newly
    elected leader with backoff.  Retries after a *possible* partial
    application (lost response, mid-call failover) switch to the idempotent
    form of each handshake, so convergence never double-registers.
    """

    def __init__(self, group: CoordinatorHAGroup):
        self._group = group
        self._retry = RetryPolicy(
            max_attempts=8, base_delay_s=0.002, max_delay_s=0.05
        )

    def _backoff(self, delay: float) -> None:
        """Failover backoff that wakes early on a leader change.

        On the wall clock, waiting on the group's leader-change condition
        means a completed election cuts the backoff short.  Under a
        virtual clock the wait is a plain sleep: ``wait_on`` cannot
        distinguish a notify from a tick, and the retry loop re-resolves
        the leader either way.
        """
        clock = self._group.clock
        if clock.is_virtual:
            clock.sleep(delay)
            return
        cond = self._group._leader_change
        with cond:
            clock.wait_on(cond, delay)

    # --------------------------------------------- configuration passthrough

    @property
    def cluster(self):
        return self._group.cluster

    @property
    def recovery(self):
        return self._group.recovery

    @property
    def clock(self):
        return self._group.clock

    @property
    def admission(self):
        return self._group.admission

    @property
    def worker_pool(self):
        return self._group.worker_pool

    @property
    def retry_budget(self):
        return self._group.retry_budget

    @property
    def default_deadline_s(self):
        return self._group.default_deadline_s

    @property
    def default_k(self) -> int:
        return self._group.default_k

    @property
    def batch_rows(self) -> int:
        return self._group.batch_rows

    @property
    def buffer_bytes(self) -> int:
        return self._group.buffer_bytes

    @property
    def timeout_s(self) -> float:
        return self._group.timeout_s

    @property
    def transport(self) -> str:
        return self._group.transport

    @property
    def replicas(self) -> list[Coordinator]:
        return self._group.replicas

    @property
    def ha_group(self) -> CoordinatorHAGroup:
        return self._group

    @property
    def launcher(self):
        return self._group.coordinators[0].launcher

    # ----------------------------------------------------------- the proxy

    def _invoke(self, point: str, method: str, *args, retry_kwargs=None, **kwargs):
        group = self._group
        injector = group.injector
        retry_budget = getattr(group, "retry_budget", None)
        merged = dict(kwargs)
        attempt = 0
        started = group.clock.now()
        # Elapsed cap across *all* retry reasons: under sustained chaos the
        # per-reason attempt counters alone can stack into minutes; a client
        # call never outlives a few handshake timeouts' worth of wall clock.
        elapsed_cap = group.timeout_s * 4
        while True:
            if injector is not None:
                if injector.check_coordinator_kill(point):
                    group.kill_leader()
                if injector.check_lease_expire(point):
                    group.expire_leader_lease()
            try:
                leader = group.await_leader(timeout=group.timeout_s)
                result = getattr(leader, method)(*args, **merged)
            except (CoordinatorUnavailableError, ZkError) as exc:
                if isinstance(exc, ZkError) and "fenced" not in str(exc):
                    raise
                attempt += 1
                if attempt >= self._retry.max_attempts:
                    raise CoordinatorUnavailableError(
                        f"{method} failed {attempt} times across failovers: {exc}"
                    ) from exc
                if retry_budget is not None and not retry_budget.try_acquire():
                    raise RetriesExhaustedError(
                        f"{method}: deployment retry budget exhausted after "
                        f"{attempt} failover attempts: {exc}"
                    ) from exc
                # The call may have half-applied before the old leader fell
                # over; converge idempotently on the new one.
                if retry_kwargs:
                    merged = {**kwargs, **retry_kwargs}
                self._backoff(self._retry.delay_s(attempt - 1, key=method))
                continue
            if injector is not None and injector.check_handshake_drop(point):
                # The server applied the mutation but the response was lost:
                # the client re-issues the handshake, idempotently — but
                # bounded.  An injector configured to drop every response
                # must surface as a typed failure, not an infinite loop.
                attempt += 1
                if (
                    attempt >= self._retry.max_attempts
                    or group.clock.now() - started >= elapsed_cap
                ):
                    raise RetriesExhaustedError(
                        f"{method}: response dropped on every one of "
                        f"{attempt} handshake attempts"
                    )
                if retry_budget is not None and not retry_budget.try_acquire():
                    raise RetriesExhaustedError(
                        f"{method}: deployment retry budget exhausted after "
                        f"{attempt} dropped handshakes"
                    )
                if retry_kwargs:
                    merged = {**kwargs, **retry_kwargs}
                continue
            return result

    # -------------------------------------------------- coordinator API

    def create_session(self, session_id: str, **kwargs):
        return self._invoke(
            "create_session",
            "create_session",
            session_id,
            retry_kwargs={"exists_ok": True},
            **kwargs,
        )

    def session(self, session_id: str):
        return self._invoke("lookup", "session", session_id)

    def live_sessions(self) -> list[str]:
        return self._invoke("lookup", "live_sessions")

    def close_session(self, session_id: str) -> None:
        return self._invoke("close_session", "close_session", session_id)

    def cancel_session(self, session_id: str, reason: str = "client cancel") -> bool:
        return self._invoke("cancel_session", "cancel_session", session_id, reason)

    def register_sql_worker(
        self,
        session_id: str,
        worker_id: int,
        ip: str,
        total_workers: int,
        command: str | None = None,
        args: dict | None = None,
    ):
        return self._invoke(
            "pre_registration",
            "register_sql_worker",
            session_id,
            worker_id,
            ip,
            total_workers,
            command=command,
            args=args,
            retry_kwargs={"reregister_ok": True},
        )

    def plan_input_splits(self, session_id: str, requested: int | None):
        return self._invoke("split_plan", "plan_input_splits", session_id, requested)

    def split_location(self, session_id: str, channel_id) -> str:
        return self._invoke("lookup", "split_location", session_id, channel_id)

    def split_locations(self, session_id: str, channel_ids) -> dict:
        return self._invoke("lookup", "split_locations", session_id, channel_ids)

    def register_ml_worker(self, session_id: str, channel_id):
        return self._invoke(
            "post_split_plan",
            "register_ml_worker",
            session_id,
            channel_id,
            retry_kwargs={"reclaim_ok": True},
        )

    def sql_worker_channels(self, session_id: str, worker_id: int):
        return self._invoke("matchmaking", "sql_worker_channels", session_id, worker_id)

    def wait_result(self, session_id: str, timeout: float | None = None):
        return self._invoke("result", "wait_result", session_id, timeout=timeout)

    def notify_channel_failure(self, session_id: str, sql_worker_id: int, reason: str = ""):
        return self._invoke(
            "recovery", "notify_channel_failure", session_id, sql_worker_id, reason
        )

    def plan_partial_restart(self, session_id: str, sql_worker_id: int, reason: str = ""):
        return self._invoke(
            "recovery", "plan_partial_restart", session_id, sql_worker_id, reason
        )

    def record_heartbeat(self, session_id: str, worker_id: int) -> None:
        return self._invoke("mid_stream", "record_heartbeat", session_id, worker_id)

    def start_liveness_monitor(self, **kwargs):
        return self._group.await_leader().start_liveness_monitor(**kwargs)

    def stop_liveness_monitor(self) -> None:
        for replica in self._group.coordinators:
            replica.stop_liveness_monitor()
