"""Multi-tenant serving: admission control and shared-worker scheduling.

Everything before this module ran one streaming session at a time; the
coordinator protocol (§3) never said it had to.  Two small, independent
mechanisms make many concurrent prep+train sessions safe on one deployment:

* :class:`SessionAdmission` — a per-tenant quota gate in front of
  ``create_session``.  At most ``max_concurrent_sessions`` run at once and
  at most ``tenant_quotas[tenant]`` of them belong to one tenant; everyone
  else waits in a bounded FIFO queue.  Promotion is *fair* FIFO: a
  quota-blocked tenant's ticket is skipped (not cancelled) so one noisy
  tenant cannot head-of-line-block the rest of the queue.
* :class:`WorkerPoolScheduler` — fair slot leases over the shared ML worker
  pool.  Each streaming split drain holds one lease; when sessions contend,
  the next free slot goes to a waiter from the session holding the fewest
  slots, so k-reader sessions interleave instead of convoying.  This is
  sound without deadlock because SQL-side senders *never block*
  (:class:`~repro.transfer.buffers.SpillableBuffer.put` spills instead), so
  a reader waiting for a slot only delays its own drain.

Both are off by default (``make_deployment(max_concurrent_sessions=1)``
wires neither), and their counters — ``admission.queued``,
``admission.rejected``, ``scheduler.waits``, plus the overload-shedding
counters ``shed.expired``/``shed.preempted`` — are dedicated ledger
categories, so the fault-free Figure 3/4 byte totals stay bit-identical to
the seed unless a deployment opts in.

Both gates also accept an optional per-session
:class:`~repro.runtime.budget.Budget`: waits are clamped to the budget's
remaining time (one shared clock instead of stacked 30s+120s defaults)
and a cancelled budget *wakes* blocked waiters instead of letting them time
out.  Expired queue tickets are shed before promotion, and with
``tenant_priorities`` a full queue sheds its lowest-priority waiter to make
room for a higher-priority arrival.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.common.errors import AdmissionError
from repro.runtime.budget import Budget
from repro.sim.clock import WALL

DEFAULT_QUEUE_DEPTH = 64


@dataclass
class AdmissionStats:
    """Observability counters for one admission gate."""

    admitted: int = 0
    queued: int = 0
    rejected: int = 0
    timeouts: int = 0
    shed: int = 0
    peak_running: int = 0
    peak_queued: int = 0


@dataclass
class _Ticket:
    session_id: str
    tenant: str
    ready: threading.Event = field(default_factory=threading.Event)
    budget: Budget | None = None
    shed: str | None = None  # "deadline" | "preempted" once dropped from the queue


class SessionAdmission:
    """Per-tenant quotas plus a bounded, fair FIFO queue for sessions.

    ``acquire`` is idempotent by session id — the HA retry path re-issues
    ``create_session`` after a failover, and a session already counted as
    running must not be charged twice.
    """

    def __init__(
        self,
        max_concurrent_sessions: int,
        tenant_quotas: dict[str, int] | None = None,
        max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
        timeout_s: float = 30.0,
        ledger=None,
        tenant_priorities: dict[str, int] | None = None,
        clock=None,  # repro.sim.clock.Clock | None — queue-wait time source
    ):
        if max_concurrent_sessions < 1:
            raise AdmissionError(
                f"max_concurrent_sessions must be >= 1, got {max_concurrent_sessions}"
            )
        self.max_concurrent = int(max_concurrent_sessions)
        self.tenant_quotas = dict(tenant_quotas or {})
        self.max_queue_depth = int(max_queue_depth)
        self.timeout_s = timeout_s
        # Higher number = more important; unlisted tenants default to 0.
        # Only consulted when the queue overflows: a full queue sheds the
        # lowest-priority waiter to make room for a strictly-higher-priority
        # arrival, so background tenants shed first under overload.
        self.tenant_priorities = dict(tenant_priorities or {})
        self._clock = clock or WALL
        self._ledger = ledger
        self._running: dict[str, str] = {}  # session_id -> tenant
        self._queue: list[_Ticket] = []
        self._lock = threading.Lock()
        self.stats = AdmissionStats()

    # ------------------------------------------------------------- admission

    def _tenant_running(self, tenant: str) -> int:
        return sum(1 for t in self._running.values() if t == tenant)

    def _admissible(self, tenant: str) -> bool:
        """Caller holds the lock."""
        if len(self._running) >= self.max_concurrent:
            return False
        quota = self.tenant_quotas.get(tenant)
        return quota is None or self._tenant_running(tenant) < quota

    def _preemptable_locked(self, tenant: str) -> "_Ticket | None":
        """Pick the queued ticket to shed for a full-queue arrival of
        ``tenant``: the oldest waiter among those with the lowest priority,
        and only if strictly below the arrival's.  Caller holds the lock."""
        if not self.tenant_priorities:
            return None
        arrival = self.tenant_priorities.get(tenant, 0)
        victim = None
        victim_pri = arrival
        for ticket in self._queue:
            pri = self.tenant_priorities.get(ticket.tenant, 0)
            if pri < victim_pri:
                victim, victim_pri = ticket, pri
        return victim

    def acquire(
        self,
        session_id: str,
        tenant: str = "default",
        timeout_s: float | None = None,
        budget: Budget | None = None,
    ) -> bool:
        """Block until the session may run.  Returns True when this call
        admitted it, False when it was already running (idempotent retry).

        Raises :class:`AdmissionError` when the queue is full or the wait
        exceeds the timeout — the rejection never disturbs running sessions.
        With a ``budget``, the wait is clamped to ``budget.remaining()`` and
        an expired/cancelled budget surfaces as the typed ``DeadlineExceeded``
        / ``SessionCancelled`` instead of a retryable admission timeout.
        """
        if budget is not None:
            budget.check("admission")
        victim: _Ticket | None = None
        with self._lock:
            if session_id in self._running:
                return False
            if self._admissible(tenant):
                self._admit_locked(session_id, tenant)
                return True
            if len(self._queue) >= self.max_queue_depth:
                victim = self._preemptable_locked(tenant)
                if victim is None:
                    self.stats.rejected += 1
                    if self._ledger is not None:
                        self._ledger.add("admission.rejected", 1)
                    raise AdmissionError(
                        f"admission queue full ({self.max_queue_depth} waiting); "
                        f"session {session_id!r} of tenant {tenant!r} rejected"
                    )
                self._queue.remove(victim)
                victim.shed = "preempted"
                self.stats.shed += 1
                if self._ledger is not None:
                    self._ledger.add("shed.preempted", 1)
            ticket = _Ticket(session_id, tenant, budget=budget)
            self._queue.append(ticket)
            self.stats.queued += 1
            self.stats.peak_queued = max(self.stats.peak_queued, len(self._queue))
            if self._ledger is not None:
                self._ledger.add("admission.queued", 1)
        if victim is not None:
            victim.ready.set()
        effective = timeout_s if timeout_s is not None else self.timeout_s
        dispose = None
        if budget is not None:
            effective = budget.clamp(effective)
            dispose = budget.on_cancel(ticket.ready.set)
        try:
            signalled = self._clock.wait_until(ticket.ready, effective)
        finally:
            if dispose is not None:
                dispose()
        with self._lock:
            if ticket.shed is None and ticket not in self._queue:
                # Promoted — possibly in the race between wait() expiry (or a
                # cancel wake) and lock acquisition; the caller's own budget
                # check decides whether the admitted session still runs.
                return True
            if ticket in self._queue:
                self._queue.remove(ticket)
        if ticket.shed == "preempted":
            raise AdmissionError(
                f"session {session_id!r} of tenant {tenant!r} shed from the "
                f"admission queue by a higher-priority arrival "
                f"(priority {self.tenant_priorities.get(tenant, 0)})"
            )
        if budget is not None:
            if ticket.shed is None and (budget.cancelled or budget.expired):
                # Self-detected expiry/cancel: release() never saw this ticket.
                with self._lock:
                    self.stats.shed += 1
                if self._ledger is not None:
                    self._ledger.add("shed.expired", 1)
            budget.check("admission queue wait")  # raises the typed error
        if not signalled:
            with self._lock:
                self.stats.timeouts += 1
            raise AdmissionError(
                f"session {session_id!r} of tenant {tenant!r} waited "
                f"{effective}s for admission (quota "
                f"{self.tenant_quotas.get(tenant)}, "
                f"{len(self._running)}/{self.max_concurrent} running)"
            )
        return True

    def _admit_locked(self, session_id: str, tenant: str) -> None:
        self._running[session_id] = tenant
        self.stats.admitted += 1
        self.stats.peak_running = max(self.stats.peak_running, len(self._running))

    def release(self, session_id: str) -> None:
        """Free the session's slot and promote as many waiters as now fit
        (fair FIFO, skipping — not cancelling — quota-blocked tenants).
        Expired or cancelled tickets are shed *before* promotion so a free
        slot never goes to a session whose client has already given up."""
        promoted: list[_Ticket] = []
        shed: list[_Ticket] = []
        with self._lock:
            if self._running.pop(session_id, None) is None:
                # A queued session being torn down before it ever ran.
                self._queue = [t for t in self._queue if t.session_id != session_id]
                return
            for ticket in list(self._queue):
                b = ticket.budget
                if b is not None and (b.expired or b.cancelled):
                    self._queue.remove(ticket)
                    ticket.shed = "deadline"
                    self.stats.shed += 1
                    if self._ledger is not None:
                        self._ledger.add("shed.expired", 1)
                    shed.append(ticket)
            for ticket in list(self._queue):
                if not self._admissible(ticket.tenant):
                    continue
                self._queue.remove(ticket)
                self._admit_locked(ticket.session_id, ticket.tenant)
                promoted.append(ticket)
        for ticket in shed:
            ticket.ready.set()
        for ticket in promoted:
            ticket.ready.set()

    # --------------------------------------------------------- HA takeover

    def adopt(self, session_id: str, tenant: str) -> None:
        """Re-sync one journaled running session after a coordinator
        takeover (idempotent — the group-shared gate usually already has it)."""
        with self._lock:
            if session_id not in self._running:
                self._admit_locked(session_id, tenant)

    # ------------------------------------------------------- observability

    def queue_state(self) -> dict:
        """Snapshot: who runs, who waits, in what order."""
        with self._lock:
            return {
                "running": dict(self._running),
                "queued": [[t.session_id, t.tenant] for t in self._queue],
            }

    def running_count(self) -> int:
        with self._lock:
            return len(self._running)

    def queued_count(self) -> int:
        with self._lock:
            return len(self._queue)


class WorkerPoolScheduler:
    """Fair, leased sharing of the fixed ML worker pool across sessions.

    One lease = one worker slot draining one input split.  The grant rule is
    least-held-first: a waiter is granted a free slot only if no other
    *waiting* session holds fewer slots, which keeps a wide session (many
    splits) from starving a narrow one.
    """

    def __init__(
        self, total_slots: int, timeout_s: float = 120.0, ledger=None, clock=None
    ):
        if total_slots < 1:
            raise AdmissionError(f"total_slots must be >= 1, got {total_slots}")
        self.total_slots = int(total_slots)
        self.timeout_s = timeout_s
        self._clock = clock or WALL
        self._ledger = ledger
        self._free = int(total_slots)
        self._held: dict[str, int] = {}  # session -> slots held
        self._waiting: dict[str, int] = {}  # session -> waiters blocked
        self._cond = threading.Condition()
        self.waits = 0  # grants that had to block first
        self.peak_sessions = 0

    def _grantable(self, session_id: str) -> bool:
        """Caller holds the condition lock."""
        if self._free < 1:
            return False
        mine = self._held.get(session_id, 0)
        floor = min(
            (self._held.get(s, 0) for s in self._waiting if s != session_id),
            default=mine,
        )
        return mine <= floor

    @contextmanager
    def lease(
        self,
        session_id: str,
        timeout_s: float | None = None,
        budget: Budget | None = None,
    ):
        self.acquire_slot(session_id, timeout_s=timeout_s, budget=budget)
        try:
            yield
        finally:
            self.release_slot(session_id)

    def _wake_all(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def acquire_slot(
        self,
        session_id: str,
        timeout_s: float | None = None,
        budget: Budget | None = None,
    ) -> None:
        effective = timeout_s if timeout_s is not None else self.timeout_s
        dispose = None
        if budget is not None:
            budget.check("worker slot acquire")
            clamped = budget.clamp(effective)
            if clamped is not None:
                effective = clamped
            # Wake this waiter on cancel so it raises SessionCancelled
            # immediately instead of sitting out the slot timeout.
            dispose = budget.on_cancel(self._wake_all)
        deadline = self._clock.now() + effective
        try:
            with self._cond:
                waited = False
                try:
                    while not self._grantable(session_id):
                        if budget is not None:
                            budget.check("worker slot wait")
                        if not waited:
                            waited = True
                            self.waits += 1
                            if self._ledger is not None:
                                self._ledger.add("scheduler.waits", 1)
                            self._waiting[session_id] = (
                                self._waiting.get(session_id, 0) + 1
                            )
                        remaining = deadline - self._clock.now()
                        if remaining <= 0 or not self._clock.wait_on(
                            self._cond, remaining
                        ):
                            if budget is not None:
                                budget.check("worker slot wait")
                            raise AdmissionError(
                                f"session {session_id!r} waited {effective}s for a "
                                f"worker slot ({self.total_slots} total, "
                                f"{len(self._held)} sessions holding)"
                            )
                except BaseException:
                    if waited:
                        self._unwait_locked(session_id)
                    raise
                if waited:
                    self._unwait_locked(session_id)
                self._free -= 1
                self._held[session_id] = self._held.get(session_id, 0) + 1
                self.peak_sessions = max(self.peak_sessions, len(self._held))
        finally:
            if dispose is not None:
                dispose()

    def _unwait_locked(self, session_id: str) -> None:
        count = self._waiting.get(session_id, 0) - 1
        if count > 0:
            self._waiting[session_id] = count
        else:
            self._waiting.pop(session_id, None)

    def release_slot(self, session_id: str) -> None:
        with self._cond:
            held = self._held.get(session_id, 0)
            if held <= 1:
                self._held.pop(session_id, None)
            else:
                self._held[session_id] = held - 1
            self._free += 1
            self._cond.notify_all()
