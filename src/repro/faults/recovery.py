"""§6 executed: retries, heartbeat failure detection, partial restart.

The paper's fault-tolerance story for the parallel streaming transfer has
three tiers, and this module drives all of them:

1. **Transient channel faults** retry in place — exponential backoff with
   seeded jitter (:class:`RetryPolicy`), so a blip never aborts a transfer.
2. **A dead SQL worker** triggers a *partial restart*: the coordinator's
   :meth:`~repro.transfer.coordinator.StreamSession.restart_plan` names the
   failed worker and the k ML workers paired with it, and only those
   endpoints restart.  The replacement worker re-streams its partition from
   the beginning with the same per-channel block sequence numbers; receivers
   drop already-accepted blocks, so the ML boundary sees each logical row
   exactly once.  Re-sent bytes are charged to the separate ``stream.retry``
   ledger counter — the fault-free byte accounting stays invariant.
3. **Exhausted budgets** escalate: :class:`RetriesExhaustedError` fails the
   session, and the pipeline either restarts from scratch (``max_attempts``)
   or degrades to the materialize-to-DFS path
   (``run_insql_stream(degrade_to_dfs=True)``).

Failure *detection* is heartbeat-based: streaming workers beat once per
block via :meth:`RecoveryManager.heartbeat`; :meth:`stale_workers` reports
everyone whose last beat is older than the timeout.  The clock is
injectable, so detection is testable without waiting.
"""

import threading
import time
from dataclasses import dataclass, field

from repro.common.errors import ChannelTimeoutError, RetriesExhaustedError
from repro.common.rng import derive_seed_stable, make_rng
from repro.faults.injector import FaultInjector
from repro.sim.clock import WALL, Clock


def _clock_callables(clock, sleep) -> tuple:
    """Accept a :class:`repro.sim.clock.Clock` *or* the legacy
    ``(clock, sleep)`` callable pair the tests inject; an explicit sleep
    callable always wins over the clock object's."""
    if isinstance(clock, Clock):
        return clock, clock.now, (clock.sleep if sleep is time.sleep else sleep)
    return WALL, clock, sleep


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    Delay of attempt ``i`` (0-based) is ``base * multiplier**i``, capped at
    ``max_delay_s``, then multiplied by ``1 + U(0, jitter)`` drawn from a
    per-key RNG stream — deterministic for a given (seed, key, attempt) and
    decorrelated across channels, which is what jitter is for.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 0.050
    jitter: float = 0.5
    seed: int = 0

    def delay_s(self, attempt: int, key: str = "") -> float:
        delay = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
        if self.jitter:
            rng = make_rng(derive_seed_stable(self.seed, "retry", key, attempt))
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


@dataclass(frozen=True)
class MLRecoveryEvent:
    """One ML-stage recovery action, in escalation-ladder order.

    ``tier`` is one of ``resume_checkpoint`` (training retried in place
    from the latest checkpoint), ``replay_cache`` (input rebuilt from a §5
    cached view / recode map), ``replay_query`` (input rebuilt by re-running
    the rewritten transform query), ``full_restart`` (ladder exhausted —
    the pipeline-tier attempt loop or DFS degradation takes over).
    """

    job_id: str
    tier: str
    reason: str


@dataclass(frozen=True)
class RestartEvent:
    """One executed partial restart, for assertions and reporting."""

    session_id: str
    sql_worker_id: int
    ml_worker_indexes: tuple[int, ...]
    reason: str
    attempt: int  # 1-based restart count for this worker


@dataclass
class _SessionRecoveryState:
    heartbeats: dict[int, float] = field(default_factory=dict)
    restarts: dict[int, int] = field(default_factory=dict)  # worker -> count


class RecoveryManager:
    """Executes retries and partial restarts on behalf of the coordinator.

    Installing one on a coordinator switches the streaming sender into the
    resilient protocol (heartbeats, send retries, partial
    restart on worker death).  With a disabled injector and no real faults
    the resilient protocol is byte-for-byte ledger-invariant with the seed
    path — that invariance is asserted by the chaos tests.
    """

    def __init__(
        self,
        injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        restart_backoff: RetryPolicy | None = None,
        max_partial_restarts: int = 3,
        heartbeat_timeout_s: float = 30.0,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        self.injector = injector or FaultInjector.disabled()
        self.retry_policy = retry_policy or RetryPolicy()
        self.restart_backoff = restart_backoff or RetryPolicy(max_attempts=1)
        self.max_partial_restarts = max_partial_restarts
        self.heartbeat_timeout_s = heartbeat_timeout_s
        _, self._clock, self._sleep = _clock_callables(clock, sleep)
        self._lock = threading.Lock()
        self._sessions: dict[str, _SessionRecoveryState] = {}
        self.restart_events: list[RestartEvent] = []
        self.ml_recovery_events: list[MLRecoveryEvent] = []
        self.send_retries = 0

    # ------------------------------------------------------------ heartbeat

    def heartbeat(self, session_id: str, worker_id: int) -> None:
        """Record one liveness beat (streaming workers beat per block)."""
        now = self._clock()
        with self._lock:
            state = self._sessions.setdefault(session_id, _SessionRecoveryState())
            state.heartbeats[worker_id] = now

    def last_heartbeat(self, session_id: str, worker_id: int) -> float | None:
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                return None
            return state.heartbeats.get(worker_id)

    def stale_workers(self, session_id: str, now: float | None = None) -> list[int]:
        """Workers whose last beat is older than ``heartbeat_timeout_s`` —
        the coordinator's §6 failure detector."""
        if now is None:
            now = self._clock()
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                return []
            return sorted(
                worker_id
                for worker_id, beat in state.heartbeats.items()
                if now - beat > self.heartbeat_timeout_s
            )

    # -------------------------------------------------------------- retries

    def send_with_retry(self, send, channel_key: str) -> None:
        """Run one channel send, retrying transient timeouts with backoff.

        ``send`` is a zero-argument callable performing the actual send;
        the injector's transient faults are raised *before* the send takes
        effect, so a retry never duplicates data.  Exhausting the budget
        raises :class:`RetriesExhaustedError`.
        """
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                self.injector.check_send(channel_key)
                send()
                return
            except ChannelTimeoutError as exc:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise RetriesExhaustedError(
                        f"send on {channel_key} failed {attempt} times: {exc}"
                    ) from exc
                with self._lock:
                    self.send_retries += 1
                self._sleep(policy.delay_s(attempt - 1, key=channel_key))

    # ------------------------------------------------------ partial restart

    def begin_partial_restart(
        self, coordinator, session_id: str, worker_id: int, reason: str
    ) -> dict:
        """Authorize and plan the restart of one failed SQL worker.

        Consumes the coordinator's §6 ``restart_plan`` — the failed worker
        plus exactly its paired ML workers — records the event, applies the
        restart backoff, and returns the plan.  Raises
        :class:`RetriesExhaustedError` once this worker's restart budget is
        spent (the caller then fails the session, and recovery escalates to
        the pipeline tier).
        """
        with self._lock:
            state = self._sessions.setdefault(session_id, _SessionRecoveryState())
            attempt = state.restarts.get(worker_id, 0) + 1
            if attempt > self.max_partial_restarts:
                raise RetriesExhaustedError(
                    f"SQL worker {worker_id} of {session_id!r} failed "
                    f"{attempt} times; partial-restart budget "
                    f"({self.max_partial_restarts}) exhausted: {reason}"
                )
            state.restarts[worker_id] = attempt
        plan = coordinator.plan_partial_restart(session_id, worker_id, reason)
        event = RestartEvent(
            session_id=session_id,
            sql_worker_id=worker_id,
            ml_worker_indexes=tuple(plan["restart_ml_workers"]),
            reason=reason,
            attempt=attempt,
        )
        with self._lock:
            self.restart_events.append(event)
        self._sleep(
            self.restart_backoff.delay_s(attempt - 1, key=f"{session_id}/{worker_id}")
        )
        return plan

    # ------------------------------------------------- ML-stage escalation

    def ml_stage_ladder(self, cache_warm: bool) -> tuple[str, ...]:
        """The §6 escalation order for a *training-stage* fault.

        Resume-from-checkpoint is tier 0 and runs inside
        ``MLSystem.run_job`` (the dataset is still in memory there); faults
        that escape it reach the pipeline, which walks this ladder:
        rebuild the input from the §5 caches when they are warm, else
        re-run the rewritten transform query, else hand back to the
        full-restart attempt loop.
        """
        tiers = ("replay_cache",) if cache_warm else ()
        return tiers + ("replay_query", "full_restart")

    def record_ml_recovery(self, job_id: str, tier: str, reason: str) -> None:
        """Log one executed ML-stage recovery action."""
        with self._lock:
            self.ml_recovery_events.append(
                MLRecoveryEvent(job_id=job_id, tier=tier, reason=reason)
            )

    # -------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Recovery activity totals (for benchmarks and reports)."""
        with self._lock:
            return {
                "send_retries": self.send_retries,
                "partial_restarts": len(self.restart_events),
                "ml_recoveries": len(self.ml_recovery_events),
                "injected": dict(self.injector.counts),
            }


class LivenessMonitor:
    """The coordinator-side §6 failure detector, made *active*.

    PR 2 detection was passive: :meth:`RecoveryManager.stale_workers` only
    reported staleness when somebody asked.  This monitor asks — every
    ``interval_s`` it sweeps the heartbeat table of every live session and
    turns each stale worker into a proactive
    :meth:`~repro.transfer.coordinator.Coordinator.plan_partial_restart`
    call, so the restart plan exists before the dead sender's peers time
    out.  Each (session, worker, beat-timestamp) is flagged at most once:
    a worker that resumes beating and goes stale again is re-flagged, but a
    still-stale worker is not restarted repeatedly.

    ``clock``/``sleep`` are injectable and :meth:`sweep` is public, so tests
    drive detection deterministically without real waiting; :meth:`start`
    runs the production daemon thread.
    """

    def __init__(
        self,
        coordinator,
        recovery: RecoveryManager,
        interval_s: float = 0.5,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        self.coordinator = coordinator
        self.recovery = recovery
        self.interval_s = interval_s
        self._clockobj, self._clock, self._sleep = _clock_callables(clock, sleep)
        self._flagged: set[tuple[str, int, float]] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.actions: list[dict] = []

    def sweep(self, now: float | None = None) -> list[dict]:
        """One detection pass; returns the restart plans it initiated."""
        from repro.common.errors import TransferError

        if now is None:
            now = self._clock()
        initiated: list[dict] = []
        try:
            live = self.coordinator.live_sessions()
        except TransferError:
            return initiated  # deposed/killed coordinator: nothing to sweep
        for session_id in live:
            for worker_id in self.recovery.stale_workers(session_id, now=now):
                beat = self.recovery.last_heartbeat(session_id, worker_id)
                key = (session_id, worker_id, beat)
                if key in self._flagged:
                    continue
                self._flagged.add(key)
                reason = (
                    f"heartbeat of SQL worker {worker_id} stale for > "
                    f"{self.recovery.heartbeat_timeout_s}s (liveness monitor)"
                )
                try:
                    # The budgeted path: records the RestartEvent and stops
                    # restarting a worker whose budget is spent.
                    plan = self.recovery.begin_partial_restart(
                        self.coordinator, session_id, worker_id, reason
                    )
                except TransferError:
                    continue  # session closed, coordinator deposed mid-sweep,
                    # or this worker's restart budget is exhausted
                action = {
                    "session_id": session_id,
                    "worker_id": worker_id,
                    "plan": plan,
                }
                initiated.append(action)
                self.actions.append(action)
        return initiated

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()

        def run() -> None:
            while not self._clockobj.wait_until(self._stop, self.interval_s):
                try:
                    self.sweep()
                except Exception:
                    # The detector must never take the coordinator down.
                    continue

        self._thread = self._clockobj.spawn(run, name="liveness-monitor")

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            # The join is a non-clock wait: step out of the managed set so a
            # virtual-time monitor can reach its next tick and observe stop.
            with self._clockobj.unmanaged():
                thread.join(timeout=2.0)
