"""Per-session execution budgets: one deadline, one cancel flag, one clock.

The serving plane used to stack independent flat timeouts — 30s at
admission, 120s at the worker-pool scheduler,
30s per channel receive — so a wedged session could take minutes to
surface an error and a client deadline was invisible past the first gate.
A :class:`Budget` replaces the stack with a single monotonic deadline
created at ``create_session(deadline_s=...)``: every blocking wait derives
its timeout from :meth:`Budget.remaining` and raises a typed
:class:`~repro.common.errors.DeadlineExceeded` when the shared clock runs
out, so worst-case latency is bounded by the one budget the client asked
for.

The budget also carries the cooperative-cancel flag (a
:class:`threading.Event` plus wake callbacks so condition-variable waiters
are notified instead of timing out) and an optional shared
:class:`RetryTokenBucket` that caps fleet-wide retry amplification.

Everything here is off-by-default: ``Budget(deadline_s=None)`` never
expires, never emits ledger counters, and leaves every wait at its seed
flat timeout.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.common.errors import DeadlineExceeded, SessionCancelled


def clock_pair(clock) -> tuple[Callable[[], float], Callable[[], float]]:
    """Normalize a clock argument into ``(monotonic, wall)`` callables.

    Accepts a :class:`repro.sim.clock.Clock` (both callables come from it,
    so a virtual-time deployment journals virtual wall time) or a legacy
    bare monotonic callable (tests' fake clocks), which pairs with real
    :func:`time.time` exactly as before.
    """
    now = getattr(clock, "now", None)
    wall = getattr(clock, "wall", None)
    if callable(now) and callable(wall):
        return now, wall
    return clock, time.time


class RetryTokenBucket:
    """A shared token bucket wrapped around :class:`RetryPolicy` call sites.

    Each retry (HA-proxy handshake, producer append, consumer refetch)
    spends one token; when the bucket is dry the caller fails fast with
    :class:`RetriesExhaustedError` instead of amplifying an overloaded
    fleet.  Shared across sessions on purpose — retries are a *global*
    amplification factor, so the cap must be global too.

    Tokens refill continuously at ``refill_per_s`` up to ``capacity``
    (``refill_per_s=0`` makes the bucket a hard lifetime cap).  Ledger
    counters ``retry_budget.granted`` / ``retry_budget.denied`` are only
    emitted when a bucket exists, preserving seed byte-identity.
    """

    def __init__(
        self,
        capacity: int,
        refill_per_s: float = 0.0,
        ledger=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.refill_per_s = float(refill_per_s)
        self._ledger = ledger
        self._clock, _ = clock_pair(clock)
        self._tokens = float(capacity)
        self._last_refill = self._clock()
        self._lock = threading.Lock()
        self.granted = 0
        self.denied = 0

    def _refill_locked(self) -> None:
        if self.refill_per_s <= 0:
            return
        now = self._clock()
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.refill_per_s)
            self._last_refill = now

    def try_acquire(self, n: int = 1) -> bool:
        """Spend ``n`` tokens; returns False (and counts a denial) when dry."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= n:
                self._tokens -= n
                self.granted += n
                if self._ledger is not None:
                    self._ledger.add("retry_budget.granted", n)
                return True
            self.denied += 1
            if self._ledger is not None:
                self._ledger.add("retry_budget.denied", 1)
            return False

    def available(self) -> int:
        with self._lock:
            self._refill_locked()
            return int(self._tokens)


class Budget:
    """Deadline + cancel flag + retry tokens for one session.

    Created once per session and threaded through every layer, so
    admission, scheduling, throttling, channel receives, broker fetches,
    and ML ingest all derive their waits from the same clock:

    - :meth:`remaining` — seconds left (None = unbounded).
    - :meth:`clamp` — min(flat per-call timeout, remaining), the derived
      wait every blocking call should use.
    - :meth:`check` — raise :class:`SessionCancelled` / :class:`DeadlineExceeded`
      if the flag is set / the clock ran out.
    - :meth:`cancel` — set the flag and run registered wake callbacks so
      condition-variable waiters wake immediately instead of timing out.

    A ``deadline_s=None`` budget never expires and is free: no counters,
    no behavior change — the seed path.
    """

    def __init__(
        self,
        deadline_s: float | None = None,
        session_id: str = "",
        retry_tokens: RetryTokenBucket | None = None,
        ledger=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.session_id = session_id
        self.deadline_s = None if deadline_s is None else float(deadline_s)
        self.retry_tokens = retry_tokens
        self._ledger = ledger
        self._clock, self._wall = clock_pair(clock)
        self._started = self._clock()
        self._deadline = None if deadline_s is None else self._started + float(deadline_s)
        self._cancelled = threading.Event()
        self.cancel_reason: str | None = None
        self._callbacks: list[Callable[[], None]] = []
        self._lock = threading.Lock()
        self._expired_counted = False

    # -- deadline ---------------------------------------------------------

    @property
    def expired(self) -> bool:
        return self._deadline is not None and self._clock() >= self._deadline

    def remaining(self) -> float | None:
        """Seconds until the deadline (>= 0.0), or None when unbounded."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def clamp(self, timeout_s: float | None) -> float | None:
        """Derive a wait bound: min(flat per-call timeout, budget remaining).

        ``None`` means "no bound" on either side, so an unbounded budget
        leaves the flat timeout untouched (seed behavior) and an unbounded
        flat timeout is capped by the budget alone.
        """
        rem = self.remaining()
        if rem is None:
            return timeout_s
        if timeout_s is None:
            return rem
        return min(timeout_s, rem)

    # -- cancellation -----------------------------------------------------

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def cancel(self, reason: str = "cancelled by client") -> bool:
        """Set the flag and wake registered waiters.  Idempotent; returns
        True only on the first call (when the counters fire)."""
        with self._lock:
            if self._cancelled.is_set():
                return False
            self.cancel_reason = reason
            self._cancelled.set()
            callbacks = list(self._callbacks)
        if self._ledger is not None:
            self._ledger.add("cancel.requested", 1)
        for cb in callbacks:
            try:
                cb()
            except Exception:  # wake callbacks must never mask the cancel
                pass
        return True

    def on_cancel(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Register a wake callback; returns a disposer.  Runs the callback
        immediately if the budget is already cancelled."""
        with self._lock:
            if not self._cancelled.is_set():
                self._callbacks.append(callback)

                def dispose() -> None:
                    with self._lock:
                        try:
                            self._callbacks.remove(callback)
                        except ValueError:
                            pass

                return dispose
        callback()
        return lambda: None

    # -- enforcement ------------------------------------------------------

    def check(self, what: str = "") -> None:
        """Raise the typed, non-retryable error if cancelled or expired."""
        if self._cancelled.is_set():
            where = f" during {what}" if what else ""
            raise SessionCancelled(
                f"session {self.session_id or '?'} cancelled{where}"
                f" ({self.cancel_reason or 'no reason given'})",
                session_id=self.session_id or None,
            )
        if self.expired:
            if not self._expired_counted:
                with self._lock:
                    if not self._expired_counted:
                        self._expired_counted = True
                        if self._ledger is not None:
                            self._ledger.add("deadline.expired", 1)
            where = f" at {what}" if what else ""
            raise DeadlineExceeded(
                f"session {self.session_id or '?'} exceeded its"
                f" {self.deadline_s:g}s deadline{where}",
                session_id=self.session_id or None,
            )

    # -- HA journal -------------------------------------------------------

    def to_settings(self) -> dict:
        """Wall-clock form for the coordinator journal, so a standby that
        adopts the session after takeover enforces the *remaining* budget,
        not a fresh one.  Both halves of the conversion come from the same
        injected clock pair — remaining time from the monotonic reading,
        the journaled instant from its paired wall reading — so a
        virtual-time takeover adopts the correct remainder instead of
        mixing virtual-monotonic arithmetic with real epoch time.  The
        instant is journaled as 20 zero-padded digits of integer
        microseconds, so the journal's byte length does not depend on the
        reading (a float's ``repr`` does)."""
        if self.deadline_s is None:
            return {"deadline_s": None, "deadline_unix_us": None}
        deadline_unix = self._wall() + (self._deadline - self._clock())
        return {
            "deadline_s": self.deadline_s,
            "deadline_unix_us": f"{round(deadline_unix * 1e6):020d}",
        }

    @classmethod
    def from_settings(
        cls,
        settings: dict,
        session_id: str = "",
        retry_tokens: RetryTokenBucket | None = None,
        ledger=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Budget | None":
        """Rebuild an adopted session's budget from journaled settings.

        Returns None when the journal carries no deadline (feature off).
        An already-expired deadline comes back with a tiny positive
        remainder so the adopting coordinator raises DeadlineExceeded at
        the next wait instead of at construction time.  ``clock`` must be
        the same clock (pair) the journaling side used.
        """
        if settings.get("deadline_s") is None:
            return None
        _, wall = clock_pair(clock)
        deadline_unix_us = settings.get("deadline_unix_us")
        if deadline_unix_us is None:
            remaining = float(settings["deadline_s"])
        else:
            remaining = max(0.001, int(deadline_unix_us) / 1e6 - wall())
        budget = cls(
            deadline_s=remaining,
            session_id=session_id,
            retry_tokens=retry_tokens,
            ledger=ledger,
            clock=clock,
        )
        budget.deadline_s = float(settings["deadline_s"])  # report the original
        return budget


def budget_remaining(budget: Budget | None, timeout_s: float | None) -> float | None:
    """Module-level convenience: derive a wait bound from an optional budget."""
    if budget is None:
        return timeout_s
    return budget.clamp(timeout_s)


def budget_check(budget: Budget | None, what: str = "") -> None:
    """Module-level convenience: enforce an optional budget."""
    if budget is not None:
        budget.check(what)
