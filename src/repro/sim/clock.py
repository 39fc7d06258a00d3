"""Injectable clocks: wall time and quiescence-advancing virtual time.

The serving plane never calls :func:`time.monotonic`, :func:`time.time`,
:func:`time.sleep`, ``Condition.wait`` or ``Event.wait`` directly on a
timing-sensitive path; it goes through a :class:`Clock`.  The default
:data:`WALL` clock delegates straight to the real primitives, so a
deployment that never opts in behaves exactly as before.

:class:`VirtualClock` is the deterministic-simulation clock (FoundationDB
style).  Virtual time is a number that only moves at *quiescence*: when
every **registered** (managed) thread is blocked inside a clock-mediated
sleep, the clock jumps straight to the earliest pending deadline and wakes
every sleeper due at it.  A 30-second retry backoff therefore costs
microseconds of real time, and the order in which timers fire is a pure
function of the requested durations — not of machine load.

Blocking primitives reduce to one: :meth:`VirtualClock.sleep`.  Condition
and event waits (:meth:`Clock.wait_on` / :meth:`Clock.wait_until`) are
implemented as sliced virtual polls — release, sleep one resolution tick,
re-check — so arbitrary ``threading`` objects work unchanged and no lock
ordering between the clock and application conditions can deadlock.  The
cost is that a notification is observed at the next tick boundary (default
5 virtual milliseconds), which is far below every timeout in the stack.

Thread-management contract for virtual runs:

* every thread that participates in the simulation registers via
  :meth:`Clock.managed` (or is started with :meth:`Clock.spawn`, which
  also blocks advancement until the child is registered);
* a managed thread about to block on a *non-clock* primitive (joining a
  thread, gathering ``Future`` results) brackets the wait in
  :meth:`Clock.unmanaged` so it does not stall quiescence;
* a managed thread blocked outside the clock without that bracket wedges
  the run in real time — which is exactly the "wedged threads" invariant
  the chaos explorer reports (with the wall-time watchdog as backstop).
"""

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Virtual seconds between re-checks of a polled condition/event wait.
DEFAULT_RESOLUTION_S = 0.005
#: Hard ceiling on virtual time: a run that sleeps past this is considered
#: livelocked (a timeout storm), and further sleeps raise
#: :class:`VirtualTimeExhausted` so the run unwinds instead of spinning.
DEFAULT_MAX_VIRTUAL_S = 3600.0


class VirtualTimeExhausted(RuntimeError):
    """Virtual time passed the configured ceiling — the run is livelocked."""


class Clock:
    """Time source + blocking primitives, injectable at every wait site."""

    is_virtual = False

    # ------------------------------------------------------------- time
    def now(self) -> float:
        """Monotonic seconds (deadline arithmetic)."""
        raise NotImplementedError

    def wall(self) -> float:
        """Wall-clock epoch seconds (journal round-trips)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    # -------------------------------------------------- blocking waits
    def wait_on(self, cond: threading.Condition, timeout: float | None) -> bool:
        """``cond.wait(timeout)`` through the clock.  The caller holds
        ``cond`` (non-reentrantly) and loops on its predicate/deadline —
        a ``True`` return means "re-check", exactly like a real
        condition-variable wakeup (spurious wakeups included)."""
        raise NotImplementedError

    def wait_until(self, event: threading.Event, timeout: float | None) -> bool:
        """``event.wait(timeout)`` through the clock."""
        raise NotImplementedError

    # -------------------------------------- thread management (virtual)
    def unregister_thread(self) -> None:
        """Remove the calling thread from the managed set (no-op on wall)."""

    @contextmanager
    def managed(self, name: str | None = None, expected: bool = False):
        """Register the calling thread for the duration of the block."""
        yield

    @contextmanager
    def unmanaged(self):
        """Temporarily leave the managed set (around joins/future waits)."""
        yield

    def expect_threads(self, count: int = 1) -> None:
        """Announce ``count`` imminent :meth:`managed` registrations; the
        virtual clock will not advance until they arrive (no-op on wall)."""

    def spawn(
        self, target, name: str | None = None, daemon: bool = True
    ) -> threading.Thread:
        """Start a thread whose body runs simulation-managed."""
        thread = threading.Thread(target=target, name=name, daemon=daemon)
        thread.start()
        return thread


class WallClock(Clock):
    """The real clock: exactly the primitives the code used before."""

    is_virtual = False

    def now(self) -> float:
        return time.monotonic()

    def wall(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def wait_on(self, cond: threading.Condition, timeout: float | None) -> bool:
        return cond.wait(timeout)

    def wait_until(self, event: threading.Event, timeout: float | None) -> bool:
        return event.wait(timeout)


#: Module-wide default clock: injected everywhere a component does not
#: receive an explicit one, so the no-sim path is byte-identical to seed.
WALL = WallClock()


@dataclass
class _Sleeper:
    """One thread blocked in :meth:`VirtualClock.sleep`."""

    ident: int
    deadline: float
    cond: threading.Condition
    fired: bool = False


@dataclass
class ClockStats:
    """Diagnostics of one virtual run (chaos reports publish these)."""

    advances: int = 0
    sleeps: int = 0
    max_concurrent_sleepers: int = 0
    #: threads that were still managed-but-not-sleeping when the run's
    #: watchdog gave up (filled in by the chaos harness, not the clock)
    wedged: list[str] = field(default_factory=list)


class VirtualClock(Clock):
    """Deterministic virtual time, advanced only at quiescence.

    Quiescence rule: time may advance only when (a) no announced thread
    spawn is still pending and (b) **every** managed thread currently sits
    inside :meth:`sleep`.  At that instant the clock jumps to the earliest
    deadline among *all* sleepers (managed or not) and wakes every sleeper
    whose deadline was reached.  Unmanaged sleepers never gate advancement
    but are woken by it — so a test's main thread can sleep through the
    simulation without registering.
    """

    is_virtual = True

    def __init__(
        self,
        start: float = 0.0,
        epoch: float = 1_700_000_000.0,
        resolution_s: float = DEFAULT_RESOLUTION_S,
        max_virtual_s: float = DEFAULT_MAX_VIRTUAL_S,
    ):
        self._now = float(start)
        #: fixed offset mapping virtual-monotonic to virtual-wall time, so
        #: ``wall()`` round-trips (journalled deadlines) stay consistent
        #: with ``now()`` inside one simulation.
        self._epoch = float(epoch)
        self.resolution_s = float(resolution_s)
        self.max_virtual_s = float(max_virtual_s)
        self._lock = threading.Lock()
        self._sleepers: dict[int, _Sleeper] = {}
        self._managed: dict[int, str] = {}
        self._pending_spawns = 0
        self.stats = ClockStats()

    # ------------------------------------------------------------- time

    def now(self) -> float:
        with self._lock:
            return self._now

    def wall(self) -> float:
        with self._lock:
            return self._epoch + self._now

    def sleep(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        ident = threading.get_ident()
        cond = threading.Condition()
        sleeper = _Sleeper(ident=ident, deadline=0.0, cond=cond)
        with cond:
            with self._lock:
                if self._now > self.max_virtual_s:
                    raise VirtualTimeExhausted(
                        f"virtual time {self._now:.3f}s exceeded the "
                        f"{self.max_virtual_s:.0f}s ceiling (timeout storm?)"
                    )
                sleeper.deadline = self._now + seconds
                self._sleepers[ident] = sleeper
                self.stats.sleeps += 1
                self.stats.max_concurrent_sleepers = max(
                    self.stats.max_concurrent_sleepers, len(self._sleepers)
                )
                fired = self._advance_locked()
            self._wake(fired)
            while not sleeper.fired:
                cond.wait()
        with self._lock:
            self._sleepers.pop(ident, None)

    # -------------------------------------------------- blocking waits

    def wait_on(self, cond: threading.Condition, timeout: float | None) -> bool:
        """Sliced virtual poll: release ``cond``, sleep one tick, reacquire.

        Always returns ``True`` ("maybe notified") before the caller's own
        deadline arithmetic expires — every call site loops on a predicate
        and recomputes ``remaining`` from :meth:`now`, so the tick quantum
        is invisible beyond delaying a wakeup by at most one resolution.
        """
        step = (
            self.resolution_s
            if timeout is None
            else min(self.resolution_s, max(0.0, timeout))
        )
        cond.release()
        try:
            self.sleep(step)
        finally:
            cond.acquire()
        return True

    def wait_until(self, event: threading.Event, timeout: float | None) -> bool:
        if event.is_set():
            return True
        deadline = None if timeout is None else self.now() + max(0.0, timeout)
        while not event.is_set():
            if deadline is not None:
                remaining = deadline - self.now()
                if remaining <= 0:
                    break
                self.sleep(min(self.resolution_s, remaining))
            else:
                self.sleep(self.resolution_s)
        return event.is_set()

    # -------------------------------------- thread management

    def unregister_thread(self) -> None:
        ident = threading.get_ident()
        with self._lock:
            removed = self._managed.pop(ident, None)
            fired = self._advance_locked() if removed is not None else []
        self._wake(fired)

    @contextmanager
    def managed(self, name: str | None = None, expected: bool = False):
        ident = threading.get_ident()
        with self._lock:
            self._managed[ident] = name or threading.current_thread().name
            if expected and self._pending_spawns > 0:
                self._pending_spawns -= 1
        try:
            yield
        finally:
            self.unregister_thread()

    @contextmanager
    def unmanaged(self):
        ident = threading.get_ident()
        with self._lock:
            name = self._managed.pop(ident, None)
            fired = self._advance_locked() if name is not None else []
        self._wake(fired)
        try:
            yield
        finally:
            if name is not None:
                with self._lock:
                    self._managed[ident] = name

    def expect_threads(self, count: int = 1) -> None:
        with self._lock:
            self._pending_spawns += count

    def spawn(
        self, target, name: str | None = None, daemon: bool = True
    ) -> threading.Thread:
        self.expect_threads()

        def runner():
            with self.managed(name, expected=True):
                target()

        thread = threading.Thread(target=runner, name=name, daemon=daemon)
        thread.start()
        return thread

    # ------------------------------------------------------ diagnostics

    def blocked_outside_clock(self) -> list[str]:
        """Names of managed threads *not* blocked in a clock sleep — the
        wedge candidates when the simulation stops making progress."""
        with self._lock:
            return sorted(
                name
                for ident, name in self._managed.items()
                if ident not in self._sleepers
            )

    # ------------------------------------------------------- internals

    def _advance_locked(self) -> list[_Sleeper]:
        """Advance virtual time if quiescent; returns the sleepers to wake.

        Caller holds ``self._lock``.  Quiescent means: no pending spawn and
        every managed thread has an un-fired sleeper entry (a fired entry
        is a thread already woken but not yet running — still not a safe
        moment to advance).
        """
        if self._pending_spawns:
            return []
        for ident in self._managed:
            sleeper = self._sleepers.get(ident)
            if sleeper is None or sleeper.fired:
                return []
        pending = [s for s in self._sleepers.values() if not s.fired]
        if not pending:
            return []
        target = min(s.deadline for s in pending)
        if target > self._now:
            self._now = target
            self.stats.advances += 1
        fired = [s for s in pending if s.deadline <= self._now]
        for sleeper in fired:
            sleeper.fired = True
        return fired

    def _wake(self, fired: list[_Sleeper]) -> None:
        """Notify fired sleepers outside the clock lock.  A sleeper's own
        condition may be held by its (still-registering) thread; acquiring
        it here simply waits until that thread parks in ``cond.wait`` —
        and the ``fired`` flag it re-checks closes the lost-wakeup race.
        Waking our *own* sleeper is a reentrant acquire and equally safe.
        """
        for sleeper in fired:
            with sleeper.cond:
                sleeper.cond.notify_all()
