"""Virtual-time clock: unit semantics plus the deadline/cancel timing port.

Part one pins the :class:`VirtualClock` contract from DESIGN §13: sleeps
fire in deadline order exactly at quiescence, condition/event waits elapse
in virtual time, the managed/unmanaged bracket keeps advancement live
around non-clock blocking, and the virtual horizon surfaces as the typed
:class:`VirtualTimeExhausted`.

Part two re-runs the wall-clock timing cases from
``test_deadline_cancel.py`` against virtual-clock components with the
*same assertions* — a queued session sheds at its budget deadline, a
cancel wakes blocked waiters long before their flat timeouts, an
end-to-end session still trains bit-identical weights — plus the one
assertion wall time can never make: tens of virtual seconds of waiting
must cost under a tenth of that in wall time.
"""

import threading
import time
from time import perf_counter

import pytest

from repro import make_deployment
from repro.common.errors import DeadlineExceeded, SessionCancelled
from repro.runtime.budget import Budget
from repro.sim import WALL, VirtualClock, VirtualTimeExhausted
from repro.transfer.admission import (
    SessionAdmission,
    WorkerPoolScheduler,
)
from repro.workloads.loadgen import BASE_SEED, make_points_table, run_one_session

pytestmark = pytest.mark.timeout(120)

#: The ported suite's speedup bar: virtual waiting must be at least this
#: many times faster than the wall clock it replaces.
SPEEDUP = 10.0


class DictLedger:
    def __init__(self):
        self.counts: dict[str, float] = {}

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def get(self, key: str):
        return self.counts.get(key, 0)


# --------------------------------------------------------------------------
# VirtualClock primitives
# --------------------------------------------------------------------------


class TestVirtualClockPrimitives:
    def test_sleep_jumps_to_deadline_without_wall_time(self):
        clock = VirtualClock()
        start = perf_counter()
        t = clock.spawn(lambda: clock.sleep(60.0), name="sleeper")
        t.join(10.0)
        wall = perf_counter() - start
        assert not t.is_alive()
        assert clock.now() == pytest.approx(60.0)
        assert wall * SPEEDUP < 60.0
        assert clock.stats.advances >= 1

    def test_sleepers_fire_in_deadline_order_at_quiescence(self):
        clock = VirtualClock()
        wakes: list[tuple[float, float]] = []
        lock = threading.Lock()

        def sleeper(duration: float) -> None:
            clock.sleep(duration)
            with lock:
                wakes.append((clock.now(), duration))

        def parent() -> None:
            # While the parent runs (managed, not sleeping) time cannot
            # advance, so all three sleepers register at virtual zero no
            # matter how the OS schedules their startup.
            threads = [
                clock.spawn(lambda d=d: sleeper(d), name=f"sleep-{d}")
                for d in (3.0, 1.0, 2.0)
            ]
            with clock.unmanaged():
                for t in threads:
                    t.join(10.0)

        pt = clock.spawn(parent, name="parent")
        pt.join(10.0)
        assert not pt.is_alive()
        assert wakes == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_wait_until_observes_event_set_by_virtual_peer(self):
        clock = VirtualClock()
        event = threading.Event()
        results: list[tuple[bool, float]] = []

        def waiter() -> None:
            ok = clock.wait_until(event, timeout=60.0)
            results.append((ok, clock.now()))

        def setter() -> None:
            clock.sleep(5.0)
            event.set()

        def parent() -> None:
            threads = [
                clock.spawn(waiter, name="waiter"),
                clock.spawn(setter, name="setter"),
            ]
            with clock.unmanaged():
                for t in threads:
                    t.join(10.0)

        pt = clock.spawn(parent, name="parent")
        pt.join(10.0)
        assert not pt.is_alive()
        (ok, woke_at) = results[0]
        assert ok is True
        # Woken by the set, not the 60s timeout — within a tick of the
        # setter's 5-virtual-second sleep.
        assert 5.0 <= woke_at <= 6.0

    def test_wait_on_times_out_in_virtual_seconds(self):
        clock = VirtualClock()
        finished: list[float] = []

        def waiter() -> None:
            cond = threading.Condition()
            deadline = clock.now() + 30.0
            with cond:
                while True:
                    remaining = deadline - clock.now()
                    if remaining <= 0:
                        break
                    clock.wait_on(cond, remaining)
            finished.append(clock.now())

        start = perf_counter()
        t = clock.spawn(waiter, name="cond-waiter")
        t.join(30.0)
        wall = perf_counter() - start
        assert not t.is_alive()
        # Never notified: the full 30 virtual seconds elapse (within one
        # resolution tick), at a >=10x wall discount.
        assert 30.0 <= finished[0] <= 30.0 + clock.resolution_s * 2
        assert wall * SPEEDUP < 30.0

    def test_unmanaged_bracket_keeps_advancement_live(self):
        clock = VirtualClock()
        event = threading.Event()
        results: list[bool] = []

        def blocker() -> None:
            # A real (non-clock) wait: without the bracket this thread
            # would gate quiescence forever and wedge the run.
            with clock.unmanaged():
                results.append(event.wait(10.0))

        def setter() -> None:
            clock.sleep(1.0)
            event.set()

        def parent() -> None:
            threads = [
                clock.spawn(blocker, name="blocker"),
                clock.spawn(setter, name="setter"),
            ]
            with clock.unmanaged():
                for t in threads:
                    t.join(10.0)

        pt = clock.spawn(parent, name="parent")
        pt.join(10.0)
        assert not pt.is_alive()
        assert results == [True]
        assert clock.now() >= 1.0

    def test_virtual_horizon_raises_typed_exhaustion(self):
        clock = VirtualClock(max_virtual_s=1.0)
        errors: list[BaseException] = []

        def storm() -> None:
            try:
                while True:
                    clock.sleep(0.5)
            except VirtualTimeExhausted as exc:
                errors.append(exc)

        t = clock.spawn(storm, name="storm")
        t.join(10.0)
        assert not t.is_alive()
        assert len(errors) == 1
        assert "ceiling" in str(errors[0])

    def test_wall_tracks_virtual_monotonic_with_fixed_epoch(self):
        clock = VirtualClock(epoch=1_700_000_000.0)
        offset = clock.wall() - clock.now()
        t = clock.spawn(lambda: clock.sleep(7.0), name="sleeper")
        t.join(10.0)
        assert clock.wall() - clock.now() == pytest.approx(offset)
        assert clock.wall() == pytest.approx(1_700_000_000.0 + 7.0)

    def test_wall_clock_delegates_to_real_primitives(self):
        before = time.monotonic()
        assert WALL.now() >= before
        assert abs(WALL.wall() - time.time()) < 1.0
        event = threading.Event()
        event.set()
        assert WALL.wait_until(event, timeout=1.0) is True
        cond = threading.Condition()
        with cond:
            assert WALL.wait_on(cond, 0.01) is False  # real timed-out wait


# --------------------------------------------------------------------------
# The deadline/cancel timing suite, ported to virtual time (satellite 4)
# --------------------------------------------------------------------------


class TestVirtualDeadlineCancelPort:
    """Same assertions as the wall-clock suite; waits are virtual."""

    def test_queue_wait_clamped_to_deadline_and_typed(self):
        clock = VirtualClock()
        ledger = DictLedger()
        gate = SessionAdmission(
            max_concurrent_sessions=1, timeout_s=300.0, ledger=ledger, clock=clock
        )
        gate.acquire("a")
        budget = Budget(deadline_s=30.0, session_id="b", clock=clock)
        failures: list[BaseException] = []

        def blocked() -> None:
            try:
                gate.acquire("b", budget=budget)
            except BaseException as exc:
                failures.append(exc)

        start = perf_counter()
        t = clock.spawn(blocked, name="queued-b")
        t.join(30.0)
        wall = perf_counter() - start
        assert not t.is_alive()
        assert len(failures) == 1
        assert isinstance(failures[0], DeadlineExceeded)
        # Clamped to the 30-virtual-second budget, not the gate's 300s flat
        # timeout — and those 30 virtual seconds cost a fraction in wall.
        assert 30.0 <= clock.now() < 300.0
        assert wall * SPEEDUP < clock.now()
        assert gate.stats.shed == 1
        assert ledger.get("shed.expired") == 1
        # The dead ticket left the queue; the slot is immediately reusable.
        gate.release("a")
        assert gate.acquire("c") is True

    def test_scheduler_waiter_woken_by_cancel_not_timeout(self):
        clock = VirtualClock()
        pool = WorkerPoolScheduler(total_slots=1, timeout_s=600.0, clock=clock)
        pool.acquire_slot("holder")
        budget = Budget(session_id="w", clock=clock)
        failures: list[BaseException] = []

        def wait_for_slot() -> None:
            try:
                pool.acquire_slot("w", budget=budget)
            except BaseException as exc:
                failures.append(exc)

        def canceller() -> None:
            clock.sleep(5.0)
            budget.cancel("client hung up")

        def parent() -> None:
            threads = [
                clock.spawn(wait_for_slot, name="slot-waiter"),
                clock.spawn(canceller, name="canceller"),
            ]
            with clock.unmanaged():
                for t in threads:
                    t.join(30.0)

        pt = clock.spawn(parent, name="parent")
        pt.join(30.0)
        assert not pt.is_alive()
        assert len(failures) == 1
        assert isinstance(failures[0], SessionCancelled)
        # Woken by the cancel at ~5 virtual seconds, nowhere near the 600s
        # flat timeout.
        assert 5.0 <= clock.now() <= 6.0
        # The cancelled waiter left no residue: the slot still grants.
        pool.release_slot("holder")
        pool.acquire_slot("next")

    def test_wait_result_bounded_by_budget_not_stacked_timeouts(self):
        clock = VirtualClock()
        deployment = make_deployment(max_concurrent_sessions=2, clock=clock)
        make_points_table(deployment.engine)
        coordinator = deployment.coordinator
        failures: list[BaseException] = []

        def client() -> None:
            coordinator.create_session(
                "d0",
                command="svm_with_sgd",
                args={"iterations": 3, "seed": BASE_SEED},
                conf_props={"record.format": "labeled_csv", "label.index": -1},
                deadline_s=30.0,
            )
            try:
                coordinator.wait_result("d0")
            except BaseException as exc:
                failures.append(exc)
            finally:
                coordinator.close_session("d0")

        start = perf_counter()
        t = clock.spawn(client, name="client-d0")
        t.join(60.0)
        wall = perf_counter() - start
        assert not t.is_alive()
        assert len(failures) == 1
        assert isinstance(failures[0], DeadlineExceeded)
        # Nothing ever streams: the seed behavior is a 4x-flat-timeout wait
        # (minutes); the budget surfaces the typed expiry at ~30 virtual
        # seconds, which cost a tenth of that (or less) in wall time.
        assert clock.now() >= 30.0
        assert wall * SPEEDUP < clock.now()
        assert deployment.cluster.ledger.get("deadline.expired") >= 1

    def test_session_with_deadline_still_completes_and_matches(self):
        clock = VirtualClock()
        armed = make_deployment(max_concurrent_sessions=2, clock=clock)
        make_points_table(armed.engine)
        outcomes: list = []

        t = clock.spawn(
            lambda: outcomes.append(
                run_one_session(armed, "ok", seed=BASE_SEED, deadline_s=120.0)
            ),
            name="client-ok",
        )
        t.join(60.0)
        assert not t.is_alive()
        outcome = outcomes[0]
        assert outcome.error is None

        plain = make_deployment(max_concurrent_sessions=2)
        make_points_table(plain.engine)
        baseline = run_one_session(plain, "ok", seed=BASE_SEED)
        assert outcome.weights == baseline.weights
        assert outcome.intercept == baseline.intercept
