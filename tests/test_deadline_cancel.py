"""End-to-end deadlines and cooperative cancellation across the serving plane.

Covers the waits-and-wakes contract: every gate (admission, scheduler,
mux transport, result wait) derives its timeout from the session
budget and is *woken* — not timed out — by a cancel; shedding and expiry
surface as the typed non-retryable errors; the trainer aborts only after
committing its last due checkpoint; and with the feature disarmed, the
ledger stays bit-identical to the seed.
"""

import threading
import time
from time import perf_counter

import pytest

from repro import make_deployment
from repro.checkpoint import CheckpointStore
from repro.checkpoint.store import TrainCheckpointer
from repro.common.errors import (
    AdmissionError,
    DeadlineExceeded,
    SessionCancelled,
)
from repro.runtime.budget import Budget
from repro.transfer.admission import (
    SessionAdmission,
    WorkerPoolScheduler,
)
from repro.transfer.socket_channel import MuxSocketTransport
from repro.workloads.loadgen import BASE_SEED, make_points_table, run_one_session

pytestmark = pytest.mark.timeout(120)

#: A cancel must wake a blocked waiter well inside this bound — every gate
#: under test is configured with a much larger flat timeout, so finishing
#: this fast proves the waiter was notified, not timed out.
WAKE_BOUND_S = 2.0


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class DictLedger:
    def __init__(self):
        self.counts: dict[str, float] = {}

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def get(self, key: str):
        return self.counts.get(key, 0)


def _spin_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


# --------------------------------------------------------------------------
# Admission: deadline-clamped waits, expired-ticket shedding, preemption
# --------------------------------------------------------------------------


class TestAdmissionBudgets:
    def test_queue_wait_clamped_to_deadline_and_typed(self):
        ledger = DictLedger()
        gate = SessionAdmission(
            max_concurrent_sessions=1, timeout_s=30.0, ledger=ledger
        )
        gate.acquire("a")
        budget = Budget(deadline_s=0.05, session_id="b")
        start = perf_counter()
        with pytest.raises(DeadlineExceeded):
            gate.acquire("b", budget=budget)
        # Clamped to the budget, not the gate's 30s flat timeout.
        assert perf_counter() - start < WAKE_BOUND_S
        assert gate.stats.shed == 1
        assert ledger.get("shed.expired") == 1
        # The dead ticket left the queue; the slot is immediately reusable.
        gate.release("a")
        assert gate.acquire("c") is True

    def test_release_sheds_expired_tickets_before_promotion(self):
        clock = FakeClock()
        ledger = DictLedger()
        gate = SessionAdmission(
            max_concurrent_sessions=1, timeout_s=30.0, ledger=ledger
        )
        gate.acquire("a")
        # b queues with a fake-clock budget (30s on the fake clock — its
        # real wait is far longer than this test), then the clock jumps past
        # its deadline while it sleeps.
        expired_budget = Budget(deadline_s=30.0, session_id="b", clock=clock)
        failures: list[BaseException] = []
        admitted = threading.Event()

        def queue_b():
            try:
                gate.acquire("b", budget=expired_budget)
            except BaseException as exc:
                failures.append(exc)

        def queue_c():
            gate.acquire("c")
            admitted.set()

        tb = threading.Thread(target=queue_b)
        tb.start()
        _spin_until(lambda: gate.queued_count() == 1)
        tc = threading.Thread(target=queue_c)
        tc.start()
        _spin_until(lambda: gate.queued_count() == 2)

        clock.now += 31.0  # b's deadline passes while it waits
        start = perf_counter()
        gate.release("a")  # shed b first, then promote c past it
        tb.join(5.0)
        assert admitted.wait(5.0)
        tc.join(5.0)
        assert perf_counter() - start < WAKE_BOUND_S  # woken, not timed out
        assert len(failures) == 1
        assert isinstance(failures[0], DeadlineExceeded)
        assert ledger.get("shed.expired") == 1
        assert gate.queue_state()["running"] == {"c": "default"}

    def test_full_queue_preempts_lowest_priority_waiter(self):
        ledger = DictLedger()
        gate = SessionAdmission(
            max_concurrent_sessions=1,
            max_queue_depth=1,
            timeout_s=10.0,
            tenant_priorities={"interactive": 1, "batch": 0},
            ledger=ledger,
        )
        gate.acquire("a", tenant="batch")
        failures: list[BaseException] = []
        admitted = threading.Event()

        def queue_batch():
            try:
                gate.acquire("b", tenant="batch")
            except BaseException as exc:
                failures.append(exc)

        def queue_interactive():
            gate.acquire("c", tenant="interactive")
            admitted.set()

        tb = threading.Thread(target=queue_batch)
        tb.start()
        _spin_until(lambda: gate.queued_count() == 1)
        tc = threading.Thread(target=queue_interactive)
        tc.start()
        # The full queue sheds the batch waiter to seat the interactive one.
        tb.join(5.0)
        assert not tb.is_alive()
        assert len(failures) == 1
        assert isinstance(failures[0], AdmissionError)
        assert "shed from the admission queue" in str(failures[0])
        assert ledger.get("shed.preempted") == 1

        gate.release("a")
        assert admitted.wait(5.0)
        tc.join(5.0)
        assert gate.queue_state()["running"] == {"c": "interactive"}

    def test_full_queue_without_lower_priority_victim_rejects_arrival(self):
        gate = SessionAdmission(
            max_concurrent_sessions=1,
            max_queue_depth=1,
            timeout_s=10.0,
            tenant_priorities={"interactive": 1, "batch": 0},
        )
        gate.acquire("a", tenant="interactive")
        t = threading.Thread(
            target=lambda: gate.acquire("b", tenant="interactive")
        )
        t.start()
        _spin_until(lambda: gate.queued_count() == 1)
        # A batch arrival cannot displace the equal-or-higher waiter.
        with pytest.raises(AdmissionError, match="queue full"):
            gate.acquire("c", tenant="batch")
        gate.release("a")
        t.join(5.0)


# --------------------------------------------------------------------------
# Scheduler: cancel WAKES blocked waiters (satellite: wakeups)
# --------------------------------------------------------------------------


class TestCancelWakesWaiters:
    def test_scheduler_waiter_woken_by_cancel_not_timeout(self):
        pool = WorkerPoolScheduler(total_slots=1, timeout_s=30.0)
        pool.acquire_slot("holder")
        budget = Budget(session_id="w")
        failures: list[BaseException] = []

        def wait_for_slot():
            try:
                pool.acquire_slot("w", budget=budget)
            except BaseException as exc:
                failures.append(exc)

        t = threading.Thread(target=wait_for_slot)
        t.start()
        _spin_until(lambda: pool.waits == 1)
        start = perf_counter()
        budget.cancel("client hung up")
        t.join(5.0)
        assert perf_counter() - start < WAKE_BOUND_S
        assert len(failures) == 1
        assert isinstance(failures[0], SessionCancelled)
        # The cancelled waiter left no residue: the slot still grants.
        pool.release_slot("holder")
        pool.acquire_slot("next")


# --------------------------------------------------------------------------
# Mux transport: CANCEL frames, close_tag vs cancel race (satellite: race)
# --------------------------------------------------------------------------


class TestMuxCancel:
    def test_cancel_tag_wakes_blocked_recv_with_typed_error(self):
        transport = MuxSocketTransport()
        tag = transport.new_tag()
        failures: list[BaseException] = []

        def blocked_reader():
            try:
                transport.recv(tag, timeout=30.0)
            except BaseException as exc:
                failures.append(exc)

        t = threading.Thread(target=blocked_reader)
        t.start()
        time.sleep(0.05)  # let the reader block on the empty tag
        start = perf_counter()
        transport.cancel_tag(tag)
        t.join(5.0)
        assert perf_counter() - start < WAKE_BOUND_S
        assert len(failures) == 1
        assert isinstance(failures[0], SessionCancelled)
        transport.close()

    def test_close_tag_concurrent_with_cancel_never_wedges(self):
        # A reader that never drains: the tag's flush can only finish when
        # the concurrent cancel marks the budget — close_tag must observe it
        # between pump passes and return instead of waiting out its 30s
        # flush timeout (or raising).
        transport = MuxSocketTransport(buffer_bytes=2048, send_timeout_s=30.0)
        tag = transport.new_tag()
        budget = Budget(session_id="s")
        payload = b"x" * 65536
        for _ in range(8):  # far beyond the kernel buffer: a real backlog
            transport.send(tag, payload)

        closed = threading.Event()
        failures: list[BaseException] = []

        def teardown():
            try:
                transport.close_tag(tag, budget=budget)
            except BaseException as exc:
                failures.append(exc)
            finally:
                closed.set()

        t = threading.Thread(target=teardown)
        t.start()
        time.sleep(0.05)  # ensure close_tag is mid-flush when cancel lands
        start = perf_counter()
        budget.cancel("teardown race")
        assert closed.wait(5.0)
        t.join(5.0)
        assert perf_counter() - start < WAKE_BOUND_S
        assert failures == []  # returned cleanly, no flush timeout
        transport.release_tag(tag)
        transport.close()

    def test_close_tag_with_pre_cancelled_budget_returns_immediately(self):
        transport = MuxSocketTransport(buffer_bytes=2048, send_timeout_s=30.0)
        tag = transport.new_tag()
        budget = Budget(session_id="s")
        budget.cancel()
        for _ in range(8):
            transport.send(tag, b"x" * 65536)
        start = perf_counter()
        transport.close_tag(tag, budget=budget)
        assert perf_counter() - start < WAKE_BOUND_S
        transport.release_tag(tag)
        transport.close()


# --------------------------------------------------------------------------
# Trainer: checkpoint-then-abort ordering
# --------------------------------------------------------------------------


class TestTrainerCancel:
    def _store(self, deployment):
        return CheckpointStore(deployment.dfs, base_dir="/ckpt")

    def test_cancel_aborts_after_committing_due_checkpoint(self):
        deployment = make_deployment()
        store = self._store(deployment)
        budget = Budget(session_id="j")
        checkpointer = TrainCheckpointer("j", store=store, interval=1, budget=budget)
        checkpointer.iteration_done(0, lambda: {"algorithm": "svm", "iteration": 0})
        budget.cancel("client gave up")
        with pytest.raises(SessionCancelled):
            checkpointer.iteration_done(
                1, lambda: {"algorithm": "svm", "iteration": 1}
            )
        # The save committed BEFORE the abort: a retry of this job id
        # resumes from iteration 1, it does not restart.
        assert checkpointer.saves == 2
        state, _version = store.load_latest("j")
        assert state["iteration"] == 1

    def test_deadline_aborts_between_iterations_without_store(self):
        clock = FakeClock()
        budget = Budget(deadline_s=5.0, session_id="j", clock=clock)
        checkpointer = TrainCheckpointer("j", budget=budget)
        checkpointer.iteration_done(0, lambda: {})
        clock.now += 10.0
        with pytest.raises(DeadlineExceeded):
            checkpointer.iteration_done(1, lambda: {})


# --------------------------------------------------------------------------
# Coordinator end-to-end: cancel_session, deadline waits, races, ledger
# --------------------------------------------------------------------------


def loaded_deployment(**kwargs):
    deployment = make_deployment(**kwargs)
    make_points_table(deployment.engine)
    return deployment


class TestCoordinatorBudgets:
    def test_cancel_session_tears_down_and_releases_admission(self):
        deployment = loaded_deployment(max_concurrent_sessions=2)
        coordinator = deployment.coordinator
        coordinator.create_session(
            "c0",
            command="svm_with_sgd",
            args={"iterations": 3, "seed": BASE_SEED},
            conf_props={"record.format": "labeled_csv", "label.index": -1},
        )
        assert coordinator.admission.running_count() == 1
        assert coordinator.cancel_session("c0", reason="user abort") is True
        assert coordinator.cancel_session("c0") is False  # idempotent
        assert coordinator.admission.running_count() == 0  # slot released
        # Torn down, but a late lookup still gets the *typed* cancel (a
        # tombstone), never a bare "unknown session".
        with pytest.raises(SessionCancelled, match="user abort"):
            coordinator.session("c0")
        assert coordinator.cancel_session("never-created") is False
        assert deployment.cluster.ledger.get("cancel.requested") == 1

    def test_wait_result_bounded_by_budget_not_stacked_timeouts(self):
        deployment = loaded_deployment(max_concurrent_sessions=2)
        coordinator = deployment.coordinator
        coordinator.create_session(
            "d0",
            command="svm_with_sgd",
            args={"iterations": 3, "seed": BASE_SEED},
            conf_props={"record.format": "labeled_csv", "label.index": -1},
            deadline_s=0.2,
        )
        start = perf_counter()
        # Nothing ever streams: the seed behavior is a 4x-flat-timeout wait
        # (minutes); the budget surfaces the typed expiry in ~deadline.
        with pytest.raises(DeadlineExceeded):
            coordinator.wait_result("d0")
        assert perf_counter() - start < 5.0
        assert deployment.cluster.ledger.get("deadline.expired") >= 1
        coordinator.close_session("d0")

    def test_conf_prop_arms_the_deadline(self):
        deployment = loaded_deployment(max_concurrent_sessions=2)
        coordinator = deployment.coordinator
        coordinator.create_session(
            "p0",
            command="svm_with_sgd",
            args={"iterations": 3, "seed": BASE_SEED},
            conf_props={
                "record.format": "labeled_csv",
                "label.index": -1,
                "stream.deadline_s": "0.2",
            },
        )
        with pytest.raises(DeadlineExceeded):
            coordinator.wait_result("p0")
        coordinator.close_session("p0")

    def test_completed_result_wins_a_late_cancel(self):
        deployment = loaded_deployment(max_concurrent_sessions=2)
        outcome = run_one_session(deployment, "late", seed=BASE_SEED)
        assert outcome.error is None
        # The session completed and closed; a straggling cancel is a no-op
        # on the result — it must not rewrite history into a failure.
        assert deployment.coordinator.cancel_session("late") is False

    def test_cancel_mid_flight_yields_typed_outcome_and_cleanup(self):
        deployment = loaded_deployment(max_concurrent_sessions=2)
        coordinator = deployment.coordinator
        coordinator.create_session(
            "mid",
            command="svm_with_sgd",
            args={"iterations": 3, "seed": BASE_SEED},
            conf_props={"record.format": "labeled_csv", "label.index": -1},
        )
        waiter_error: list[BaseException] = []

        def waiter():
            try:
                coordinator.wait_result("mid", timeout=30.0)
            except BaseException as exc:
                waiter_error.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        start = perf_counter()
        coordinator.cancel_session("mid")
        t.join(5.0)
        assert perf_counter() - start < WAKE_BOUND_S  # woken, not timed out
        assert len(waiter_error) == 1
        assert isinstance(waiter_error[0], SessionCancelled)
        with pytest.raises(SessionCancelled):
            coordinator.session("mid")  # torn down; late lookups stay typed

    def test_session_with_deadline_still_completes_and_matches(self):
        armed = loaded_deployment(max_concurrent_sessions=2)
        outcome = run_one_session(armed, "ok", seed=BASE_SEED, deadline_s=30.0)
        assert outcome.error is None

        plain = loaded_deployment(max_concurrent_sessions=2)
        baseline = run_one_session(plain, "ok", seed=BASE_SEED)
        assert outcome.weights == baseline.weights
        assert outcome.intercept == baseline.intercept


class TestLedgerIsolation:
    def test_disarmed_deployment_emits_no_budget_categories(self):
        plain = loaded_deployment()
        run_one_session(plain, "solo0", seed=BASE_SEED)
        snapshot = plain.cluster.ledger.snapshot()
        for key in snapshot:
            assert not key.startswith(
                ("deadline.", "cancel.", "shed.", "retry_budget.")
            ), key

    def test_armed_but_unfired_budget_keeps_stream_ledgers_identical(self):
        plain = loaded_deployment()
        run_one_session(plain, "solo0", seed=BASE_SEED)
        baseline = plain.cluster.ledger.snapshot()

        # Generous deadline + retry budget installed but never consulted:
        # the Figure 3/4 byte categories must not move by a single byte,
        # and no feature category may appear.
        armed = loaded_deployment(
            default_deadline_s=300.0, retry_budget_tokens=8
        )
        run_one_session(armed, "solo0", seed=BASE_SEED)
        armed_snapshot = armed.cluster.ledger.snapshot()
        for key in ("stream.sent", "stream.net", "ml.ingest"):
            assert armed_snapshot.get(key) == baseline.get(key), key
        for key in armed_snapshot:
            assert not key.startswith(
                ("deadline.", "cancel.", "shed.", "retry_budget.")
            ), key
