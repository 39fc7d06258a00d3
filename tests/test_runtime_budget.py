"""Units for the per-session Budget and the shared RetryTokenBucket."""

import json
import time

import pytest

from repro.common.errors import (
    ChannelTimeoutError,
    DeadlineExceeded,
    MLError,
    SessionCancelled,
    TransferError,
)
from repro.runtime.budget import (
    Budget,
    RetryTokenBucket,
    budget_check,
    budget_remaining,
)

pytestmark = pytest.mark.timeout(60)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class DictLedger:
    def __init__(self):
        self.counts: dict[str, float] = {}

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def get(self, key: str):
        return self.counts.get(key, 0)


class TestBudgetDeadline:
    def test_unbounded_budget_is_inert(self):
        b = Budget(session_id="s")
        assert b.deadline_s is None
        assert b.remaining() is None
        assert not b.expired
        assert b.clamp(30.0) == 30.0  # the seed flat timeout, untouched
        assert b.clamp(None) is None
        b.check("anything")  # never raises

    def test_remaining_and_clamp_derive_from_one_clock(self):
        clock = FakeClock()
        b = Budget(deadline_s=10.0, clock=clock)
        assert b.remaining() == 10.0
        assert b.clamp(30.0) == 10.0  # budget caps a generous flat timeout
        assert b.clamp(2.0) == 2.0  # a tighter flat timeout survives
        assert b.clamp(None) == 10.0  # unbounded flat timeout gets the cap
        clock.advance(9.5)
        assert b.remaining() == 0.5
        clock.advance(1.0)
        assert b.remaining() == 0.0
        assert b.expired

    def test_check_raises_typed_nonretryable_deadline(self):
        clock = FakeClock()
        b = Budget(deadline_s=1.0, session_id="sess-1", clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded, match="sess-1") as err:
            b.check("result wait")
        # Typed so every retry/recovery ladder can refuse to swallow it:
        # a TransferError, but never a retryable channel timeout or MLError.
        assert isinstance(err.value, TransferError)
        assert not isinstance(err.value, ChannelTimeoutError)
        assert not isinstance(err.value, MLError)
        assert err.value.session_id == "sess-1"
        assert "result wait" in str(err.value)

    def test_deadline_expired_ledger_counts_once(self):
        clock = FakeClock()
        ledger = DictLedger()
        b = Budget(deadline_s=1.0, clock=clock, ledger=ledger)
        clock.advance(5.0)
        for _ in range(3):
            with pytest.raises(DeadlineExceeded):
                b.check()
        assert ledger.counts == {"deadline.expired": 1}

    def test_plain_budget_touches_no_ledger(self):
        ledger = DictLedger()
        b = Budget(ledger=ledger)
        b.check()
        b.clamp(1.0)
        assert ledger.counts == {}


class TestBudgetCancel:
    def test_cancel_is_idempotent_and_runs_callbacks(self):
        b = Budget(session_id="s")
        woken: list[int] = []
        b.on_cancel(lambda: woken.append(1))
        assert b.cancel("client gave up") is True
        assert b.cancel("again") is False  # only the first cancel counts
        assert b.cancelled
        assert b.cancel_reason == "client gave up"
        assert woken == [1]

    def test_on_cancel_after_cancel_fires_immediately(self):
        b = Budget()
        b.cancel()
        late: list[int] = []
        b.on_cancel(lambda: late.append(1))
        assert late == [1]

    def test_on_cancel_disposer_unregisters(self):
        b = Budget()
        woken: list[int] = []
        dispose = b.on_cancel(lambda: woken.append(1))
        dispose()
        b.cancel()
        assert woken == []

    def test_broken_callback_never_masks_the_cancel(self):
        b = Budget()
        b.on_cancel(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert b.cancel() is True
        assert b.cancelled

    def test_cancel_outranks_deadline_in_check(self):
        clock = FakeClock()
        b = Budget(deadline_s=1.0, session_id="s", clock=clock)
        clock.advance(5.0)
        b.cancel("stop")
        with pytest.raises(SessionCancelled, match="stop"):
            b.check()

    def test_cancel_ledger_counts_once(self):
        ledger = DictLedger()
        b = Budget(ledger=ledger)
        b.cancel()
        b.cancel()
        assert ledger.counts == {"cancel.requested": 1}


class TestBudgetJournal:
    def test_round_trip_preserves_remaining_not_full_budget(self):
        b = Budget(deadline_s=60.0, session_id="s")
        settings = b.to_settings()
        assert settings["deadline_s"] == 60.0
        restored = Budget.from_settings(settings, session_id="s")
        assert restored is not None
        assert restored.deadline_s == 60.0  # reports the original ask
        # ...but enforces only what was left at journal time.
        assert 55.0 < restored.remaining() <= 60.0

    def test_disarmed_journal_restores_to_none(self):
        assert Budget.from_settings({}) is None
        assert Budget.from_settings({"deadline_s": None}) is None
        assert Budget().to_settings() == {
            "deadline_s": None,
            "deadline_unix_us": None,
        }

    def test_expired_journal_raises_at_next_wait_not_construction(self):
        now = [0.0]
        b = Budget(deadline_s=1.0, clock=lambda: now[0])
        now[0] = 6.0  # journaled five seconds after the deadline passed
        settings = b.to_settings()
        restored = Budget.from_settings(settings, session_id="s")
        assert restored is not None  # adoption itself must succeed
        time.sleep(0.01)
        with pytest.raises(DeadlineExceeded):
            restored.check("post-takeover wait")


    def test_journaled_length_does_not_depend_on_the_wall_reading(self):
        """The coordinator journals these settings as JSON, and a fault-free
        ``zk.journal`` byte total must not depend on when a session started."""

        class SweptClock:
            def __init__(self, wall):
                self._wall = wall

            def now(self):
                return 100.0

            def wall(self):
                return self._wall

        lengths = set()
        for i in range(2000):
            clock = SweptClock(1_700_000_000.0 + i * 0.0123457)
            settings = Budget(deadline_s=30.0, clock=clock).to_settings()
            lengths.add(len(json.dumps(settings)))
            restored = Budget.from_settings(settings, clock=clock)
            assert abs(restored.remaining() - 30.0) < 1e-5
        assert len(lengths) == 1


class TestRetryTokenBucket:
    def test_spends_to_dry_and_counts(self):
        ledger = DictLedger()
        bucket = RetryTokenBucket(capacity=2, ledger=ledger)
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is False
        assert bucket.granted == 2
        assert bucket.denied == 1
        assert ledger.counts == {"retry_budget.granted": 2, "retry_budget.denied": 1}

    def test_refills_continuously(self):
        clock = FakeClock()
        bucket = RetryTokenBucket(capacity=2, refill_per_s=1.0, clock=clock)
        assert bucket.try_acquire(2) is True
        assert bucket.try_acquire() is False
        clock.advance(1.5)
        assert bucket.available() == 1
        assert bucket.try_acquire() is True
        clock.advance(100.0)  # refill clamps at capacity
        assert bucket.available() == 2

    def test_zero_capacity_always_denies(self):
        bucket = RetryTokenBucket(capacity=0)
        assert bucket.try_acquire() is False


class TestModuleConveniences:
    def test_budget_remaining_passthrough_without_budget(self):
        assert budget_remaining(None, 7.0) == 7.0
        clock = FakeClock()
        assert budget_remaining(Budget(deadline_s=2.0, clock=clock), 7.0) == 2.0

    def test_budget_check_passthrough_without_budget(self):
        budget_check(None, "anything")
        b = Budget()
        b.cancel()
        with pytest.raises(SessionCancelled):
            budget_check(b, "wait")
