"""§6 fault injection + coordinated partial-restart recovery (chaos tests).

Every chaos scenario is parametrized over three RNG seeds: the faults land
at different points each seed, but recovery must always deliver the same
final answer as a fault-free run.
"""

import numpy as np
import pytest

from repro import make_deployment
from repro.broker.broker import MessageBroker
from repro.broker.consumer import BrokerConsumer
from repro.broker.producer import BrokerProducer
from repro.cluster.cost import CostLedger
from repro.common.errors import (
    ChannelAbortedError,
    ChannelTimeoutError,
    RetriesExhaustedError,
    TransferError,
    WorkerFailedError,
)
from repro.faults import (
    FaultConfig,
    FaultInjector,
    RecoveryManager,
    RetryPolicy,
)
from repro.sql.types import DataType, Schema
from repro.transfer.stream_udf import plan_blocks

SEEDS = (0, 1, 2)
TRANSPORTS = ("memory", "socket")


def make_points(deployment, n=500):
    rows = [(i, float(i % 7), float(i % 3), float(i % 2)) for i in range(n)]
    deployment.engine.create_table(
        "points",
        Schema.of(
            ("id", DataType.BIGINT),
            ("f1", DataType.DOUBLE),
            ("f2", DataType.DOUBLE),
            ("label", DataType.DOUBLE),
        ),
        rows,
    )
    return rows


def run_svm(deployment, session_id):
    deployment.coordinator.create_session(
        session_id,
        command="svm_with_sgd",
        args={"iterations": 5},
        conf_props={"record.format": "labeled_csv", "label.index": -1},
    )
    deployment.engine.query_rows(
        "SELECT * FROM TABLE(stream_transfer((SELECT f1, f2, label FROM points), "
        f"'{session_id}')) AS s"
    )
    return deployment.coordinator.wait_result(session_id)


# --------------------------------------------------------------------------
# FaultInjector: determinism and budgets
# --------------------------------------------------------------------------


class TestFaultInjector:
    def _drive(self, injector):
        """Exercise every site in a fixed order; return the event log."""
        for i in range(50):
            try:
                injector.check_send(f"ch-{i % 3}")
            except ChannelTimeoutError:
                pass
            try:
                injector.check_kill(i % 2, rows_streamed=i)
            except WorkerFailedError:
                pass
            injector.check_duplicate_fetch(f"t/{i % 2}")
        return list(injector.events)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_faults(self, seed):
        config = FaultConfig(
            seed=seed,
            send_drop_rate=0.2,
            kill_sql_worker_rate=0.05,
            broker_duplicate_rate=0.1,
            max_kills=None,
            max_events=None,
        )
        a = self._drive(FaultInjector(config))
        b = self._drive(FaultInjector(config))
        assert a == b
        assert a  # the rates are high enough that something fired

    def test_interleaving_independence(self):
        """Per-site RNG streams: the decisions at one site do not depend on
        how calls to *other* sites interleave (thread-schedule immunity)."""
        config = FaultConfig(seed=7, send_drop_rate=0.3, max_events=None)

        def site_outcomes(injector, site, other_first):
            outcomes = []
            for i in range(30):
                if other_first:  # interleave foreign-site draws
                    try:
                        injector.check_send(f"other-{i}")
                    except ChannelTimeoutError:
                        pass
                try:
                    injector.check_send(site)
                    outcomes.append(False)
                except ChannelTimeoutError:
                    outcomes.append(True)
            return outcomes

        plain = site_outcomes(FaultInjector(config), "ch-A", other_first=False)
        interleaved = site_outcomes(FaultInjector(config), "ch-A", other_first=True)
        assert plain == interleaved

    def test_disabled_injector_never_fires(self):
        injector = FaultInjector.disabled()
        assert not injector.enabled
        for i in range(100):
            injector.check_send("ch")
            injector.check_kill(0, i)
            assert injector.check_duplicate_fetch("t/0") is False
            assert injector.corrupt_fetch(b"payload", "t/0") == b"payload"
        assert injector.events == []

    def test_kill_at_is_one_shot(self):
        injector = FaultInjector(FaultConfig(seed=0, kill_at={1: 10}))
        injector.check_kill(1, rows_streamed=5)  # below the point: survives
        with pytest.raises(WorkerFailedError) as exc:
            injector.check_kill(1, rows_streamed=10)
        assert exc.value.worker_id == 1
        # The replacement worker replays the same rows and must survive.
        injector.check_kill(1, rows_streamed=10)
        injector.check_kill(1, rows_streamed=500)
        assert injector.counts["kill"] == 1

    def test_event_budget_bounds_chaos(self):
        injector = FaultInjector(
            FaultConfig(seed=3, send_drop_rate=1.0, max_events=4)
        )
        fired = 0
        for _ in range(20):
            try:
                injector.check_send("ch")
            except ChannelTimeoutError:
                fired += 1
        assert fired == 4


# --------------------------------------------------------------------------
# RetryPolicy + RecoveryManager units
# --------------------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_and_capped(self):
        policy = RetryPolicy(
            base_delay_s=0.001, multiplier=2.0, max_delay_s=0.004, jitter=0.5, seed=9
        )
        delays = [policy.delay_s(a, key="ch") for a in range(6)]
        assert delays == [policy.delay_s(a, key="ch") for a in range(6)]
        # exponential up to the cap, jitter multiplies by [1, 1.5)
        for attempt, delay in enumerate(delays):
            base = min(0.001 * 2.0**attempt, 0.004)
            assert base <= delay < base * 1.5
        assert max(delays) < 0.004 * 1.5

    def test_jitter_decorrelates_keys(self):
        policy = RetryPolicy(jitter=1.0, seed=0)
        assert policy.delay_s(0, key="a") != policy.delay_s(0, key="b")


class TestRecoveryManager:
    def test_heartbeat_staleness_detection(self):
        clock = {"now": 100.0}
        recovery = RecoveryManager(
            heartbeat_timeout_s=5.0, clock=lambda: clock["now"], sleep=lambda _s: None
        )
        recovery.heartbeat("s", 0)
        clock["now"] = 103.0
        recovery.heartbeat("s", 1)
        assert recovery.stale_workers("s") == []
        clock["now"] = 106.0  # worker 0 beat 6s ago, worker 1 only 3s ago
        assert recovery.stale_workers("s") == [0]
        assert recovery.last_heartbeat("s", 0) == 100.0
        assert recovery.stale_workers("unknown") == []

    def test_send_with_retry_recovers_transient(self):
        recovery = RecoveryManager(
            retry_policy=RetryPolicy(max_attempts=5), sleep=lambda _s: None
        )
        state = {"calls": 0}

        def flaky_send():
            state["calls"] += 1
            if state["calls"] <= 2:
                raise ChannelTimeoutError("blip")

        recovery.send_with_retry(flaky_send, "ch-0")
        assert state["calls"] == 3
        assert recovery.send_retries == 2

    def test_send_with_retry_exhausts(self):
        recovery = RecoveryManager(
            retry_policy=RetryPolicy(max_attempts=3), sleep=lambda _s: None
        )

        def dead_send():
            raise ChannelTimeoutError("gone")

        with pytest.raises(RetriesExhaustedError, match="3 times"):
            recovery.send_with_retry(dead_send, "ch-0")

    def test_partial_restart_budget(self):
        recovery = RecoveryManager(max_partial_restarts=2, sleep=lambda _s: None)

        class FakeCoordinator:
            def plan_partial_restart(self, session_id, worker_id, reason):
                return {"restart_sql_worker": worker_id, "restart_ml_workers": [7, 8]}

        coordinator = FakeCoordinator()
        for _ in range(2):
            plan = recovery.begin_partial_restart(coordinator, "s", 1, "kill")
            assert plan["restart_ml_workers"] == [7, 8]
        with pytest.raises(RetriesExhaustedError, match="budget"):
            recovery.begin_partial_restart(coordinator, "s", 1, "kill")
        assert [e.attempt for e in recovery.restart_events] == [1, 2]


# --------------------------------------------------------------------------
# Sequenced blocks + dedup at the channel level
# --------------------------------------------------------------------------


class TestSequencedChannel:
    def test_plan_blocks_deterministic_round_robin(self):
        blocks = plan_blocks(20, k=3, batch_rows=4)
        again = plan_blocks(20, k=3, batch_rows=4)
        assert [(t, s, rows.tolist()) for t, s, rows in blocks] == [
            (t, s, rows.tolist()) for t, s, rows in again
        ]
        # every row exactly once, channel i holds rows i, i+3, ...
        for target, _seq, rows in blocks:
            assert all(r % 3 == target for r in rows.tolist())
        assert sorted(r for _t, _s, rows in blocks for r in rows.tolist()) == list(range(20))
        # per-channel sequence numbers are dense from 0
        for ch in range(3):
            seqs = [s for t, s, _r in blocks if t == ch]
            assert seqs == list(range(len(seqs)))


# --------------------------------------------------------------------------
# Chaos end-to-end: kill a SQL worker mid-stream, recover by partial restart
# --------------------------------------------------------------------------


class TestChaosPartialRestart:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kill_mid_stream_recovers_with_identical_model(self, seed):
        """The acceptance scenario: a seeded kill of SQL worker 1 mid-stream
        completes via partial restart; the trained model is identical to the
        fault-free run and only the failed worker's pairs restarted."""
        clean = make_deployment(block_size=64 * 1024, batch_rows=16)
        make_points(clean)
        clean_result = run_svm(clean, "clean")

        injector = FaultInjector(FaultConfig(seed=seed, kill_at={1: 50}))
        chaos = make_deployment(
            block_size=64 * 1024, batch_rows=16, fault_injector=injector
        )
        make_points(chaos)
        before = chaos.cluster.ledger.snapshot()
        chaos_result = run_svm(chaos, "chaos")
        delta = chaos.cluster.ledger.delta(before, chaos.cluster.ledger.snapshot())

        # The kill actually happened and one partial restart recovered it.
        assert injector.counts["kill"] == 1
        recovery = chaos.coordinator.recovery
        assert [e.sql_worker_id for e in recovery.restart_events] == [1]

        # Exactly the failed worker's pairing restarted — the §6 plan.
        session = chaos.coordinator.session("chaos")
        plan = session.restart_plan(1)
        event = recovery.restart_events[0]
        assert list(event.ml_worker_indexes) == plan["restart_ml_workers"]
        assert session.recovery_log[0]["sql_worker_id"] == 1
        assert not session.failed

        # Replay traffic stayed inside worker 1's channel group.
        for worker_id, group in session.groups.items():
            for cid in group:
                channel = session.channels[cid]
                if worker_id == 1:
                    continue
                assert channel.retry_bytes == 0
                assert channel.duplicate_blocks == 0
        killed = [session.channels[cid] for cid in session.groups[1]]
        assert sum(c.retry_bytes for c in killed) == delta["stream.retry"] > 0
        assert sum(c.duplicate_blocks for c in killed) > 0

        # Exactly-once at the ML boundary: same dataset, same model, and the
        # ingested bytes match the fault-free run byte for byte.
        def sig(r):
            return sorted((lp.label, tuple(lp.features)) for lp in r.dataset.collect())

        assert sig(chaos_result) == sig(clean_result)
        assert np.array_equal(
            chaos_result.model.weights, clean_result.model.weights
        )
        clean_ingest = clean.cluster.ledger.get("ml.ingest")
        assert delta["ml.ingest"] == clean_ingest

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transient_send_drops_are_retried(self, seed):
        injector = FaultInjector(
            FaultConfig(seed=seed, send_drop_rate=0.25, max_events=10)
        )
        recovery = RecoveryManager(
            injector=injector,
            retry_policy=RetryPolicy(max_attempts=10),
            sleep=lambda _s: None,
        )
        deployment = make_deployment(
            block_size=64 * 1024, batch_rows=16, recovery=recovery
        )
        rows = make_points(deployment)
        deployment.coordinator.create_session(
            "drops", command="noop", conf_props={"record.format": "raw"}
        )
        deployment.engine.query_rows(
            "SELECT * FROM TABLE(stream_transfer((SELECT f1, f2, label FROM points), "
            "'drops')) AS s"
        )
        result = deployment.coordinator.wait_result("drops")
        assert injector.counts["drop"] > 0
        assert deployment.coordinator.recovery.send_retries == injector.counts["drop"]
        received = sorted(result.dataset.collect())
        assert received == sorted((f1, f2, label) for _id, f1, f2, label in rows)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_restart_budget_exhaustion_fails_session(self, transport):
        """A worker that dies more often than the budget allows escalates:
        the session fails and the typed error reaches both sides."""
        injector = FaultInjector(
            FaultConfig(seed=0, kill_sql_worker_rate=1.0, max_kills=None)
        )
        recovery = RecoveryManager(
            injector=injector, max_partial_restarts=2, sleep=lambda _s: None
        )
        deployment = make_deployment(
            block_size=64 * 1024, batch_rows=16, recovery=recovery, transport=transport
        )
        make_points(deployment)
        deployment.coordinator.create_session(
            "doomed", command="noop", conf_props={"record.format": "raw"}
        )
        with pytest.raises(RetriesExhaustedError, match="budget"):
            deployment.engine.query_rows(
                "SELECT * FROM TABLE(stream_transfer((SELECT id FROM points), "
                "'doomed')) AS s"
            )
        session = deployment.coordinator.session("doomed")
        assert session.failed
        # The ML side saw the abort, not a clean EOF over a truncated stream.
        with pytest.raises(TransferError, match="aborted"):
            deployment.coordinator.wait_result("doomed")


class TestProducerDeath:
    """A producer that dies mid-stream poisons its channels on every
    transport: readers get the typed ``ChannelAbortedError`` — never a clean
    EOF, an ``AttributeError``, or a receive timeout — so the delivered
    prefix is never ingested (and never charges ``ml.ingest``)."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_abort_is_sticky_over_close(self, transport):
        deployment = make_deployment(block_size=64 * 1024, transport=transport)
        coordinator = deployment.coordinator
        coordinator.launcher = lambda session: "launched"
        coordinator.create_session("s", command="noop")
        for worker_id in range(4):
            coordinator.register_sql_worker("s", worker_id, f"10.0.0.{worker_id}", 4)
        coordinator.plan_input_splits("s", None)
        channel = coordinator.sql_worker_channels("s", 0)[0]
        channel.send_many([(1, "half-delivered")])
        coordinator.notify_channel_failure("s", 0, "socket reset")
        channel.close()  # a later clean close must not clear the abort
        with pytest.raises(ChannelAbortedError, match="socket reset"):
            channel.receive(timeout=1.0)
        coordinator.close_session("s")

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_truncated_stream_never_charges_ml_ingest(self, transport):
        """SQL worker 1 is killed after 50 rows with no restart budget: the
        other workers' streams complete, worker 1's delivered prefix does
        not count, and the session fails typed."""
        injector = FaultInjector(FaultConfig(seed=0, kill_at={1: 50}))
        recovery = RecoveryManager(
            injector=injector, max_partial_restarts=0, sleep=lambda _s: None
        )
        deployment = make_deployment(
            block_size=64 * 1024, batch_rows=16, recovery=recovery, transport=transport
        )
        make_points(deployment)
        deployment.coordinator.create_session(
            "cut", command="noop", conf_props={"record.format": "raw"}
        )
        with pytest.raises(RetriesExhaustedError):
            deployment.engine.query_rows(
                "SELECT * FROM TABLE(stream_transfer((SELECT id FROM points), "
                "'cut')) AS s"
            )
        with pytest.raises(TransferError, match="aborted"):
            deployment.coordinator.wait_result("cut")
        assert deployment.cluster.ledger.get("stream.sent") > 0
        assert deployment.cluster.ledger.get("ml.ingest") == 0


class TestMlReaderKill:
    def test_ml_reader_death_recovers_at_pipeline_tier(self):
        """A dead ML reader is §6's fatal tier — its split cannot move
        mid-stream — so the pipeline's ``max_attempts`` full restart is the
        recovery path, and the retried attempt delivers complete data."""
        from repro.workloads import generate_retail

        injector = FaultInjector(FaultConfig(seed=0, kill_ml_at={2: 1}))
        deployment = make_deployment(
            block_size=64 * 1024, batch_rows=16, fault_injector=injector
        )
        wl = generate_retail(
            deployment.engine, deployment.dfs, num_users=100, num_carts=800, seed=5
        )
        deployment.pipeline.byte_scale = wl.byte_scale
        result = deployment.pipeline.run_insql_stream(
            wl.prep_sql, wl.spec, "noop", max_attempts=2
        )
        assert result.attempts == 2
        assert injector.counts["kill_ml"] == 1
        clean = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")

        def sig(r):
            return sorted(
                (lp.label, tuple(lp.features))
                for lp in r.ml_result.dataset.collect()
            )

        assert sig(result) == sig(clean)

    def test_ml_reader_kill_without_retry_budget_raises(self):
        from repro.workloads import generate_retail

        injector = FaultInjector(FaultConfig(seed=0, kill_ml_at={0: 1}))
        deployment = make_deployment(
            block_size=64 * 1024, batch_rows=16, fault_injector=injector
        )
        wl = generate_retail(
            deployment.engine, deployment.dfs, num_users=100, num_carts=800, seed=5
        )
        deployment.pipeline.byte_scale = wl.byte_scale
        with pytest.raises(TransferError, match="ML reader 0"):
            deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")


# --------------------------------------------------------------------------
# Fault-free invariance: framework installed but disabled
# --------------------------------------------------------------------------


class TestFaultFreeInvariance:
    def test_disabled_injector_is_byte_invariant(self):
        """Figure 3/4 protection: with the recovery stack installed and the
        injector disabled, every fault-free ledger total matches a plain
        deployment exactly; retry counters stay at zero."""
        plain = make_deployment(block_size=64 * 1024, batch_rows=16)
        make_points(plain)
        before_p = plain.cluster.ledger.snapshot()
        plain_result = run_svm(plain, "plain")
        delta_p = plain.cluster.ledger.delta(before_p, plain.cluster.ledger.snapshot())

        guarded = make_deployment(
            block_size=64 * 1024,
            batch_rows=16,
            fault_injector=FaultInjector.disabled(),
        )
        make_points(guarded)
        # The resilient protocol (sequenced frames, heartbeats, retry hooks)
        # really is active — this invariance is not vacuous.
        assert guarded.coordinator.recovery is not None
        before_g = guarded.cluster.ledger.snapshot()
        guarded_result = run_svm(guarded, "guarded")
        delta_g = guarded.cluster.ledger.delta(
            before_g, guarded.cluster.ledger.snapshot()
        )

        assert delta_g["stream.sent"] == delta_p["stream.sent"]
        assert delta_g["ml.ingest"] == delta_p["ml.ingest"]
        assert delta_g["ml.ingest"] == delta_g["stream.sent"]
        assert delta_g.get("stream.retry", 0) == 0
        assert guarded.coordinator.recovery.summary() == {
            "send_retries": 0,
            "partial_restarts": 0,
            "ml_recoveries": 0,
            "injected": {},
        }
        assert np.array_equal(
            guarded_result.model.weights, plain_result.model.weights
        )

    def test_heartbeats_flow_during_stream(self):
        deployment = make_deployment(
            block_size=64 * 1024,
            batch_rows=16,
            fault_injector=FaultInjector.disabled(),
        )
        make_points(deployment)
        deployment.coordinator.create_session(
            "beats", command="noop", conf_props={"record.format": "raw"}
        )
        deployment.engine.query_rows(
            "SELECT * FROM TABLE(stream_transfer((SELECT id FROM points), 'beats')) AS s"
        )
        deployment.coordinator.wait_result("beats")
        recovery = deployment.coordinator.recovery
        for worker_id in range(4):
            assert recovery.last_heartbeat("beats", worker_id) is not None
        assert recovery.stale_workers("beats") == []


# --------------------------------------------------------------------------
# Broker chaos: duplicate delivery and corrupted fetches
# --------------------------------------------------------------------------


def _fill_topic(broker, n=60, batch_rows=1):
    broker.create_topic("t", 2)
    producer = BrokerProducer(broker, "t", batch_rows=batch_rows)
    rows = [(i, float(i)) for i in range(n)]
    producer.send_many(rows)
    producer.close()
    return rows


class TestBrokerChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicate_fetches_deduplicated(self, seed):
        ledger = CostLedger()
        broker = MessageBroker(ledger=ledger)
        rows = _fill_topic(broker)
        injector = FaultInjector(
            FaultConfig(seed=seed, broker_duplicate_rate=0.5, max_events=None)
        )
        out = []
        dup_records = 0
        for partition in (0, 1):
            consumer = BrokerConsumer(
                broker, "t", partition, group="g", batch_size=3, injector=injector
            )
            out.extend(consumer)
            dup_records += consumer.duplicate_records
        assert sorted(out) == sorted(rows)  # exactly once despite redelivery
        assert injector.counts["duplicate"] > 0
        assert dup_records > 0
        assert ledger.get("broker.retry") > 0
        # Fault-free accounting untouched: broker.out counts each record once.
        assert ledger.get("broker.out") == ledger.get("broker.in")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corrupted_fetches_refetched(self, seed):
        ledger = CostLedger()
        broker = MessageBroker(ledger=ledger)
        rows = _fill_topic(broker)
        injector = FaultInjector(
            FaultConfig(seed=seed, broker_corrupt_rate=0.4, max_events=None)
        )
        out = []
        refetched = 0
        for partition in (0, 1):
            consumer = BrokerConsumer(
                broker, "t", partition, group="g", batch_size=3, injector=injector
            )
            out.extend(consumer)
            refetched += consumer.refetched_records
        assert sorted(out) == sorted(rows)
        assert injector.counts["corrupt"] > 0
        assert refetched == injector.counts["corrupt"]
        assert ledger.get("broker.retry") > 0
        assert ledger.get("broker.out") == ledger.get("broker.in")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_producer_append_retries(self, seed):
        broker = MessageBroker()
        broker.create_topic("t", 2)
        injector = FaultInjector(
            FaultConfig(seed=seed, producer_drop_rate=0.3, max_events=None)
        )
        producer = BrokerProducer(
            broker,
            "t",
            batch_rows=2,
            injector=injector,
            retry_policy=RetryPolicy(max_attempts=50),
            sleep=lambda _s: None,
        )
        rows = [(i,) for i in range(80)]
        producer.send_many(rows)
        producer.close()
        assert injector.counts["producer_drop"] > 0
        assert producer.append_retries == injector.counts["producer_drop"]
        out = []
        for partition in (0, 1):
            out.extend(BrokerConsumer(broker, "t", partition, group="g"))
        assert sorted(out) == sorted(rows)  # retried appends never duplicate

    def test_producer_without_policy_propagates(self):
        broker = MessageBroker()
        broker.create_topic("t", 1)
        injector = FaultInjector(
            FaultConfig(seed=0, producer_drop_rate=1.0, max_events=1)
        )
        producer = BrokerProducer(broker, "t", injector=injector)
        with pytest.raises(ChannelTimeoutError, match="append"):
            producer.send((1,))


# --------------------------------------------------------------------------
# Degradation tier: streaming falls back to the DFS path
# --------------------------------------------------------------------------


class TestDegradeToDfs:
    def test_stream_failure_degrades_to_materialized_path(self):
        from repro.common.errors import MLError
        from repro.workloads import generate_retail

        deployment = make_deployment(block_size=64 * 1024)
        workload = generate_retail(
            deployment.engine, deployment.dfs, num_users=200, num_carts=2_000, seed=5
        )
        deployment.pipeline.byte_scale = workload.byte_scale

        state = {"calls": 0}

        def train(dataset, args):
            state["calls"] += 1
            if state["calls"] == 1:  # the streaming attempt dies
                raise MLError("injected trainer crash")
            return {"rows": dataset.count()}

        deployment.ml.register_algorithm("fragile", train)
        result = deployment.pipeline.run_insql_stream(
            workload.prep_sql,
            workload.spec,
            "fragile",
            max_attempts=1,
            degrade_to_dfs=True,
        )
        assert result.degraded_from == "insql+stream"
        assert result.approach == "insql"
        assert result.attempts == 1
        assert result.ml_result.model["rows"] > 0
        # The fallback took the materialized route: a real DFS write happened.
        assert deployment.cluster.ledger.get("dfs.write.local") > 0
