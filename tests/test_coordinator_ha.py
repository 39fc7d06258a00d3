"""Coordinator high availability: leader election, journaled takeover, and
client-side failover (chaos tests).

The headline guarantee: a streaming run that loses its coordinator —
crash, lease expiry, or a lost handshake response — at any failover point
must produce a model **weight-for-weight identical** to a fault-free run,
with the takeover visible only in the ``coordinator.failover`` /
``zk.journal`` ledger counters.  Control-plane failover is data-plane
free: channels live on the worker hosts and are re-attached, never
replayed, so ``stream.retry`` stays at zero.

When ``CHAOS_ARTIFACTS_DIR`` is set (the CI chaos step), each scenario
dumps its ZK journal and fault-event log there before asserting, so
failures upload a full forensic trail.
"""

import json
import os
import pathlib
import threading
import time

import numpy as np
import pytest

from repro import make_deployment
from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import CoordinatorUnavailableError, TransferError
from repro.faults import FaultConfig, FaultInjector, LivenessMonitor, RecoveryManager
from repro.transfer.coordinator import Coordinator
from repro.transfer.ha import EPOCH_PATH, LEADER_PATH, CoordinatorHAGroup
from repro.transfer.zk import ZkError
from repro.workloads import generate_retail

SEEDS = (0, 1, 2)
FAILOVER_POINTS = ("pre_registration", "post_split_plan", "mid_stream")
SVM_ARGS = {"iterations": 5}


def make_dep(**kwargs):
    dep = make_deployment(block_size=64 * 1024, batch_rows=16, **kwargs)
    workload = generate_retail(dep.engine, dep.dfs, num_users=60, num_carts=400)
    dep.pipeline.byte_scale = workload.byte_scale
    return dep, workload


def run_stream(dep, workload):
    return dep.pipeline.run_insql_stream(
        workload.prep_sql, workload.spec, command="svm_with_sgd", args=SVM_ARGS
    )


def assert_same_model(a, b):
    """Weight-for-weight identity, across the iterative model families."""
    assert type(a) is type(b)
    for attr in ("weights", "centers"):
        if hasattr(a, attr):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
    for attr in ("intercept", "cost"):
        if hasattr(a, attr):
            assert getattr(a, attr) == getattr(b, attr)


def dump_artifacts(name, dep):
    """CI forensics: ZK journal dump + fault-event log (opt-in)."""
    art_dir = os.environ.get("CHAOS_ARTIFACTS_DIR")
    if not art_dir or dep.ha is None:
        return
    root = pathlib.Path(art_dir) / name
    root.mkdir(parents=True, exist_ok=True)
    (root / "zk_journal.json").write_text(json.dumps(dep.ha.journal_dump(), indent=2))
    injector = dep.ha.injector
    if injector is not None:
        events = [{"kind": e.kind, "site": e.site} for e in injector.events]
        (root / "fault_events.json").write_text(json.dumps(events, indent=2))


@pytest.fixture(scope="module")
def baseline():
    """One fault-free, HA-free run every chaos scenario compares against."""
    dep, workload = make_dep()
    return run_stream(dep, workload)


def make_group(standbys=1, **kwargs):
    cluster = make_paper_cluster()
    kwargs.setdefault("timeout_s", 2.0)
    kwargs.setdefault("launcher", lambda session: "launched")
    return CoordinatorHAGroup(cluster, standbys=standbys, **kwargs)


# --------------------------------------------------------------------------
# Leader election over the ZooKeeperLite lease
# --------------------------------------------------------------------------


class TestLeaderElection:
    def test_first_replica_takes_the_lease(self):
        group = make_group(standbys=2)
        assert group.zk.exists(LEADER_PATH)
        assert group.leader_id() == "coordinator-0"
        assert group.leader().fencing_epoch == 1
        assert group.leader() is group.coordinators[0]
        assert group.failovers == 0

    def test_killed_leader_is_replaced_synchronously(self):
        group = make_group(standbys=2)
        group.kill_leader()
        # ZooKeeperLite delivers watches on the mutating call, so by the
        # time kill_leader() returns the next standby already leads.
        assert group.leader_id() == "coordinator-1"
        assert group.leader().fencing_epoch == 2
        assert group.failovers == 1
        assert group.cluster.ledger.get("coordinator.failover") == 1

    def test_cascading_kills_walk_the_standby_chain(self):
        group = make_group(standbys=2)
        group.kill_leader()
        group.kill_leader()
        assert group.leader_id() == "coordinator-2"
        assert group.failovers == 2

    def test_leaderless_group_raises_instead_of_hanging(self):
        group = make_group(standbys=1, timeout_s=0.2)
        group.kill_leader()
        group.kill_leader()
        assert group.leader_id() is None
        with pytest.raises(CoordinatorUnavailableError, match="leader lease"):
            group.proxy.live_sessions()

    def test_leader_wait_reads_zookeeper_outside_the_leader_change_condition(self):
        # A takeover notifies the leader-change condition from inside the
        # ZooKeeperLite lock (watches fire on the mutating call), so a
        # leader wait holding that condition across a ZooKeeper read
        # deadlocks against a concurrent failover.
        group = make_group(standbys=1)
        waiter = threading.Thread(target=group.await_leader, daemon=True)
        with group.zk._lock:
            waiter.start()
            time.sleep(0.1)  # the waiter now blocks on the ZooKeeper lock
            acquired = group._leader_change.acquire(timeout=2.0)
            if acquired:
                group._leader_change.release()
        waiter.join(5.0)
        assert acquired
        assert not waiter.is_alive()

    def test_dead_replica_stops_serving(self):
        group = make_group(standbys=1)
        old = group.leader()
        group.kill_leader()
        with pytest.raises(CoordinatorUnavailableError):
            old.create_session("s")

    def test_lease_expiry_deposes_but_does_not_kill(self):
        group = make_group(standbys=1)
        old = group.leader()
        group.expire_leader_lease()
        assert old.alive  # the process survived ...
        assert group.leader_id() == "coordinator-1"  # ... but lost the lease
        with pytest.raises(CoordinatorUnavailableError):
            old.live_sessions()  # the entry guard sees the new lease holder

    def test_stale_leader_journal_write_is_fenced(self):
        group = make_group(standbys=1)
        old = group.leader()
        stale_store = old.state_store
        group.expire_leader_lease()
        with pytest.raises(ZkError, match="fenced"):
            stale_store.record_status("s", "launched")
        assert group.zk.get(EPOCH_PATH)[0] == b"2"


# --------------------------------------------------------------------------
# Journaled takeover: control state from ZK, data plane re-attached
# --------------------------------------------------------------------------


class TestJournalTakeover:
    def test_takeover_restores_partial_registration(self):
        group = make_group(standbys=1)
        proxy = group.proxy
        proxy.create_session("s", command="noop", conf_props={"record.format": "csv"})
        proxy.register_sql_worker("s", 0, "10.0.0.2", 2)
        group.kill_leader()
        session = proxy.session("s")
        assert session.expected_sql_workers == 2
        assert set(session.sql_workers) == {0}
        assert session.conf_props == {"record.format": "csv"}
        assert not session.all_registered.is_set()
        # Registration continues against the new leader as if nothing happened.
        proxy.register_sql_worker("s", 1, "10.0.0.3", 2)
        assert proxy.session("s").all_registered.is_set()

    def test_takeover_reattaches_live_channels(self):
        group = make_group(standbys=2)
        proxy = group.proxy
        proxy.create_session("s", command="noop")
        proxy.register_sql_worker("s", 0, "10.0.0.2", 1)
        cids = proxy.plan_input_splits("s", 2)
        senders = proxy.sql_worker_channels("s", 0)
        senders[0].send_many([(1, 2.0)])
        group.kill_leader()
        # The split plan survived via the journal; the channel *objects* —
        # holding the un-drained row — survived via the registry.
        assert proxy.plan_input_splits("s", 2) == cids
        receiver = proxy.register_ml_worker("s", cids[0])
        assert receiver is senders[0]
        senders[0].close()
        assert receiver.receive(timeout=1.0) == (1, 2.0)

    def test_takeover_restores_ml_claims(self):
        group = make_group(standbys=2)
        proxy = group.proxy
        proxy.create_session("s", command="noop")
        proxy.register_sql_worker("s", 0, "10.0.0.2", 1)
        cids = proxy.plan_input_splits("s", 2)
        proxy.register_ml_worker("s", cids[0])
        group.kill_leader()
        # The claim was journaled: a *duplicate* claim still rejects ...
        with pytest.raises(TransferError, match="claimed twice"):
            proxy.session("s") and group.leader().register_ml_worker("s", cids[0])
        # ... while the idempotent HA retry form converges on the same channel.
        chan = group.leader().register_ml_worker("s", cids[0], reclaim_ok=True)
        assert chan is group.registry.channels_of("s")[cids[0]]

    def test_closed_sessions_are_not_adopted(self):
        group = make_group(standbys=1)
        proxy = group.proxy
        proxy.create_session("s")
        proxy.close_session("s")
        group.kill_leader()
        assert proxy.live_sessions() == []

    def test_result_delivered_during_takeover_is_replayed(self):
        group = make_group(standbys=1)
        proxy = group.proxy
        proxy.create_session("s", command="noop")
        # The job finished but no leader was serving at delivery time:
        # deliver to the group, then fail over — adoption must replay it.
        group.deliver_result("s", "model-bytes", None)
        group.kill_leader()
        assert proxy.wait_result("s", timeout=1.0) == "model-bytes"


# --------------------------------------------------------------------------
# Chaos: lose the coordinator mid-run, keep the model bit-identical
# --------------------------------------------------------------------------


class TestCoordinatorKillChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("point", FAILOVER_POINTS)
    def test_leader_crash_yields_identical_model(self, seed, point, baseline):
        injector = FaultInjector(FaultConfig(seed=seed, kill_coordinator_at=point))
        dep, workload = make_dep(ha_standbys=1, fault_injector=injector)
        result = run_stream(dep, workload)
        dump_artifacts(f"coordinator_kill_{point}_seed{seed}", dep)

        assert result.failovers == 1
        assert dep.ha.failovers == 1
        assert dep.cluster.ledger.get("coordinator.failover") == 1
        assert [e.kind for e in injector.events] == ["coordinator_kill"]
        assert injector.counts["coordinator_kill"] == 1
        # Control-plane failover is data-plane free: nothing re-streamed.
        assert dep.cluster.ledger.get("stream.retry") == 0
        assert_same_model(result.ml_result.model, baseline.ml_result.model)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mid_stream_crash_after_skip_count(self, seed, baseline):
        # Let a few heartbeats through first, so the kill lands genuinely
        # *mid*-stream rather than on the first beat.
        injector = FaultInjector(
            FaultConfig(seed=seed, kill_coordinator_at="mid_stream", coordinator_kill_skip=3)
        )
        dep, workload = make_dep(ha_standbys=1, fault_injector=injector)
        result = run_stream(dep, workload)
        dump_artifacts(f"coordinator_kill_mid_stream_skip3_seed{seed}", dep)

        assert result.failovers == 1
        assert_same_model(result.ml_result.model, baseline.ml_result.model)

    @pytest.mark.parametrize("point", FAILOVER_POINTS)
    def test_lease_expiry_fences_the_deposed_leader(self, point, baseline):
        injector = FaultInjector(FaultConfig(seed=0, lease_expire_at=point))
        dep, workload = make_dep(ha_standbys=1, fault_injector=injector)
        result = run_stream(dep, workload)
        dump_artifacts(f"lease_expire_{point}", dep)

        assert result.failovers == 1
        assert [e.kind for e in injector.events] == ["lease_expire"]
        # The dangerous case fencing exists for: the deposed leader is
        # still running, but deposed ...
        deposed = dep.ha.coordinators[0]
        assert deposed.alive
        with pytest.raises(CoordinatorUnavailableError):
            deposed.live_sessions()
        # ... and its journal epoch is stale.
        with pytest.raises(ZkError, match="fenced"):
            deposed.state_store.record_status("x", "launched")
        assert_same_model(result.ml_result.model, baseline.ml_result.model)

    @pytest.mark.parametrize("point", FAILOVER_POINTS)
    def test_dropped_handshake_response_converges(self, point, baseline):
        # The server applied the mutation, the client never heard: the
        # proxy re-issues the handshake idempotently — no failover, no
        # double registration, same model.
        injector = FaultInjector(FaultConfig(seed=0, handshake_drop_at=point))
        dep, workload = make_dep(ha_standbys=1, fault_injector=injector)
        result = run_stream(dep, workload)
        dump_artifacts(f"handshake_drop_{point}", dep)

        assert result.failovers == 0
        assert [e.kind for e in injector.events] == ["handshake_drop"]
        assert_same_model(result.ml_result.model, baseline.ml_result.model)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_handshake_drops_converge(self, seed, baseline):
        injector = FaultInjector(
            FaultConfig(seed=seed, handshake_drop_rate=0.2, max_events=4)
        )
        dep, workload = make_dep(ha_standbys=1, fault_injector=injector)
        result = run_stream(dep, workload)
        dump_artifacts(f"handshake_drop_rate_seed{seed}", dep)
        assert_same_model(result.ml_result.model, baseline.ml_result.model)


# --------------------------------------------------------------------------
# Invariance: HA off = bit-identical ledgers; HA on (fault-free) = +journal
# --------------------------------------------------------------------------


class TestLedgerInvariance:
    def test_ha_fault_free_changes_nothing_but_the_journal(self, baseline):
        plain_dep, plain_wl = make_dep()
        plain = run_stream(plain_dep, plain_wl)
        ha_dep, ha_wl = make_dep(ha_standbys=1)
        ha = run_stream(ha_dep, ha_wl)

        plain_ledger = plain_dep.cluster.ledger.snapshot()
        ha_ledger = ha_dep.cluster.ledger.snapshot()
        # The journal is the *only* cost of standing by.
        assert plain_ledger.get("zk.journal", 0) == 0
        assert ha_ledger.get("zk.journal", 0) > 0
        assert ha_ledger.get("coordinator.failover", 0) == 0
        for key in set(plain_ledger) | set(ha_ledger):
            if key == "zk.journal":
                continue
            assert plain_ledger.get(key, 0) == ha_ledger.get(key, 0), key
        assert ha.failovers == 0
        assert_same_model(ha.ml_result.model, plain.ml_result.model)
        assert_same_model(ha.ml_result.model, baseline.ml_result.model)


# --------------------------------------------------------------------------
# Active liveness: the monitor turns stale heartbeats into restart plans
# --------------------------------------------------------------------------


class TestLivenessMonitor:
    def _session_with_splits(self, recovery):
        cluster = make_paper_cluster()
        coordinator = Coordinator(
            cluster, launcher=lambda session: "launched", recovery=recovery, timeout_s=2.0
        )
        coordinator.create_session("s", command="noop")
        coordinator.register_sql_worker("s", 0, "10.0.0.2", 1)
        coordinator.plan_input_splits("s", 2)
        return coordinator

    def test_sweep_restarts_stale_worker_once(self):
        clock_now = [0.0]
        recovery = RecoveryManager(heartbeat_timeout_s=5.0, clock=lambda: clock_now[0])
        coordinator = self._session_with_splits(recovery)
        coordinator.record_heartbeat("s", 0)
        monitor = LivenessMonitor(coordinator, recovery, clock=lambda: clock_now[0])

        assert monitor.sweep(now=1.0) == []  # fresh beat: nothing to do
        actions = monitor.sweep(now=10.0)  # stale: proactive restart plan
        assert [a["worker_id"] for a in actions] == [0]
        assert [e.sql_worker_id for e in recovery.restart_events] == [0]
        session = coordinator.session("s")
        assert "liveness monitor" in session.recovery_log[-1]["reason"]
        # A still-stale worker is not restarted repeatedly ...
        assert monitor.sweep(now=11.0) == []
        # ... but one that resumes beating and goes stale again is.
        clock_now[0] = 20.0
        coordinator.record_heartbeat("s", 0)
        assert [a["worker_id"] for a in monitor.sweep(now=30.0)] == [0]

    def test_monitor_thread_lifecycle_on_coordinator(self):
        recovery = RecoveryManager(heartbeat_timeout_s=5.0)
        coordinator = self._session_with_splits(recovery)
        coordinator.start_liveness_monitor(interval_s=0.01)
        assert coordinator._monitor is not None
        coordinator.start_liveness_monitor(interval_s=0.01)  # idempotent
        coordinator.stop_liveness_monitor()
        assert coordinator._monitor is None

    def test_monitor_requires_recovery_manager(self):
        cluster = make_paper_cluster()
        coordinator = Coordinator(cluster, timeout_s=2.0)
        with pytest.raises(TransferError, match="RecoveryManager"):
            coordinator.start_liveness_monitor()

    def test_proxy_routes_monitor_to_leader(self):
        recovery = RecoveryManager(heartbeat_timeout_s=5.0)
        group = make_group(standbys=1, recovery=recovery)
        group.proxy.start_liveness_monitor(interval_s=0.01)
        assert group.leader()._monitor is not None
        group.proxy.stop_liveness_monitor()
        assert all(c._monitor is None for c in group.coordinators)


# --------------------------------------------------------------------------
# The failover proxy under concurrency
# --------------------------------------------------------------------------


class TestFailoverProxy:
    def test_blocked_waiters_survive_a_takeover(self):
        group = make_group(standbys=1)
        proxy = group.proxy
        proxy.create_session("s", command="noop")
        results = []

        def wait():
            results.append(proxy.wait_result("s", timeout=3.0))

        waiter = threading.Thread(target=wait)
        waiter.start()
        group.kill_leader()  # wakes the waiter; the proxy re-waits on the new leader
        group.deliver_result("s", "late-model", None)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert results == ["late-model"]

    def test_journal_dump_names_every_session_znode(self):
        group = make_group(standbys=1)
        proxy = group.proxy
        proxy.create_session("s", command="noop")
        proxy.register_sql_worker("s", 0, "10.0.0.2", 1)
        dump = group.journal_dump()
        assert "/coordinator/sessions/s/meta" in dump
        assert "/coordinator/sessions/s/workers/0" in dump
        meta = json.loads(dump["/coordinator/sessions/s/meta"]["data"])
        assert meta["command"] == "noop"
