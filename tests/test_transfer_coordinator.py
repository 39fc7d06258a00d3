"""Coordinator protocol: registration, launch, split planning, matchmaking,
fault hooks — Figure 2's steps, unit-tested without a SQL engine."""

import threading
import time

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import ChannelAbortedError, TransferError
from repro.iofmt.inputformat import JobConf
from repro.transfer.channel import ChannelId
from repro.transfer.coordinator import Coordinator
from repro.transfer.sqlstream import SQLStreamInputFormat, StreamSplit


@pytest.fixture()
def coordinator():
    cluster = make_paper_cluster()
    coord = Coordinator(cluster, launcher=lambda session: "launched", timeout_s=2.0)
    return coord


def register_all(coord, session_id, n=4, command="noop"):
    cluster_ips = [node.ip for node in coord.cluster.workers]
    for worker_id in range(n):
        coord.register_sql_worker(
            session_id, worker_id, cluster_ips[worker_id % len(cluster_ips)], n, command
        )


class TestSessions:
    def test_create_and_lookup(self, coordinator):
        session = coordinator.create_session("s", command="noop")
        assert coordinator.session("s") is session

    def test_duplicate_session_rejected(self, coordinator):
        coordinator.create_session("s")
        with pytest.raises(TransferError, match="already exists"):
            coordinator.create_session("s")

    def test_unknown_session_lists_known(self, coordinator):
        coordinator.create_session("known")
        with pytest.raises(TransferError, match="known"):
            coordinator.session("ghost")

    def test_close_session(self, coordinator):
        coordinator.create_session("s")
        coordinator.close_session("s")
        with pytest.raises(TransferError):
            coordinator.session("s")


class TestRegistration:
    def test_launch_fires_once_all_registered(self, coordinator):
        launches = []
        coordinator.launcher = lambda session: launches.append(session.session_id)
        session = coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        assert session.all_registered.is_set()
        session.result_ready.wait(timeout=2)
        assert launches == ["s"]

    def test_not_launched_before_all_register(self, coordinator):
        launched = threading.Event()
        coordinator.launcher = lambda session: launched.set()
        coordinator.create_session("s", command="noop")
        coordinator.register_sql_worker("s", 0, "10.0.0.2", 4)
        coordinator.register_sql_worker("s", 1, "10.0.0.3", 4)
        assert not launched.wait(timeout=0.1)

    def test_double_registration_rejected(self, coordinator):
        coordinator.create_session("s", command="noop")
        coordinator.register_sql_worker("s", 0, "10.0.0.2", 4)
        with pytest.raises(TransferError, match="twice"):
            coordinator.register_sql_worker("s", 0, "10.0.0.2", 4)

    def test_inconsistent_worker_count_rejected(self, coordinator):
        coordinator.create_session("s", command="noop")
        coordinator.register_sql_worker("s", 0, "10.0.0.2", 4)
        with pytest.raises(TransferError, match="inconsistent"):
            coordinator.register_sql_worker("s", 1, "10.0.0.3", 3)

    def test_udf_supplied_command_and_args(self, coordinator):
        session = coordinator.create_session("s")
        register_all(coordinator, "s", n=4, command="svm_with_sgd")
        assert session.command == "svm_with_sgd"

    def test_launch_without_launcher_raises(self):
        cluster = make_paper_cluster()
        coord = Coordinator(cluster, launcher=None, timeout_s=1.0)
        coord.create_session("s", command="noop")
        with pytest.raises(TransferError, match="launcher"):
            register_all(coord, "s", n=1)


class TestSplitPlanning:
    def test_m_equals_n_times_k(self, coordinator):
        coordinator.default_k = 3
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        channel_ids = coordinator.plan_input_splits("s", None)
        assert len(channel_ids) == 12
        session = coordinator.session("s")
        assert all(len(group) == 3 for group in session.groups.values())

    def test_prespecified_m_honoured(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        channel_ids = coordinator.plan_input_splits("s", 10)
        assert len(channel_ids) == 10
        sizes = sorted(len(g) for g in coordinator.session("s").groups.values())
        assert sizes == [2, 2, 3, 3]  # divided evenly into n groups

    def test_m_floored_at_n(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        channel_ids = coordinator.plan_input_splits("s", 2)
        assert len(channel_ids) == 4  # every SQL worker needs a consumer

    def test_planning_is_idempotent(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        first = coordinator.plan_input_splits("s", None)
        second = coordinator.plan_input_splits("s", None)
        assert first == second

    def test_split_locations_are_sql_worker_ips(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        session = coordinator.session("s")
        for channel_id in coordinator.plan_input_splits("s", None):
            expected_ip = session.sql_workers[channel_id.sql_worker_id].ip
            assert coordinator.split_location("s", channel_id) == expected_ip

    def test_timeout_when_workers_never_register(self, coordinator):
        coordinator.timeout_s = 0.1
        coordinator.create_session("s", command="noop")
        with pytest.raises(TransferError, match="timed out"):
            coordinator.plan_input_splits("s", None)


class TestMatchmaking:
    def test_ml_worker_receives_channel(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        (cid, *_rest) = coordinator.plan_input_splits("s", None)
        channel = coordinator.register_ml_worker("s", cid)
        assert channel.channel_id == cid

    def test_split_claimed_twice_rejected(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        (cid, *_rest) = coordinator.plan_input_splits("s", None)
        coordinator.register_ml_worker("s", cid)
        with pytest.raises(TransferError, match="twice"):
            coordinator.register_ml_worker("s", cid)

    def test_unknown_channel_rejected(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        coordinator.plan_input_splits("s", None)
        with pytest.raises(TransferError, match="no channel"):
            coordinator.register_ml_worker("s", ChannelId(99, 99))

    def test_sql_worker_gets_its_group(self, coordinator):
        coordinator.default_k = 2
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        coordinator.plan_input_splits("s", None)
        channels = coordinator.sql_worker_channels("s", 1)
        assert len(channels) == 2
        assert all(c.channel_id.sql_worker_id == 1 for c in channels)

    def test_colocated_channels_marked_local(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        coordinator.plan_input_splits("s", None)
        session = coordinator.session("s")
        assert all(c.local for c in session.channels.values())


class TestResults:
    def test_wait_result_returns_launcher_value(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        assert coordinator.wait_result("s", timeout=2) == "launched"

    def test_launcher_error_surfaces(self, coordinator):
        def failing(session):
            raise RuntimeError("boom")

        coordinator.launcher = failing
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        with pytest.raises(TransferError, match="boom"):
            coordinator.wait_result("s", timeout=2)


class TestFaultHooks:
    def test_restart_plan_pairs_sql_and_ml_workers(self, coordinator):
        """§6: restarting a SQL worker implies restarting all of its
        corresponding ML workers."""
        coordinator.default_k = 3
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        coordinator.plan_input_splits("s", None)
        plan = coordinator.notify_channel_failure("s", 2, "socket reset")
        assert plan["restart_sql_worker"] == 2
        assert len(plan["restart_ml_workers"]) == 3
        session = coordinator.session("s")
        assert session.failed
        assert "socket reset" in session.failure_reason

    def test_failure_aborts_group_channels(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        coordinator.plan_input_splits("s", None)
        coordinator.notify_channel_failure("s", 0, "socket reset")
        session = coordinator.session("s")
        for cid in session.groups[0]:
            # Aborted channels raise the typed error immediately instead of
            # hanging — and never yield EOF, which would pass the delivered
            # prefix off as a complete stream.
            with pytest.raises(ChannelAbortedError, match="socket reset"):
                session.channels[cid].receive(timeout=0.1)


class TestSQLStreamInputFormat:
    def test_get_splits_via_coordinator(self, coordinator):
        coordinator.default_k = 2
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        conf = JobConf({"stream.session": "s"}, coordinator=coordinator)
        splits = SQLStreamInputFormat().get_splits(conf, 999)
        assert len(splits) == 8  # n*k, the 999 hint ignored
        assert all(isinstance(s, StreamSplit) for s in splits)
        assert all(s.length() == 0 for s in splits)

    def test_prespecified_split_count(self, coordinator):
        coordinator.create_session("s2", command="noop")
        register_all(coordinator, "s2", n=4)
        conf = JobConf(
            {"stream.session": "s2", "stream.num_splits": 6}, coordinator=coordinator
        )
        splits = SQLStreamInputFormat().get_splits(conf, 999)
        assert len(splits) == 6

    def test_missing_session_property(self, coordinator):
        conf = JobConf({}, coordinator=coordinator)
        with pytest.raises(ValueError, match="stream.session"):
            SQLStreamInputFormat().get_splits(conf, 1)

    def test_reader_drains_channel(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=4)
        conf = JobConf({"stream.session": "s"}, coordinator=coordinator)
        fmt = SQLStreamInputFormat()
        splits = fmt.get_splits(conf, None)
        target = splits[0]
        channel = coordinator.session("s").channels[target.channel_id]
        channel.send_many([(1, "x"), (2, "y")])
        channel.close()
        reader = fmt.create_record_reader(target, conf)
        assert list(reader) == [(1, "x"), (2, "y")]
        assert reader.bytes_read > 0


class TestWaitResultTimeout:
    def test_timeout_zero_polls_instead_of_blocking(self, coordinator):
        """Regression: ``timeout=0`` is falsy but must mean "poll, don't
        wait" — the old ``timeout or default`` turned it into a multi-second
        block on the default timeout."""
        coordinator.create_session("s", command="noop")
        start = time.monotonic()
        with pytest.raises(TransferError, match="never finished"):
            coordinator.wait_result("s", timeout=0)
        assert time.monotonic() - start < 1.0

    def test_timeout_none_still_selects_the_default(self, coordinator):
        coordinator.timeout_s = 0.05
        coordinator.create_session("s", command="noop")
        with pytest.raises(TransferError, match="never finished"):
            coordinator.wait_result("s")  # waits timeout_s * 4, then raises


class TestSessionTeardown:
    def _spilled_session(self, tmp_path, fail=False):
        cluster = make_paper_cluster()
        coord = Coordinator(
            cluster,
            launcher=lambda session: "launched",
            timeout_s=2.0,
            buffer_bytes=64,
            spill_dir=str(tmp_path),
        )
        coord.create_session("s", command="noop")
        register_all(coord, "s", n=2)
        coord.plan_input_splits("s", 2)
        # Overflow every channel's 64-byte buffer so spill files exist.
        for worker_id in range(2):
            for channel in coord.sql_worker_channels("s", worker_id):
                for i in range(50):
                    channel.send_many([(i, "x" * 32)])
        if fail:
            coord.notify_channel_failure("s", 0, "injected")
        return coord

    def test_close_releases_spill_files_of_completed_session(self, tmp_path):
        coord = self._spilled_session(tmp_path)
        assert any(tmp_path.iterdir()), "test needs real spill files"
        coord.close_session("s")
        assert list(tmp_path.iterdir()) == []

    def test_close_releases_spill_files_of_failed_session(self, tmp_path):
        coord = self._spilled_session(tmp_path, fail=True)
        assert any(tmp_path.iterdir()), "test needs real spill files"
        coord.close_session("s")
        assert list(tmp_path.iterdir()) == []

    def test_close_gives_late_readers_immediate_eof(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=2)
        (cid, *_rest) = coordinator.plan_input_splits("s", 2)
        channel = coordinator.session("s").channels[cid]
        channel.send_many([(1, "x")])
        coordinator.close_session("s")
        # release() drops pending rows: a reader that shows up after
        # teardown sees EOF at once instead of hanging on its timeout.
        assert channel.receive(timeout=0.1) is None


class TestFailureNotificationLocking:
    def test_channel_abort_runs_outside_the_session_lock(self, coordinator):
        """Regression: ``notify_channel_failure`` used to close channels
        while holding ``coordinator._lock``.  An abort/close that blocks on
        a backpressured sender then deadlocks every other coordinator call.
        Here each abort proves the lock is free by making a coordinator
        call from another thread and waiting for it."""
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=2)
        coordinator.plan_input_splits("s", 2)
        session = coordinator.session("s")
        unblocked = threading.Event()

        def probing_abort(original_abort):
            def abort(reason="producer failed"):
                probe = threading.Thread(
                    target=lambda: (coordinator.session("s"), unblocked.set())
                )
                probe.start()
                assert unblocked.wait(timeout=2.0), (
                    "coordinator lock held during channel abort"
                )
                original_abort(reason)

            return abort

        for cid in session.groups[0]:
            channel = session.channels[cid]
            channel.abort = probing_abort(channel.abort)
        coordinator.notify_channel_failure("s", 0, "probe")


class TestIdempotentHandshakes:
    """The HA retry forms: duplicates still raise by default, while the
    failover proxy's opt-in flags converge on the existing state."""

    def test_create_session_exists_ok(self, coordinator):
        first = coordinator.create_session("s", command="noop")
        with pytest.raises(TransferError, match="already exists"):
            coordinator.create_session("s", command="noop")
        assert coordinator.create_session("s", command="noop", exists_ok=True) is first

    def test_reregister_ok_converges(self, coordinator):
        coordinator.create_session("s", command="noop")
        coordinator.register_sql_worker("s", 0, "10.0.0.2", 2)
        session = coordinator.register_sql_worker(
            "s", 0, "10.0.0.2", 2, reregister_ok=True
        )
        assert set(session.sql_workers) == {0}
        assert not session.all_registered.is_set()  # still waiting for worker 1

    def test_reclaim_ok_returns_the_same_channel(self, coordinator):
        coordinator.create_session("s", command="noop")
        register_all(coordinator, "s", n=2)
        (cid, *_rest) = coordinator.plan_input_splits("s", 2)
        first = coordinator.register_ml_worker("s", cid)
        assert coordinator.register_ml_worker("s", cid, reclaim_ok=True) is first
