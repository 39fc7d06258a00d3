"""Unit tests for the §6 checkpoint store: format, atomicity, versioning."""

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore, TrainCheckpointer
from repro.checkpoint.store import decode_checkpoint, encode_checkpoint
from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import CheckpointCorruptError, CheckpointError
from repro.faults import FaultConfig, FaultInjector
from repro.hdfs.filesystem import DistributedFileSystem


@pytest.fixture()
def dfs():
    cluster = make_paper_cluster(2)
    return cluster, DistributedFileSystem(cluster, block_size=64 * 1024, replication=2)


def make_store(dfs_fixture, **kwargs):
    cluster, fs = dfs_fixture
    kwargs.setdefault("ledger", cluster.ledger)
    return CheckpointStore(fs, base_dir="/checkpoints", **kwargs)


STATE = {
    "algorithm": "svm",
    "iteration": 3,
    "weights": np.array([1.5, -2.25, 0.0]),
    "intercept": 0.125,
}


class TestFormat:
    def test_roundtrip(self):
        decoded = decode_checkpoint(encode_checkpoint(STATE))
        assert decoded["algorithm"] == "svm"
        assert decoded["iteration"] == 3
        assert np.array_equal(decoded["weights"], STATE["weights"])

    def test_truncated_blob_detected(self):
        blob = encode_checkpoint(STATE)
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            decode_checkpoint(blob[:10])
        with pytest.raises(CheckpointCorruptError, match="payload length"):
            decode_checkpoint(blob[:-1])

    def test_bad_magic_detected(self):
        blob = b"XXXX" + encode_checkpoint(STATE)[4:]
        with pytest.raises(CheckpointCorruptError, match="magic"):
            decode_checkpoint(blob)

    def test_flipped_payload_byte_detected(self):
        blob = bytearray(encode_checkpoint(STATE))
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            decode_checkpoint(bytes(blob))

    def test_unsupported_format_version_detected(self):
        blob = bytearray(encode_checkpoint(STATE))
        blob[5] = 99  # the >H format-version field
        with pytest.raises(CheckpointCorruptError, match="format"):
            decode_checkpoint(bytes(blob))


class TestStore:
    def test_save_load_roundtrip(self, dfs):
        store = make_store(dfs)
        version = store.save("job1", STATE)
        assert version == 1
        loaded = store.load("job1", version)
        assert np.array_equal(loaded["weights"], STATE["weights"])
        assert loaded["intercept"] == STATE["intercept"]

    def test_versions_increase_monotonically(self, dfs):
        store = make_store(dfs)
        for expected in (1, 2, 3):
            assert store.save("job1", dict(STATE, iteration=expected)) == expected
        assert store.versions("job1") == [1, 2, 3]
        state, version = store.load_latest("job1")
        assert version == 3
        assert state["iteration"] == 3

    def test_jobs_are_isolated(self, dfs):
        store = make_store(dfs)
        store.save("job_a", dict(STATE, iteration=1))
        store.save("job_b", dict(STATE, iteration=9))
        assert store.load_latest("job_a")[0]["iteration"] == 1
        assert store.load_latest("job_b")[0]["iteration"] == 9
        assert store.versions("job_b") == [1]

    def test_load_latest_falls_back_past_corrupt_newest(self, dfs):
        cluster, fs = dfs
        store = make_store(dfs)
        store.save("job1", dict(STATE, iteration=1))
        store.save("job1", dict(STATE, iteration=2))
        # Damage the newest committed file in place.
        path = "/checkpoints/job1/ckpt-000002.bin"
        blob = bytearray(fs.read_bytes(path))
        blob[-1] ^= 0xFF
        fs.delete(path)
        fs.write_bytes(path, bytes(blob))
        state, version = store.load_latest("job1")
        assert version == 1
        assert state["iteration"] == 1
        assert store.corrupt_detected == 1

    def test_all_corrupt_returns_none(self, dfs):
        injector = FaultInjector(FaultConfig(seed=0, checkpoint_corrupt_rate=1.0))
        store = make_store(dfs, injector=injector)
        store.save("job1", STATE)
        assert store.load_latest("job1") is None
        assert store.corrupt_detected == 1
        assert injector.counts["checkpoint_corrupt"] == 1

    def test_injected_write_failure_never_commits_partials(self, dfs):
        cluster, fs = dfs
        injector = FaultInjector(
            FaultConfig(seed=0, checkpoint_write_fail_rate=1.0, max_events=1)
        )
        store = make_store(dfs, injector=injector)
        with pytest.raises(CheckpointError):
            store.save("job1", dict(STATE, iteration=1))
        # The failed commit is invisible: no committed version exists, and
        # the orphaned tmp never shows up as a loadable checkpoint.
        assert store.versions("job1") == []
        assert store.load_latest("job1") is None
        assert store.write_failures == 1
        assert fs.exists("/checkpoints/job1/ckpt-000001.bin.tmp")
        # The next save (event budget spent) reclaims the stale tmp and
        # commits normally.
        assert store.save("job1", dict(STATE, iteration=1)) == 1
        assert store.load_latest("job1")[0]["iteration"] == 1
        assert not fs.exists("/checkpoints/job1/ckpt-000001.bin.tmp")

    def test_ledger_charges_dedicated_categories(self, dfs):
        cluster, _fs = dfs
        store = make_store(dfs)
        store.save("job1", STATE)
        store.load_latest("job1")
        assert cluster.ledger.get("checkpoint.write") > 0
        assert cluster.ledger.get("checkpoint.read") > 0
        assert store.bytes_written == cluster.ledger.get("checkpoint.write")
        assert store.bytes_read == cluster.ledger.get("checkpoint.read")

class TestTrainCheckpointer:
    def test_interval_gates_saves(self, dfs):
        store = make_store(dfs)
        ckpt = TrainCheckpointer("job1", store=store, interval=2)
        produced = []

        def state_fn(t):
            def make():
                produced.append(t)
                return dict(STATE, iteration=t)

            return make

        for t in range(1, 6):
            ckpt.iteration_done(t, state_fn(t))
        assert produced == [2, 4]  # state_fn only invoked when a save is due
        assert ckpt.saves == 2
        assert store.load_latest("job1")[0]["iteration"] == 4

    def test_restore_guards_algorithm_tag(self, dfs):
        store = make_store(dfs)
        ckpt = TrainCheckpointer("job1", store=store, interval=1)
        ckpt.iteration_done(1, lambda: dict(STATE, iteration=1))
        assert ckpt.restore("kmeans") is None  # saved state is tagged "svm"
        restored = ckpt.restore("svm")
        assert restored["iteration"] == 1
        assert ckpt.restored_iteration == 1

    def test_storeless_checkpointer_cannot_resume(self):
        ckpt = TrainCheckpointer("job1", store=None, interval=1)
        assert not ckpt.can_resume
        ckpt.iteration_done(1, lambda: STATE)  # must not raise
        assert ckpt.restore("svm") is None

    def test_write_failures_are_swallowed_and_counted(self, dfs):
        injector = FaultInjector(
            FaultConfig(seed=0, checkpoint_write_fail_rate=1.0, max_events=1)
        )
        store = make_store(dfs, injector=injector)
        ckpt = TrainCheckpointer("job1", store=store, interval=1)
        ckpt.iteration_done(1, lambda: dict(STATE, iteration=1))  # injected fail
        ckpt.iteration_done(2, lambda: dict(STATE, iteration=2))  # commits
        assert ckpt.save_failures == 1
        assert ckpt.saves == 1
        assert store.load_latest("job1")[0]["iteration"] == 2
