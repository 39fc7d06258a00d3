"""§6 checkpoint-based ML-stage recovery (chaos acceptance tests).

Every scenario is parametrized over RNG seeds and must deliver a model
**weight-for-weight identical** to a fault-free run — resuming from a
checkpoint, replaying the input from the §5 cache, or re-running the
rewritten query may cost extra work (charged to dedicated ledger
counters) but must never change the answer.

When ``CHAOS_ARTIFACTS_DIR`` is set (the CI chaos step), each scenario
dumps its fault-event log and checkpoint directory there before
asserting, so failures upload a full forensic trail.
"""

import json
import os
import pathlib

import numpy as np
import pytest

from repro import make_deployment
from repro.checkpoint import CheckpointStore
from repro.cluster.cluster import make_paper_cluster
from repro.faults import FaultConfig, FaultInjector
from repro.hdfs.filesystem import DistributedFileSystem
from repro.ml.dataset import Dataset, LabeledPoint
from repro.ml.system import MLSystem
from repro.workloads import generate_retail

SEEDS = (7, 11, 23)
SVM_ARGS = {"iterations": 8}


def make_dep(**kwargs):
    dep = make_deployment(block_size=64 * 1024, batch_rows=16, **kwargs)
    workload = generate_retail(dep.engine, dep.dfs, num_users=60, num_carts=400)
    dep.pipeline.byte_scale = workload.byte_scale
    return dep, workload


def run_stream(dep, workload, **kwargs):
    return dep.pipeline.run_insql_stream(
        workload.prep_sql, workload.spec, command="svm_with_sgd", args=SVM_ARGS, **kwargs
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


def dump_artifacts(name, injector=None, store=None, job_id=None):
    """CI forensics: fault-event log + raw checkpoint files (opt-in)."""
    art_dir = os.environ.get("CHAOS_ARTIFACTS_DIR")
    if not art_dir:
        return
    root = pathlib.Path(art_dir) / name
    root.mkdir(parents=True, exist_ok=True)
    if injector is not None:
        events = [{"kind": e.kind, "site": e.site} for e in injector.events]
        (root / "fault_events.json").write_text(json.dumps(events, indent=2))
    if store is not None and job_id is not None:
        ckpt_dir = root / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        for version in store.versions(job_id):
            fname = f"ckpt-{version:06d}.bin"
            blob = store.dfs.read_bytes(f"{store.base_dir}/{job_id}/{fname}")
            (ckpt_dir / fname).write_bytes(blob)


# --------------------------------------------------------------------------
# Tier 1: resume from checkpoint, in place
# --------------------------------------------------------------------------


class TestResumeFromCheckpoint:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_streamed_training_kill_resumes_weight_identical(self, seed):
        base_dep, base_wl = make_dep()
        baseline = run_stream(base_dep, base_wl)

        injector = FaultInjector(FaultConfig(seed=seed, kill_train_at=3))
        dep, workload = make_dep(fault_injector=injector, checkpoint_interval=1)
        result = run_stream(dep, workload)
        dump_artifacts(
            f"stream_kill_resume_seed{seed}",
            injector,
            dep.ml.checkpoint_store,
            result.lineage.job_id,
        )

        assert result.ml_recovery_tier == "resume_checkpoint"
        assert result.ml_result.train_attempts == 2
        assert result.ml_result.resumed_from_iteration == 3
        assert result.attempts == 1  # recovered in place, no pipeline restart
        assert_same_model(result.ml_result.model, baseline.ml_result.model)
        assert [e.kind for e in injector.events].count("iteration_kill") == 1
        assert dep.coordinator.recovery.summary()["ml_recoveries"] == 1

    @pytest.mark.parametrize(
        ("command", "args"),
        [
            ("logistic_regression", {"iterations": 6, "step": 0.5}),
            ("svm_with_sgd", {"iterations": 6}),
            ("linear_regression", {"solver": "sgd", "iterations": 6}),
            ("kmeans", {"k": 3, "max_iterations": 8}),
        ],
    )
    def test_every_iterative_algorithm_resumes_weight_identical(self, command, args):
        def dataset():
            if command == "kmeans":
                records = [
                    np.array([float(i % 5), float((i * 3) % 7)]) for i in range(120)
                ]
            else:
                records = [
                    LabeledPoint(float(i % 2), np.array([float(i % 7), float(i % 3)]))
                    for i in range(120)
                ]
            return Dataset([records[i::4] for i in range(4)])

        baseline = MLSystem(make_paper_cluster(2)).train_local(command, args, dataset())

        cluster = make_paper_cluster(2)
        dfs = DistributedFileSystem(cluster, block_size=64 * 1024, replication=2)
        store = CheckpointStore(dfs, ledger=cluster.ledger)
        injector = FaultInjector(FaultConfig(seed=7, kill_train_at=3))
        ml = MLSystem(
            cluster,
            checkpoint_store=store,
            checkpoint_interval=1,
            fault_injector=injector,
        )
        result = ml.train_local(command, args, dataset())
        dump_artifacts(f"algorithm_resume_{command}", injector, store, f"mljob_{command}")

        assert result.train_attempts == 2
        assert result.resumed_from_iteration == 3
        assert_same_model(result.model, baseline.model)


# --------------------------------------------------------------------------
# Tiers 2/3: lineage replay (cache, then rewritten query)
# --------------------------------------------------------------------------


class TestLineageReplayLadder:
    """On the default deployment; the subclass below runs it on ``columnar=True``."""

    columnar = False

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_checkpoint_kill_replays_rewritten_query(self, seed):
        base_dep, base_wl = make_dep(columnar=self.columnar)
        baseline = run_stream(base_dep, base_wl)

        injector = FaultInjector(FaultConfig(seed=seed, kill_train_at=3))
        # checkpointing OFF
        dep, workload = make_dep(columnar=self.columnar, fault_injector=injector)
        result = run_stream(dep, workload)
        dump_artifacts(f"replay_query_seed{seed}", injector)

        assert result.ml_recovery_tier == "replay_query"
        assert result.degraded_from is None
        assert result.ml_result.recovered_via == "replay_query"
        assert_same_model(result.ml_result.model, baseline.ml_result.model)
        tiers = [ev.tier for ev in dep.coordinator.recovery.ml_recovery_events]
        assert tiers == ["replay_query"]
        # Replayed input is charged to its own counter, not the stream's.
        assert dep.cluster.ledger.get("ml.replay") > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_cache_never_escalates_past_replay_cache(self, seed):
        base_dep, base_wl = make_dep(columnar=self.columnar)
        baseline = run_stream(base_dep, base_wl)

        injector = FaultInjector(FaultConfig(seed=seed, kill_train_at=3))
        # checkpointing OFF
        dep, workload = make_dep(columnar=self.columnar, fault_injector=injector)
        dep.pipeline.populate_caches(workload.prep_sql, workload.spec)
        result = run_stream(dep, workload, use_cache=True)
        dump_artifacts(f"replay_cache_seed{seed}", injector)

        assert result.lineage.cache_state is not None
        assert result.ml_recovery_tier == "replay_cache"
        assert_same_model(result.ml_result.model, baseline.ml_result.model)
        tiers = [ev.tier for ev in dep.coordinator.recovery.ml_recovery_events]
        assert tiers == ["replay_cache"]
        assert "replay_query" not in tiers and "full_restart" not in tiers


class TestLineageReplayLadderColumnar(TestLineageReplayLadder):
    """The replay rungs rebuild the streamed layout from batch partitions."""

    columnar = True


# --------------------------------------------------------------------------
# Checkpoint-subsystem chaos: corruption and write failures
# --------------------------------------------------------------------------


class TestCheckpointChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fully_corrupt_checkpoints_degrade_to_fresh_start(self, seed):
        """checkpoint.corrupt at rate 1.0: every snapshot is damaged, every
        load detects it, and the resume restores nothing — training restarts
        from scratch and still matches the fault-free model exactly."""
        base_dep, base_wl = make_dep()
        baseline = run_stream(base_dep, base_wl)

        injector = FaultInjector(
            FaultConfig(seed=seed, kill_train_at=3, checkpoint_corrupt_rate=1.0)
        )
        dep, workload = make_dep(fault_injector=injector, checkpoint_interval=1)
        result = run_stream(dep, workload)
        dump_artifacts(
            f"corrupt_checkpoints_seed{seed}",
            injector,
            dep.ml.checkpoint_store,
            result.lineage.job_id,
        )

        assert result.ml_result.train_attempts == 2
        assert result.ml_result.resumed_from_iteration is None  # nothing restorable
        assert dep.ml.checkpoint_store.corrupt_detected > 0
        assert_same_model(result.ml_result.model, baseline.ml_result.model)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoint_write_failure_never_fails_a_healthy_run(self, seed):
        base_dep, base_wl = make_dep()
        baseline = run_stream(base_dep, base_wl)

        injector = FaultInjector(
            FaultConfig(seed=seed, checkpoint_write_fail_rate=1.0, max_events=1)
        )
        dep, workload = make_dep(fault_injector=injector, checkpoint_interval=1)
        result = run_stream(dep, workload)
        dump_artifacts(
            f"write_fail_seed{seed}",
            injector,
            dep.ml.checkpoint_store,
            result.lineage.job_id,
        )

        assert result.ml_recovery_tier is None
        assert result.ml_result.train_attempts == 1
        assert dep.ml.checkpoint_store.write_failures == 1
        assert [e.kind for e in injector.events] == ["checkpoint_write_fail"]
        assert_same_model(result.ml_result.model, baseline.ml_result.model)


# --------------------------------------------------------------------------
# Figure 3/4 protection + graceful degradation
# --------------------------------------------------------------------------


class TestFaultFreeInvariance:
    def test_checkpointing_on_leaves_transfer_bytes_untouched(self):
        """Checkpoint traffic rides its own ledger counters: turning the
        subsystem on (with a disabled injector installed, so the guarded
        protocol is active too) changes no fault-free transfer byte total."""
        plain_dep, plain_wl = make_dep()
        before_p = plain_dep.cluster.ledger.snapshot()
        plain = run_stream(plain_dep, plain_wl)
        delta_p = plain_dep.cluster.ledger.delta(
            before_p, plain_dep.cluster.ledger.snapshot()
        )

        dep, workload = make_dep(
            fault_injector=FaultInjector.disabled(), checkpoint_interval=2
        )
        assert dep.coordinator.recovery is not None
        before_g = dep.cluster.ledger.snapshot()
        guarded = run_stream(dep, workload)
        delta_g = dep.cluster.ledger.delta(before_g, dep.cluster.ledger.snapshot())

        assert delta_g["stream.sent"] == delta_p["stream.sent"]
        assert delta_g["ml.ingest"] == delta_p["ml.ingest"]
        assert delta_g.get("ml.replay", 0) == 0
        assert delta_p.get("checkpoint.write", 0) == 0
        assert delta_g["checkpoint.write"] > 0  # the snapshots really happened
        assert guarded.ml_recovery_tier is None
        assert_same_model(guarded.ml_result.model, plain.ml_result.model)


class TestDegradeToDfs:
    def test_degraded_run_matches_fault_free_materialized_model(self):
        """An ML-reader kill (an *ingest* fault — rows lost in flight, so no
        replay tier is sound) with transient channel drops along the way
        exhausts the streaming attempt; ``degrade_to_dfs`` falls back to the
        materialized path and must reproduce the fault-free insql model
        exactly, with the retries visible in the ledger."""
        base_dep, base_wl = make_dep()
        baseline = base_dep.pipeline.run_insql(
            base_wl.prep_sql, base_wl.spec, command="svm_with_sgd", args=SVM_ARGS
        )

        injector = FaultInjector(
            FaultConfig(seed=7, kill_ml_at={0: 5}, send_drop_rate=0.2, max_events=8)
        )
        dep, workload = make_dep(fault_injector=injector)
        result = run_stream(dep, workload, max_attempts=1, degrade_to_dfs=True)
        dump_artifacts("degrade_to_dfs", injector)

        assert result.degraded_from == "insql+stream"
        assert result.approach == "insql"
        kinds = [e.kind for e in injector.events]
        assert "kill_ml" in kinds
        # The transient drops were absorbed by in-place send retries.
        assert dep.coordinator.recovery.summary()["send_retries"] > 0
        assert_same_model(result.ml_result.model, baseline.ml_result.model)
