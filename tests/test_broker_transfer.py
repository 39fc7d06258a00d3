"""Broker transfer end-to-end: equivalence with streaming, replay, recovery."""

import pytest

from repro import make_deployment
from repro.broker.inputformat import BrokerInputFormat
from repro.common.errors import TransferError
from repro.iofmt.inputformat import JobConf
from repro.workloads import generate_retail


@pytest.fixture(scope="module")
def retail():
    deployment = make_deployment(block_size=64 * 1024)
    workload = generate_retail(
        deployment.engine, deployment.dfs, num_users=300, num_carts=3_000, seed=21
    )
    deployment.pipeline.byte_scale = workload.byte_scale
    return deployment, workload


def signature(result):
    return sorted(
        (lp.label, tuple(lp.features)) for lp in result.ml_result.dataset.collect()
    )


class TestBrokerPipeline:
    def test_identical_data_to_streaming(self, retail):
        deployment, wl = retail
        stream = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        broker = deployment.pipeline.run_insql_broker(wl.prep_sql, wl.spec, "noop")
        assert signature(stream) == signature(broker)
        assert len(signature(stream)) > 0

    def test_stage_names_and_topic_cleanup(self, retail):
        deployment, wl = retail
        result = deployment.pipeline.run_insql_broker(wl.prep_sql, wl.spec, "noop")
        names = [s.name for s in result.stages]
        assert names == [
            "recode pass 1",
            "prep+trsfm+produce",
            "consume+input",
            "ml train",
        ]
        with pytest.raises(TransferError, match="unknown topic"):
            deployment.broker.topic_info(result.broker_topic)

    def test_keep_topic_retains_data(self, retail):
        deployment, wl = retail
        result = deployment.pipeline.run_insql_broker(
            wl.prep_sql, wl.spec, "noop", keep_topic=True
        )
        info = deployment.broker.topic_info(result.broker_topic)
        assert info.sealed
        assert info.total_records == result.ml_result.dataset.count()
        deployment.broker.delete_topic(result.broker_topic)

    def test_broker_costs_more_than_streaming(self, retail):
        """The decoupled consume phase is the broker's performance price."""
        deployment, wl = retail
        stream = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        broker = deployment.pipeline.run_insql_broker(wl.prep_sql, wl.spec, "noop")
        assert broker.total_sim_seconds > stream.total_sim_seconds

    def test_replay_by_second_ml_job(self, retail):
        """§8: 'Kafka could also be the system to cache the data' — a second
        ML job re-reads the retained topic under a new consumer group."""
        deployment, wl = retail
        first = deployment.pipeline.run_insql_broker(
            wl.prep_sql, wl.spec, "noop", keep_topic=True
        )
        conf = JobConf(
            {
                "broker.topic": first.broker_topic,
                "broker.group": "second-job",
                "record.format": "raw",
            },
            broker=deployment.broker,
        )
        second = deployment.ml.run_job("noop", {}, BrokerInputFormat(), conf)
        assert second.dataset.count() == first.ml_result.dataset.count()
        deployment.broker.delete_topic(first.broker_topic)

    def test_trains_model_over_broker(self, retail):
        deployment, wl = retail
        result = deployment.pipeline.run_insql_broker(
            wl.prep_sql, wl.spec, "svm_with_sgd", {"iterations": 3}
        )
        assert result.ml_result.model.weights.shape == (4,)

    def test_cache_composes_with_broker(self, retail):
        deployment, wl = retail
        deployment.pipeline.populate_caches(
            wl.prep_sql, wl.spec, cache_recode_map=True, cache_transformed=True
        )
        cached = deployment.pipeline.run_insql_broker(
            wl.prep_sql, wl.spec, "noop", use_cache=True
        )
        assert cached.rewrite_kind == "full_cache"
        plain = deployment.pipeline.run_insql_broker(wl.prep_sql, wl.spec, "noop")
        assert signature(cached) == signature(plain)


class TestAtLeastOnceRecovery:
    def test_failed_consumer_resumes_and_loses_nothing(self):
        """Simulate an ML worker crash mid-consumption: the restarted job
        (same consumer group) resumes from committed offsets and the union
        of processed records covers everything at least once."""
        deployment = make_deployment(block_size=64 * 1024)
        engine = deployment.engine
        from repro.sql.types import DataType, Schema

        engine.create_table(
            "events",
            Schema.of(("id", DataType.BIGINT), ("v", DataType.DOUBLE)),
            [(i, float(i)) for i in range(200)],
        )
        broker = deployment.broker
        broker.create_topic("recovery", 4)
        # batch_rows=1 keeps one record per row so partitions hold multiple
        # poll batches — the crash must land *between* commit points.
        engine.query_rows(
            "SELECT * FROM TABLE(broker_transfer((SELECT id, v FROM events), "
            "'recovery', 1)) AS b"
        )

        from repro.broker.consumer import BrokerConsumer

        processed_before_crash: list[tuple] = []
        for partition in range(4):
            consumer = BrokerConsumer(
                broker, "recovery", partition, group="ml", batch_size=10
            )
            rows, _end = consumer.poll()
            processed_before_crash.extend(rows)
            consumer.commit()  # first batch committed
            rows, _end = consumer.poll()  # second batch processed, NOT committed
            processed_before_crash.extend(rows)
            # crash here: consumer dropped without committing

        conf = JobConf(
            {"broker.topic": "recovery", "broker.group": "ml", "record.format": "raw"},
            broker=broker,
        )
        restarted = deployment.ml.run_job("noop", {}, BrokerInputFormat(), conf)
        after = restarted.dataset.collect()

        all_ids = {row[0] for row in processed_before_crash} | {r[0] for r in after}
        assert all_ids == set(range(200))  # nothing lost
        # the uncommitted second batches were re-delivered: duplicates exist
        redelivered = {row[0] for row in processed_before_crash} & {r[0] for r in after}
        assert redelivered  # at-least-once, not exactly-once
