"""Dataset (RDD) operations and ingestion jobs."""

import numpy as np
import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.hdfs.filesystem import DistributedFileSystem
from repro.iofmt.inputformat import JobConf
from repro.iofmt.text import CsvInputFormat
from repro.ml.dataset import Dataset, LabeledPoint
from repro.ml.job import MLJob


class TestDataset:
    def test_from_records_round_robin(self):
        ds = Dataset.from_records(range(10), num_partitions=3)
        assert ds.num_partitions == 3
        assert ds.count() == 10
        assert sorted(ds.collect()) == list(range(10))

    def test_map_filter(self):
        ds = Dataset.from_records(range(10), 2)
        out = ds.map(lambda x: x * 2).filter(lambda x: x > 10)
        assert sorted(out.collect()) == [12, 14, 16, 18]

    def test_sample_deterministic(self):
        ds = Dataset.from_records(range(1000), 4)
        a = ds.sample(0.3, seed=5).collect()
        b = ds.sample(0.3, seed=5).collect()
        assert a == b
        assert 200 < len(a) < 400

    def test_first(self):
        ds = Dataset([[], [42]])
        assert ds.first() == 42
        with pytest.raises(IndexError):
            Dataset([[]]).first()

    def test_to_arrays(self):
        points = [LabeledPoint(1.0, np.array([1.0, 2.0])), LabeledPoint(0.0, np.array([3.0, 4.0]))]
        X, y = Dataset([points]).to_arrays()
        assert X.shape == (2, 2)
        assert list(y) == [1.0, 0.0]

    def test_to_arrays_empty(self):
        X, y = Dataset([[]]).to_arrays()
        assert X.size == 0 and y.size == 0

    def test_partition_arrays_skips_empty(self):
        points = [LabeledPoint(1.0, np.array([1.0]))]
        parts = Dataset([points, []]).partition_arrays()
        assert len(parts) == 1

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            Dataset.from_records([], 0)


class TestLabeledPoint:
    def test_equality_and_hash(self):
        a = LabeledPoint(1.0, np.array([1.0, 2.0]))
        b = LabeledPoint(1.0, np.array([1.0, 2.0]))
        c = LabeledPoint(0.0, np.array([1.0, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestMLJobIngest:
    def make_env(self):
        cluster = make_paper_cluster()
        dfs = DistributedFileSystem(cluster, block_size=256)
        return cluster, dfs

    def test_ingest_text_to_labeled_points(self):
        cluster, dfs = self.make_env()
        lines = "\n".join(f"{i},{i * 2},{i % 2}" for i in range(300)) + "\n"
        dfs.write_text("/ml/data.csv", lines)
        job = MLJob(
            cluster=cluster,
            input_format=CsvInputFormat(),
            conf=JobConf({"input.path": "/ml/data.csv"}, dfs=dfs),
            num_workers=6,
            record_parser=lambda fields: LabeledPoint(
                float(fields[-1]), np.array(fields[:-1], dtype=float)
            ),
        )
        dataset, stats = job.ingest()
        assert stats.records == 300
        assert dataset.count() == 300
        assert stats.bytes == dfs.status("/ml/data.csv").length
        point = dataset.first()
        assert point.label in (0.0, 1.0)
        assert point.features.shape == (2,)

    def test_one_worker_per_split(self):
        cluster, dfs = self.make_env()
        dfs.write_text("/ml/d.csv", "1,2\n" * 500)
        job = MLJob(
            cluster=cluster,
            input_format=CsvInputFormat(),
            conf=JobConf({"input.path": "/ml/d.csv"}, dfs=dfs),
            num_workers=4,
        )
        dataset, stats = job.ingest()
        assert dataset.num_partitions == stats.num_splits

    def test_locality_counted(self):
        cluster, dfs = self.make_env()
        dfs.write_text("/ml/d.csv", "1,2\n" * 100, client_ip=cluster.workers[0].ip)
        job = MLJob(
            cluster=cluster,
            input_format=CsvInputFormat(),
            conf=JobConf({"input.path": "/ml/d.csv"}, dfs=dfs),
            num_workers=2,
        )
        _dataset, stats = job.ingest()
        assert stats.local_splits == stats.num_splits  # replicas on cluster nodes

    def test_empty_input(self):
        cluster, dfs = self.make_env()
        dfs.write_text("/ml/empty.csv", "")
        job = MLJob(
            cluster=cluster,
            input_format=CsvInputFormat(),
            conf=JobConf({"input.path": "/ml/empty.csv"}, dfs=dfs),
            num_workers=4,
        )
        dataset, stats = job.ingest()
        assert dataset.count() == 0
        assert stats.records == 0

    def test_ingest_accounting(self):
        cluster, dfs = self.make_env()
        dfs.write_text("/ml/a.csv", "1,2\n" * 50)
        before = cluster.ledger.snapshot()
        MLJob(
            cluster=cluster,
            input_format=CsvInputFormat(),
            conf=JobConf({"input.path": "/ml/a.csv"}, dfs=dfs),
            num_workers=2,
        ).ingest()
        delta = cluster.ledger.delta(before, cluster.ledger.snapshot())
        assert delta["ml.ingest"] == 200
