"""ML job ingestion: splits -> parallel readers -> in-memory Dataset."""

import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.columnar.batch import ColumnBatch, ColumnVector
from repro.common.errors import (
    DeadlineExceeded,
    IngestError,
    MLError,
    SessionCancelled,
    WorkerFailedError,
)
from repro.iofmt.inputformat import InputFormat, JobConf
from repro.ml.dataset import ArrayDataset, Dataset, stack_pairs
from repro.sim.clock import WALL
from repro.sql.types import DataType, Schema


@dataclass
class IngestStats:
    """What building the RDD cost — the paper's "input for ml" stage."""

    records: int = 0
    bytes: int = 0
    num_splits: int = 0
    local_splits: int = 0
    wall_seconds: float = 0.0


@dataclass
class MLJob:
    """One ingestion job: an InputFormat consumed by parallel workers.

    ``num_workers`` is the requested parallelism; formats may dictate their
    own split count (the streaming format returns exactly the splits the
    coordinator matched).  Each split is consumed by exactly one worker, and
    the scheduler places the worker on the split's advertised location when
    that node exists — the best-effort locality of §3.
    """

    cluster: Cluster
    input_format: InputFormat
    conf: JobConf
    num_workers: int
    #: the row path: each record -> a training record (``None``: as read)
    record_parser: Callable | None = None
    #: the array path, which wins when set: ColumnBatch -> (X, y).  Every
    #: block a reader yields becomes float64 arrays and ingest() returns an
    #: ArrayDataset — no per-row object is built.
    batch_parser: Callable | None = None

    def ingest(self) -> tuple[Dataset, IngestStats]:
        """Read all splits into a Dataset (one partition per split)."""
        started = time.perf_counter()
        splits = self.input_format.get_splits(self.conf, self.num_workers)
        if not splits:
            empty = stack_pairs([]) if self.batch_parser is not None else []
            return self._dataset([empty]), IngestStats()
        stats = IngestStats(num_splits=len(splits))
        known_ips = {n.ip for n in self.cluster.nodes}
        parser = self.record_parser
        batch_parser = self.batch_parser
        # Multi-tenant deployments share the fixed ML worker pool: each split
        # drain holds one fair lease from the coordinator's scheduler while
        # it reads.  Sound without deadlock because SQL-side senders never
        # block (full buffers spill) — a reader waiting for a slot only
        # delays its own stream.  worker_pool is None on seed deployments.
        coordinator = self.conf.get_object("coordinator")
        worker_pool = getattr(coordinator, "worker_pool", None)
        session_key = self.conf.get("stream.session") or "local"
        # End-to-end budget: the slot wait below derives its timeout from it
        # (and a cancel wakes the waiter), and each split drain re-checks it
        # at reader-open so an already-expired session never starts reading.
        budget = self.conf.get_object("budget")
        # Injected clock (virtual under the chaos harness): reader threads
        # register as clock-managed so virtual time only advances while every
        # drain is parked in a clock wait.
        clock = (
            self.conf.get_object("clock")
            or getattr(coordinator, "clock", None)
            or WALL
        )

        def consume(split_id: int, split) -> tuple[list | tuple, int, bool]:
            with clock.managed(f"ingest-split-{session_key}-{split_id}",
                               expected=True):
                if budget is not None:
                    budget.check("ingest split open")
                if worker_pool is not None:
                    with worker_pool.lease(session_key, budget=budget):
                        return _consume(split)
                return _consume(split)

        def _consume(split) -> tuple[list | tuple, int, bool]:
            locations = split.locations()
            is_local = any(ip in known_ips for ip in locations)
            node_ip = next((ip for ip in locations if ip in known_ips), None)
            conf = JobConf(dict(self.conf.props), **self.conf.objects)
            if node_ip is not None:
                conf.set("client.ip", node_ip)
            with self.input_format.create_record_reader(split, conf) as reader:
                if batch_parser is not None:
                    part = stack_pairs([
                        batch_parser(block if isinstance(block, ColumnBatch) else _pivot(block))
                        for block in reader.blocks()
                        if len(block)
                    ])
                else:
                    part = [parser(r) for r in reader] if parser else list(reader)
                # Streaming readers count actual received bytes; file readers
                # fall back to the split's nominal length.
                nbytes = getattr(reader, "bytes_read", None)
            if nbytes is None:
                nbytes = split.length()
            return part, nbytes, is_local

        # Typed per-split error handling: every split's outcome is collected
        # so a failure names exactly which split ids died (and, for worker
        # crashes, which worker) — the §6 recovery ladder needs that to know
        # the fault happened at *ingest*, before the data was fully delivered.
        results: list = [None] * len(splits)
        failures: dict[int, BaseException] = {}
        clock.expect_threads(len(splits))
        with ThreadPoolExecutor(max_workers=max(len(splits), 1)) as pool:
            futures = {
                pool.submit(consume, i, split): i for i, split in enumerate(splits)
            }
            # The gather blocks in Future.result(), outside any clock wait:
            # step out of the managed set so the virtual clock can advance
            # while the reader threads do the (clock-visible) waiting.
            with clock.unmanaged():
                for future, split_id in futures.items():
                    try:
                        results[split_id] = future.result()
                    except (WorkerFailedError, MLError) as exc:
                        failures[split_id] = exc
                    except Exception as exc:  # non-library faults surface typed
                        failures[split_id] = exc
        if failures:
            failed_ids = tuple(sorted(failures))
            # Budget outcomes surface typed, never wrapped in IngestError:
            # the recovery ladder must see them as non-retryable, and a
            # re-ingest of an expired session would just expire again.
            for i in failed_ids:
                if isinstance(failures[i], (DeadlineExceeded, SessionCancelled)):
                    raise failures[i]
            first = failures[failed_ids[0]]
            detail = "; ".join(
                f"split {i}: {failures[i]}" for i in failed_ids
            )
            raise IngestError(
                f"ingest failed for splits {list(failed_ids)}: {detail}",
                failed_split_ids=failed_ids,
            ) from first

        for _part, nbytes, is_local in results:
            stats.bytes += nbytes
            stats.local_splits += is_local
        self.cluster.ledger.add("ml.ingest", stats.bytes)
        dataset = self._dataset([part for part, _, _ in results])
        stats.records = dataset.count()
        stats.wall_seconds = time.perf_counter() - started
        return dataset, stats

    def _dataset(self, parts: list) -> Dataset:
        """One partition per split: (X, y) pairs on the array path."""
        return ArrayDataset(parts) if self.batch_parser is not None else Dataset(parts)


def _pivot(rows: list) -> ColumnBatch:
    """One received block of row tuples (a broker ``R`` record; stream
    channels carry ``C`` frames) as DOUBLE columns, pivoted once.  A
    value that is not an int or float (a bool, a numeric string) leaves its
    column an ``object`` one, which ``batch_to_xy`` reads with ``float()``."""
    widths = set(map(len, rows))
    if len(widths) != 1:
        raise IngestError(f"a received block mixes rows of {sorted(widths)} fields")
    columns = [ColumnVector.from_values(DataType.DOUBLE, list(v)) for v in zip(*rows)]
    schema = Schema.of(*((f"c{i}", DataType.DOUBLE) for i in range(len(columns))))
    return ColumnBatch.from_columns(schema, columns, len(rows))
