"""The SQL-side sender: a parallel table UDF (§3's entry point).

"The data transfer starts from the parallel table UDF in the SQL system.
This UDF takes in as inputs the table to be transferred, the [coordinator],
as well as the command and arguments to invoke the desired ML algorithm."

Usage::

   SELECT * FROM TABLE(stream_transfer((SELECT ...), 'session-1'))

or, self-contained (no pre-configured session)::

   SELECT * FROM TABLE(stream_transfer((SELECT ...), 'session-1',
                                        'svm_with_sgd', 'iterations=10'))

Each invocation registers its worker with the coordinator (step 1), blocks
until matchmaking hands it its k channels (steps 5-7), streams its
partition's rows round-robin across them (step 8), closes with EOF, and
returns a one-row transfer summary.
"""

import numpy as np

from repro.columnar.batch import ColumnBatch
from repro.common.errors import (
    RetriesExhaustedError,
    TransferError,
    WorkerFailedError,
)
from repro.sql.types import DataType, Schema
from repro.sql.udf import TableUDF, UdfContext
from repro.transfer.coordinator import Coordinator


def plan_blocks(num_rows: int, k: int, batch_rows: int) -> list[tuple[int, int, np.ndarray]]:
    """Deterministic round-robin blocking of a partition over k channels.

    Returns ``(channel_index, sequence_number, row indices)`` triples in
    send order.  Row i goes to channel ``i % k``; block s of channel c holds
    that channel's rows ``s * batch_rows`` up to ``(s + 1) * batch_rows``.
    Full blocks go in the order they fill (block s of every channel before
    block s + 1 of any), then each channel's partial block at EOF, in
    channel order.  The plan depends only on the row count and the settings
    — so a restarted worker replaying its partition produces *identical*
    blocks with identical per-channel sequence numbers, which is what makes
    the receiver's dedup-by-seq sound (§6).
    """
    batch_rows = max(batch_rows, 1)
    span = batch_rows * k  # global rows per full round of blocks
    counts = [len(range(c, num_rows, k)) for c in range(k)]
    full = [count // batch_rows for count in counts]
    blocks = [
        (c, s, np.arange(c + s * span, c + (s + 1) * span, k))
        for s in range(max(full, default=0))
        for c in range(k)
        if s < full[c]
    ]
    blocks.extend(
        (c, full[c], np.arange(c + full[c] * span, num_rows, k))
        for c in range(k)
        if counts[c] % batch_rows
    )
    return blocks


def parse_ml_args(text: str) -> dict:
    """Parse ``'iterations=10,step=0.5'`` style ML argument strings."""
    args: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise TransferError(f"bad ML argument {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        args[key.strip()] = value.strip()
    return args


class StreamTransferUDF(TableUDF):
    """``TABLE(stream_transfer(input, session [, command [, args]]))``."""

    name = "stream_transfer"

    def output_schema(self, input_schema: Schema, args: tuple) -> Schema:
        self._parse_args(args)
        return Schema.of(
            ("worker_id", DataType.INT),
            ("rows_sent", DataType.BIGINT),
            ("bytes_sent", DataType.BIGINT),
            ("spilled_bytes", DataType.BIGINT),
        )

    def process_batch(self, batch, input_schema: Schema, args: tuple, ctx: UdfContext):
        """Register, receive the matched channels, send the partition as
        ``C`` frames, close with EOF; returns the one-row transfer summary.

        Step 8: row i goes to channel ``i % k``, each channel's rows
        travelling as blocks of up to the session's ``batch_rows``
        (:func:`plan_blocks`), each an index take of the batch.  The plan is
        the unit of replay: with the §6 recovery protocol installed each
        block send beats the
        heartbeat, consults the fault injector, and retries transient
        channel timeouts with backoff, and a worker kill triggers a
        coordinated partial restart — only this worker and its k paired ML
        readers restart, the whole plan replays from block 0 in a *retry
        epoch* whose bytes charge the separate ``stream.retry`` ledger
        counter, and receivers drop already-accepted sequence numbers — so
        the ML side still ingests each logical row exactly once.  Exhausted
        budgets escalate to :meth:`Coordinator.notify_channel_failure`,
        failing the session so the pipeline tier (full restart or DFS
        degradation) takes over.
        """
        session_id, command, ml_args = self._parse_args(args)
        coordinator: Coordinator = ctx.service("coordinator")

        # Step 1: register (worker id, IP, worker count, command+args).
        session = coordinator.register_sql_worker(
            session_id,
            worker_id=ctx.worker_id,
            ip=ctx.node.ip,
            total_workers=ctx.num_workers,
            command=command,
            args=ml_args,
        )
        # Steps 5-7: receive the matched channels.
        channels = coordinator.sql_worker_channels(session_id, ctx.worker_id)
        if not channels:
            raise TransferError(f"worker {ctx.worker_id} was matched to no channels")

        blocks = plan_blocks(batch.num_rows, len(channels), session.batch_rows)
        recovery = coordinator.recovery
        budget = session.budget
        epoch = 0
        try:
            while True:
                try:
                    rows_streamed = 0
                    for target, seq, rows in blocks:
                        # Cooperative cancellation, once per block:
                        # DeadlineExceeded and SessionCancelled are neither
                        # WorkerFailedError nor RetriesExhaustedError, so
                        # they skip both recovery tiers and propagate typed.
                        if budget is not None:
                            budget.check("stream send")
                        channel = channels[target]
                        block = batch.take(rows)
                        if recovery is None:
                            channel.send_many(block, seq)
                        else:
                            # Beat through the *coordinator*, not the recovery
                            # manager directly: the beat is a control-plane
                            # handshake, so under HA it resolves the current
                            # leader (the mid-stream failover point) while the
                            # data plane below never touches the coordinator.
                            coordinator.record_heartbeat(session_id, ctx.worker_id)
                            recovery.injector.check_kill(
                                ctx.worker_id, rows_streamed, scope=session_id
                            )
                            recovery.send_with_retry(
                                lambda: channel.send_many(block, seq, retry=epoch > 0),
                                f"{session_id}/{channel.channel_id}",
                            )
                        rows_streamed += len(rows)
                    break
                except WorkerFailedError as exc:
                    # §6: restart this worker with its paired ML readers and
                    # replay the partition; dedup-by-seq absorbs the overlap.
                    if recovery is None:
                        raise
                    recovery.begin_partial_restart(
                        coordinator, session_id, ctx.worker_id, str(exc)
                    )
                    epoch += 1
        except RetriesExhaustedError as exc:
            # Budgets spent: fail the session — which aborts this group's
            # channels, so stuck readers wake with a typed error — and
            # escalate the failure to the pipeline tier.
            coordinator.notify_channel_failure(session_id, ctx.worker_id, str(exc))
            raise
        except BaseException as exc:
            # A producer that dies mid-send (budget expiry, injected fault)
            # must poison its channels: clean EOF here would let readers
            # ingest the delivered prefix as if the stream had completed.
            for channel in channels:
                channel.abort(f"{type(exc).__name__}: {exc}")
            raise
        else:
            for channel in channels:
                channel.close()

        summary = (
            ctx.worker_id,
            rows_streamed,
            sum(c.bytes_sent for c in channels),
            sum(c.spilled_bytes for c in channels),
        )
        return ColumnBatch.from_pylists(
            self.output_schema(input_schema, args), [[value] for value in summary], 1
        )

    @staticmethod
    def _parse_args(args: tuple) -> tuple[str, str | None, dict]:
        if not args:
            raise TransferError("stream_transfer needs at least a session id")
        session_id = str(args[0])
        command = str(args[1]) if len(args) > 1 and args[1] is not None else None
        ml_args = parse_ml_args(str(args[2])) if len(args) > 2 and args[2] else {}
        return session_id, command, ml_args
