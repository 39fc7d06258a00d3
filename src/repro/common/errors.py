"""Exception hierarchy for the whole package.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch all library failures with a single except clause while still being able
to discriminate by subsystem.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ReproError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PlanError(ReproError):
    """A parsed query could not be turned into an executable plan.

    Typical causes: unknown column references, ambiguous names, aggregates
    mixed with non-grouped columns, unsupported constructs.
    """


class CatalogError(ReproError):
    """A catalog object (table, view, UDF) is missing or already exists."""


class ExecutionError(ReproError):
    """A physical operator failed while executing a plan."""


class HdfsError(ReproError):
    """Base class for distributed-file-system errors."""


class FileNotFoundInDfs(HdfsError):
    """The requested path does not exist in the DFS namespace."""


class FileAlreadyExists(HdfsError):
    """Attempted to create a path that already exists."""


class BlockError(HdfsError):
    """A block is missing, corrupt, or under-replicated beyond repair."""


class BlockCorruptError(BlockError):
    """One replica's bytes failed their CRC32 checksum on read.

    *Recoverable by failover*: the reader tries the remaining replicas and
    reports the bad one to the NameNode, whose repair scanner restores it
    from a healthy copy.  Only when every replica is corrupt or unreachable
    does the read escalate to a plain :class:`BlockError`."""

    def __init__(self, message: str, block_id: str | None = None, host: str | None = None):
        self.block_id = block_id
        self.host = host
        super().__init__(message)


class DataNodeDownError(HdfsError):
    """An operation hit a dead or stopped DataNode.

    *Recoverable by failover* on the read path (surviving replicas serve
    the block) and by replica redirection on the write path; the NameNode
    additionally learns of the death through the report or a missed
    heartbeat and re-replicates everything the node held."""

    def __init__(self, message: str, host: str | None = None):
        self.host = host
        super().__init__(message)


class StorageFullError(HdfsError):
    """A DataNode (or an injected ENOSPC window) refused a replica write
    for lack of capacity.

    *Recoverable by redirection*: the writer asks the NameNode for a
    replacement target; only when no live DataNode can take the replica
    does the error escalate to the caller, whose ladder is caller-specific
    — spill buffers fall back to accounted in-memory overflow, checkpoint
    commits prune old versions and retry, everything else fails typed."""

    def __init__(self, message: str, host: str | None = None):
        self.host = host
        super().__init__(message)


class TransferError(ReproError):
    """The parallel streaming transfer failed (coordinator, channel, buffer)."""


class AdmissionError(TransferError):
    """Session admission refused or timed out: the tenant's quota plus the
    bounded FIFO queue could not absorb the request.  *Recoverable* by the
    client — back off and resubmit, or route to another tenant."""


class CoordinatorUnavailableError(TransferError):
    """The coordinator a client handshook with is dead or lost its leader
    lease — *recoverable* under high availability: the client re-resolves
    the current leader from ZooKeeperLite and retries the handshake
    idempotently (re-register by ``(session_id, worker_id)``, re-claim by
    ``(session_id, channel_id)``)."""


class ChannelTimeoutError(TransferError):
    """A channel/socket/broker operation timed out — *recoverable*: the peer
    may be slow or briefly unreachable, so callers should retry with backoff
    before escalating."""


class ChannelAbortedError(TransferError):
    """The producer failed fatally mid-stream, so everything received on
    this channel is a truncated prefix — *fatal* for the reader: treating
    the abort as clean EOF would let a half-delivered dataset train (and
    charge ``ml.ingest``) silently.  Raised by every receive after the
    abort, in place of the clean-``close()`` EOF ``None``."""


class FrameError(TransferError):
    """A wire frame failed validation: truncated, bit-flipped, or not a
    frame at all.  The one error the frame decoder raises for any malformed
    payload — a broker consumer refetches on it, everything else treats it
    as the transfer failure it is."""


class RetriesExhaustedError(TransferError):
    """A retry budget (send retries, partial restarts, replay fetches) ran
    out — *fatal* for the current strategy; callers fall back to the next
    recovery tier (full pipeline restart, materialize-to-DFS degradation)."""


class WorkerFailedError(TransferError):
    """A SQL or ML worker died mid-transfer (detected by a failed send, a
    stale heartbeat, or an expired coordination session).  §6's unit of
    recovery: the failed SQL worker and its k paired ML workers restart."""

    def __init__(self, message: str, worker_id: int | None = None):
        self.worker_id = worker_id
        super().__init__(message)


class DeadlineExceeded(TransferError):
    """The session's end-to-end budget ran out — *non-retryable*.  Unlike
    :class:`ChannelTimeoutError` (a per-call flat timeout that may succeed on
    retry), the budget is the client's own clock: once it expires, every
    retry, replay, or recovery tier would also miss the deadline, so the
    error escalates straight through the §6 recovery ladder to the client."""

    def __init__(self, message: str, session_id: str | None = None):
        self.session_id = session_id
        super().__init__(message)


class SessionCancelled(TransferError):
    """The client cancelled the session (``coordinator.cancel_session``) —
    *non-retryable* by definition.  Workers observe the flag cooperatively:
    SQL workers stop at batch boundaries, trainers abort between iterations
    after committing their last checkpoint, and blocked waiters are woken
    instead of timing out."""

    def __init__(self, message: str, session_id: str | None = None):
        self.session_id = session_id
        super().__init__(message)


class MLError(ReproError):
    """An ML job or algorithm failed (bad input, non-convergence guards)."""


class IngestError(MLError):
    """Building the in-memory Dataset failed for one or more input splits.

    Distinguishing *ingest* failures from *training* failures is what makes
    the §6 ML-stage recovery ladder sound: a dead reader means rows were
    lost in flight (recovery must replay the transfer), while a training
    crash happened with the data fully delivered (recovery can resume from
    a checkpoint or replay the input from lineage)."""

    def __init__(self, message: str, failed_split_ids: tuple[int, ...] = ()):
        self.failed_split_ids = tuple(failed_split_ids)
        super().__init__(message)


class TrainingInterrupted(MLError):
    """An iterative trainer died mid-run (injected or real).  Carries the
    iteration boundary it reached so recovery can report how much progress a
    checkpoint-resume preserved."""

    def __init__(self, message: str, iteration: int | None = None):
        self.iteration = iteration
        super().__init__(message)


class CheckpointError(ReproError):
    """Writing or reading an ML training checkpoint failed."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed its checksum/format validation on load."""


class TransformError(ReproError):
    """A data transformation could not be applied — e.g. a recode map is
    missing a column, or an ``on_unseen='error'`` policy met a category
    that phase 1 never observed (the dirty-data case)."""

    def __init__(self, message: str, column: str | None = None, value=None):
        self.column = column
        self.value = value
        super().__init__(message)


class CacheError(ReproError):
    """Cache lookup/insert/invalidation failed."""
