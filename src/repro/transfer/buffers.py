"""Bounded buffers with spill-to-disk backpressure handling.

The paper: "Inside a SQL worker, there is a send-buffer associated with each
target ML worker ... If an ML worker is slow to ingest its data and the
corresponding send buffer becomes full, we can spill it onto the local disks
to synchronize the producer and consumers."  So a full buffer never blocks
the producer — overflow goes to a spill file (or an accounted in-memory
overflow region when no spill directory is configured), and the consumer
drains strictly in FIFO order across the memory/spill boundary.
"""

import os
import pickle
import struct
import threading
from collections import deque

import numpy as np

from repro.columnar.batch import ColumnBatch, ColumnVector
from repro.common.errors import (
    ChannelAbortedError,
    ChannelTimeoutError,
    FrameError,
    StorageFullError,
    TransferError,
)
from repro.sim.clock import WALL
from repro.sql.types import DataType, Schema

_LENGTH = struct.Struct(">I")


class SpillableBuffer:
    """FIFO byte-item buffer: bounded memory, unbounded accounted spill.

    The in-memory byte pipe of a
    :class:`~repro.transfer.channel.StreamChannel`: ``put`` reports the
    bytes it had to spill, ``get`` drains in FIFO order, and
    ``close``/``abort``/``cancel``/``discard`` end the stream.
    """

    def __init__(
        self,
        capacity_bytes: int,
        spill_path: str | None = None,
        ledger=None,  # CostLedger | None — counts stream.spill_enospc events
        tenant: str = "default",
        budget=None,
        clock=None,  # repro.sim.clock.Clock | None — read-wait timing
        injector=None,  # FaultInjector | None — dfs.enospc spill window
    ):
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        self._capacity = capacity_bytes
        self._clock = clock or WALL
        # Optional per-session Budget: get() waits are clamped to its
        # remaining time and a cancel wakes blocked readers immediately.
        self._budget = budget
        if budget is not None:
            budget.on_cancel(self.cancel)
        self._tenant = tenant
        self._memory: deque[bytes] = deque()
        self._memory_bytes = 0
        self._spill_path = spill_path
        self._spill_file = None
        self._spill_read_offset = 0
        self._spill_pending = 0  # items in the spill region not yet consumed
        self._file_pending = 0  # subset of pending that sits in the spill file
        self._spill_failed = False  # disk refused a spill — degrade to memory
        self._injector = injector
        self._overflow: deque[bytes] = deque()  # in-memory spill stand-in
        self._ledger = ledger
        self._closed = False
        self._abort_reason: str | None = None
        self._lock = threading.Lock()
        self._readable = threading.Condition(self._lock)
        self.spilled_bytes = 0

    # ---------------------------------------------------------------- write

    def put(self, item: bytes) -> int:
        """Append an item; spills instead of blocking when memory is full.
        Returns the bytes that had to spill (0 when the item fit)."""
        with self._lock:
            if self._closed:
                raise TransferError("put() on a closed buffer")
            # FIFO across the boundary: once anything sits in spill, new
            # items must follow it there.
            spilled = 0
            if self._spill_pending == 0 and self._memory_bytes + len(item) <= self._capacity:
                self._memory.append(item)
                self._memory_bytes += len(item)
            else:
                self._spill(item)
                spilled = len(item)
            self._readable.notify()
            return spilled

    def close(self) -> None:
        """Signal end of stream; pending items remain readable."""
        with self._lock:
            self._closed = True
            self._readable.notify_all()

    def abort(self, reason: str = "producer failed") -> None:
        """Poison the stream: every blocked or future :meth:`get` raises
        :class:`ChannelAbortedError` instead of draining to EOF.  Pending
        items are a truncated prefix of a stream whose producer died, so
        they must never be delivered as if the stream completed.  Sticky —
        a later :meth:`close` does not clear it.  Idempotent."""
        with self._lock:
            if self._abort_reason is None:
                self._abort_reason = reason
            self._closed = True
            self._readable.notify_all()

    def discard(self) -> None:
        """Drop everything and release the spill file (session teardown).

        Unlike :meth:`close`, pending items are *not* kept readable — a
        blocked or late reader sees immediate EOF — and a spill file that
        was never fully drained is closed and unlinked, so a finished (or
        failed) session leaves nothing on disk.
        """
        with self._lock:
            self._closed = True
            self._memory.clear()
            self._memory_bytes = 0
            self._overflow.clear()
            self._spill_pending = 0
            self._file_pending = 0
            if self._spill_file is not None:
                path = self._spill_file.name
                self._spill_file.close()
                self._spill_file = None
                self._spill_read_offset = 0
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._readable.notify_all()

    # ----------------------------------------------------------------- read

    def cancel(self) -> None:
        """Wake blocked readers so they observe their cancelled budget."""
        with self._lock:
            self._readable.notify_all()

    def get(self, timeout: float | None = 30.0) -> bytes | None:
        """Next item in FIFO order, or None at end of stream.

        Raises :class:`TransferError` if nothing arrives within ``timeout``
        (a deadlock guard; the paper's streams always terminate with EOF).
        With a session budget installed, the wait is additionally clamped to
        the budget's remaining time and raises the typed
        ``DeadlineExceeded``/``SessionCancelled`` instead of the retryable
        flat-timeout error.
        """
        deadline = None if timeout is None else self._clock.now() + timeout
        with self._lock:
            while True:
                if self._abort_reason is not None:
                    raise ChannelAbortedError(
                        f"stream aborted: {self._abort_reason}"
                    )
                if self._memory:
                    item = self._memory.popleft()
                    self._memory_bytes -= len(item)
                    self._refill_from_spill()
                    return item
                if self._spill_pending:
                    self._refill_from_spill()
                    continue
                if self._closed:
                    return None
                if self._budget is not None:
                    self._budget.check("buffer read")
                # The deadline spans wait() wakeups: repeated notifies that
                # deliver nothing (another reader won the race) must not
                # extend the deadlock guard indefinitely.
                remaining = None if deadline is None else deadline - self._clock.now()
                if remaining is not None and remaining <= 0:
                    raise ChannelTimeoutError(
                        f"buffer read timed out after {timeout}s (producer stalled?)"
                    )
                if self._budget is not None:
                    # Clamped wait: on expiry the loop re-enters and the
                    # budget check (or the flat deadline above) raises.
                    if not self._clock.wait_on(
                        self._readable, self._budget.clamp(remaining)
                    ):
                        self._budget.check("buffer read")
                    continue
                if not self._clock.wait_on(self._readable, remaining):
                    raise ChannelTimeoutError(
                        f"buffer read timed out after {timeout}s (producer stalled?)"
                    )

    def __iter__(self):
        while True:
            item = self.get()
            if item is None:
                return
            yield item

    # ------------------------------------------------------------ internals

    def _spill(self, item: bytes) -> None:
        self.spilled_bytes += len(item)
        if self._spill_path is not None and not self._spill_failed:
            try:
                if self._injector is not None:
                    # dfs.enospc: an injected full-disk window at the spill
                    # site (real spill disks fail with OSError below).
                    self._injector.check_dfs_enospc(
                        f"spill/{self._tenant}/{self._spill_path}"
                    )
                if self._spill_file is None:
                    os.makedirs(
                        os.path.dirname(self._spill_path) or ".", exist_ok=True
                    )
                    self._spill_file = open(self._spill_path, "w+b")
                self._spill_file.seek(0, os.SEEK_END)
                self._spill_file.write(_LENGTH.pack(len(item)))
                self._spill_file.write(item)
                self._file_pending += 1
            except (OSError, StorageFullError):
                # ENOSPC ladder: the spill disk refused the item — degrade to
                # the accounted in-memory overflow region instead of crashing
                # the producer.  Permanently, so FIFO order across the
                # file/overflow boundary stays intact (file items drain
                # strictly before overflow items).
                self._spill_failed = True
                if self._ledger is not None:
                    self._ledger.add("stream.spill_enospc", 1)
                self._overflow.append(item)
        else:
            self._overflow.append(item)
        self._spill_pending += 1

    def _refill_from_spill(self) -> None:
        """Move spilled items back into free memory space, preserving order."""
        while self._spill_pending and self._memory_bytes < self._capacity:
            item = self._read_one_spilled()
            self._memory.append(item)
            self._memory_bytes += len(item)
            self._spill_pending -= 1
        if self._file_pending == 0 and self._spill_file is not None:
            path = self._spill_file.name
            self._spill_file.close()
            self._spill_file = None
            self._spill_read_offset = 0
            try:
                os.unlink(path)
            except OSError:
                pass

    def _read_one_spilled(self) -> bytes:
        # FIFO across regions: everything that reached the spill file was
        # appended before the first overflow item (degradation is one-way),
        # so the file drains first.
        if self._spill_file is not None and self._file_pending:
            self._spill_file.seek(self._spill_read_offset)
            header = self._spill_file.read(_LENGTH.size)
            (length,) = _LENGTH.unpack(header)
            item = self._spill_file.read(length)
            self._spill_read_offset = self._spill_file.tell()
            self._file_pending -= 1
            return item
        return self._overflow.popleft()




# --------------------------------------------------------------------------
# The frame: the one wire encoding of channels, spill files and broker records
# --------------------------------------------------------------------------

ROWS = b"R"  # body: each row as a length-prefixed pickle
COLUMNS = b"C"  # body: one pickle of a ColumnBatch's column buffers
_HEADER = struct.Struct(">cQQI")  # kind, sequence number, logical bytes, body length


def encode_block(block, seq: int = 0) -> bytes:
    """Serialize one block — a row sequence or a
    :class:`~repro.columnar.batch.ColumnBatch` — as one frame.

    One block is one buffer/spill/socket/broker item, so the whole batch
    costs a single lock acquisition, frame header, and ledger entry instead
    of one per row.

    Frame layout: the kind byte (``R`` or ``C``), the block's per-channel
    sequence number (the §6 replay-dedup handle: a restarted SQL worker
    re-streams its partition with the same numbering and the receiver drops
    every number it already accepted), the block's *logical* size, the body
    length, then the body.  All ledger byte accounting charges the logical
    size, so the simulated cost of a transfer is identical at every
    ``batch_rows`` setting — only real wall-clock changes.  For a row block
    it is the sum of the per-row pickle lengths, which the body reuses
    verbatim — one serialization pass computes both.
    """
    if isinstance(block, ColumnBatch):
        return encode_col_block(block, seq)
    frames = [pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL) for row in block]
    logical = sum(len(frame) for frame in frames)
    body = b"".join(_LENGTH.pack(len(frame)) + frame for frame in frames)
    return _HEADER.pack(ROWS, seq, logical, len(body)) + body


def encode_col_block(batch: ColumnBatch, seq: int = 0) -> bytes:
    """The ``C`` half of :func:`encode_block`.

    The logical size is the batch's seed-formula :meth:`logical_bytes`, so
    ledgers account columnar traffic on the same scale as row traffic.  The
    body is one pickle of ``(names, dtypes, num_rows, columns)``; a typed
    column is ``(numpy dtype, data bytes, validity bytes or None when it
    holds no NULL, dictionary)``, so the whole batch costs a handful of
    memcpys and one small pickle.  An ``object`` column ships its array.
    """
    names = tuple(column.name for column in batch.schema)
    dtypes = tuple(column.dtype.value for column in batch.schema)
    columns = tuple(
        (
            vector.data.dtype.str,
            vector.data if vector.is_object else vector.data.tobytes(),
            None if np.count_nonzero(vector.valid) == len(vector.valid) else vector.valid.tobytes(),
            vector.dictionary,
        )
        for vector in batch.columns
    )
    body = pickle.dumps(
        (names, dtypes, batch.num_rows, columns), protocol=pickle.HIGHEST_PROTOCOL
    )
    return _HEADER.pack(COLUMNS, seq, batch.logical_bytes(), len(body)) + body


def frame_header(payload: bytes) -> tuple[bytes, int, int]:
    """``(kind, sequence number, logical bytes)`` of a frame, validated
    against the payload's length — any strict prefix of a frame, and any
    payload that is not a frame, raises :class:`FrameError`."""
    if len(payload) < _HEADER.size:
        raise FrameError(f"frame truncated inside its header ({len(payload)} bytes)")
    kind, seq, logical, body_length = _HEADER.unpack_from(payload)
    if kind not in (ROWS, COLUMNS):
        raise FrameError(f"unknown frame kind {kind!r}")
    if len(payload) - _HEADER.size != body_length:
        raise FrameError(
            f"frame body is {len(payload) - _HEADER.size} bytes, header says {body_length}"
        )
    return kind, seq, logical


def decode_block(payload: bytes):
    """Inverse of :func:`encode_block`: the block in the representation it
    was sent in — a list of row tuples or a ColumnBatch.  Raises
    :class:`FrameError` for any malformed payload; never returns a prefix
    of the rows."""
    kind, _seq, logical = frame_header(payload)
    try:
        if kind == COLUMNS:
            return _decode_columns(payload)
        rows = []
        offset, end = _HEADER.size, len(payload)
        while offset < end:
            (length,) = _LENGTH.unpack_from(payload, offset)
            offset += _LENGTH.size + length
            if offset > end:
                raise FrameError("row frame overruns its block")
            rows.append(pickle.loads(payload[offset - length : offset]))
    except FrameError:
        raise
    except Exception as exc:  # pickle documents no closed set of errors
        raise FrameError(f"frame body does not decode: {exc!r}") from exc
    if end - _HEADER.size - _LENGTH.size * len(rows) != logical:
        raise FrameError(f"rows do not total the header's {logical} logical bytes")
    return rows


def decode_col_block(payload: bytes) -> ColumnBatch:
    """:func:`decode_block` for a frame that must be columnar."""
    if frame_header(payload)[0] != COLUMNS:
        raise FrameError("not a columnar frame")
    return decode_block(payload)


def _decode_columns(payload: bytes) -> ColumnBatch:
    """The batch of a ``C`` frame.  Typed columns are read-only views of the
    frame's buffers (``np.frombuffer``); a column whose length is not the
    frame's row count raises :class:`FrameError`."""
    names, dtypes, num_rows, columns = pickle.loads(memoryview(payload)[_HEADER.size :])
    if len(names) != len(dtypes) or len(columns) != len(dtypes):
        raise FrameError("C frame column lists disagree in length")
    types = [DataType(d) for d in dtypes]
    vectors = []
    no_nulls = np.ones(num_rows, np.bool_)
    no_nulls.flags.writeable = False  # shared by the frame's NULL-free columns
    for dtype, (array_dtype, data, valid, dictionary) in zip(types, columns):
        if array_dtype != "|O":  # an object column ships its array
            data = np.frombuffer(data, dtype=np.dtype(array_dtype))
        valid = no_nulls if valid is None else np.frombuffer(valid, np.bool_)
        if len(data) != num_rows or len(valid) != num_rows:
            raise FrameError(f"C frame column of {len(data)} values in a {num_rows}-row batch")
        vectors.append(ColumnVector(dtype, data, valid, dictionary))
    return ColumnBatch.from_columns(Schema.of(*zip(names, types)), vectors, num_rows)


def block_logical_bytes(payload: bytes) -> int:
    """Accountable size of a stored record: a frame's logical bytes, read
    from its header.  Ledgers charge this instead of the wire length so
    byte accounting — and therefore simulated time — is invariant under
    re-batching.  Payloads that are not frames (the broker stores opaque
    records) are charged at their wire length."""
    try:
        return frame_header(payload)[2]
    except FrameError:
        return len(payload)
