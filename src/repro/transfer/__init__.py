"""Parallel streaming data transfer between the SQL and ML systems (§3).

The moving parts, matching Figure 2 of the paper:

1. each SQL worker executes the :class:`~repro.transfer.stream_udf.StreamTransferUDF`
   and *registers* with the long-standing
   :class:`~repro.transfer.coordinator.Coordinator` (worker id, IP, total
   workers, plus the ML command and arguments);
2. once all SQL workers are in, the coordinator *launches* the ML job;
3. the job's :class:`~repro.transfer.sqlstream.SQLStreamInputFormat` asks the
   coordinator for its InputSplits; the coordinator creates m = n·k splits in
   n groups, one group per SQL worker, each advertising that worker's IP as
   its location (the locality hint);
4-6. ML readers register back, the coordinator *matchmakes* SQL-worker IPs
   with ML-worker splits and hands both sides their channel endpoints;
7-8. blocks flow over :class:`~repro.transfer.channel.StreamChannel` objects
   with bounded buffers (paper default 4 KB) that *spill* instead of
   blocking when the ML side is slow — round-robin across each SQL worker's
   k channels.

One frame, one channel, one send loop.  Every stream block — up to
``batch_rows`` rows of the SQL worker's ColumnBatch — crosses as one
sequenced, length-checked ``C`` frame
(:func:`~repro.transfer.buffers.encode_block`); the same encoding sits in
spill files and broker records (``R`` frames of rows).  The one channel
class owns framing, byte accounting, replay dedup and close/abort/cancel,
and moves frames through a byte *pipe*: :class:`SpillableBuffer`
(``transport="memory"``) or one tag of the per-SQL-worker
:class:`~repro.transfer.socket_channel.MuxSocketTransport`
(``transport="socket"``).  The sender's one loop — plan ``(channel, seq,
row indices)`` triples, send each block — takes the §6 recovery wrapper
(heartbeat, kill site, retry, partial restart) around that same send.

The SQL output never touches the DFS, and the whole path is accounted under
``stream.*`` ledger categories.
"""

from repro.transfer.buffers import SpillableBuffer
from repro.transfer.channel import StreamChannel
from repro.transfer.coordinator import Coordinator, StreamSession
from repro.transfer.sqlstream import SQLStreamInputFormat, StreamSplit
from repro.transfer.stream_udf import StreamTransferUDF

__all__ = [
    "Coordinator",
    "SpillableBuffer",
    "SQLStreamInputFormat",
    "StreamChannel",
    "StreamSession",
    "StreamSplit",
    "StreamTransferUDF",
]
