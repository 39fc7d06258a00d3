"""``SQLStreamInputFormat`` — the ML-side half of the streaming transfer.

"The only change she has to make is to use our specialized
SQLStreamInputFormat in the ML job configuration."  It implements the exact
same :class:`~repro.iofmt.inputformat.InputFormat` contract as the DFS text
formats; ``get_splits`` delegates to the coordinator's split planning
(step 3) and each record reader registers back (step 4) to receive its
channel endpoint (step 6) and then just iterates rows (step 8).

Required job configuration: ``stream.session`` property and a
``coordinator`` object.
"""

from dataclasses import dataclass

from repro.iofmt.inputformat import InputFormat, InputSplit, JobConf, RecordReader
from repro.transfer.channel import ChannelId, StreamChannel
from repro.transfer.coordinator import Coordinator


@dataclass(frozen=True)
class StreamSplit(InputSplit):
    """One matched channel, advertising its SQL worker's IP for locality."""

    session_id: str
    channel_id: ChannelId
    location_ip: str

    def locations(self) -> tuple[str, ...]:
        return (self.location_ip,)

    def length(self) -> int:
        return 0  # unknown until streamed; readers report bytes_read instead


class StreamRecordReader(RecordReader):
    """Drains one channel until EOF; exposes ``bytes_read`` for accounting.

    :meth:`blocks` yields each frame in the representation the sender
    framed it (a row list or a ColumnBatch); iterating yields rows.
    """

    def __init__(
        self,
        channel: StreamChannel,
        timeout_s: float,
        injector=None,
        session_id: str = "",
    ):
        self._channel = channel
        self._timeout_s = timeout_s
        self._injector = injector  # FaultInjector | None (§6 ML-side chaos)
        self._session_id = session_id  # kill-site scope (per-session one-shot)
        self.bytes_read = 0
        self.rows_read = 0

    def blocks(self):
        """Each received block as one record: a row frame's list of rows or
        a columnar frame's ColumnBatch, intact."""
        # Drain whole frames: one receive (one lock acquisition / frame
        # decode) per block, regardless of how many rows it carries.
        while True:
            before = self._channel.bytes_received
            block = self._channel.receive_block(timeout=self._timeout_s)
            if block is None:
                return
            self.bytes_read += self._channel.bytes_received - before
            self.rows_read += len(block)
            if self._injector is not None:
                self._injector.check_ml_kill(
                    self._channel.channel_id.index,
                    self.rows_read,
                    scope=self._session_id,
                )
            yield block

    def __iter__(self):
        for block in self.blocks():
            yield from block if isinstance(block, list) else block.to_rows()


class SQLStreamInputFormat(InputFormat):
    """The job-config-level swap-in replacing DFS input with live channels."""

    def get_splits(self, conf: JobConf, num_splits: int) -> list[InputSplit]:
        coordinator: Coordinator = conf.require_object("coordinator")
        session_id = conf.get("stream.session")
        if not session_id:
            raise ValueError("SQLStreamInputFormat needs the 'stream.session' property")
        # §3: m is taken from the algorithm only when it *pre-specifies* a
        # split count (the stream.num_splits property); otherwise the
        # coordinator chooses m = n * k.  The generic num_splits hint that
        # file formats use is deliberately ignored here.
        requested = conf.get("stream.num_splits")
        channel_ids = coordinator.plan_input_splits(
            session_id, int(requested) if requested else None
        )
        # One batched location lookup instead of n*k round-trips: under HA
        # every handshake crosses the failover proxy (leader resolution +
        # chaos sites), so the m per-split calls would multiply that cost.
        locations = coordinator.split_locations(session_id, channel_ids)
        return [
            StreamSplit(
                session_id=session_id,
                channel_id=cid,
                location_ip=locations[cid],
            )
            for cid in channel_ids
        ]

    def create_record_reader(self, split: InputSplit, conf: JobConf) -> RecordReader:
        if not isinstance(split, StreamSplit):
            raise TypeError(f"SQLStreamInputFormat cannot read {type(split).__name__}")
        coordinator: Coordinator = conf.require_object("coordinator")
        channel = coordinator.register_ml_worker(split.session_id, split.channel_id)
        timeout_s = float(conf.get("stream.timeout_s", coordinator.timeout_s))
        recovery = coordinator.recovery
        injector = recovery.injector if recovery is not None else None
        return StreamRecordReader(
            channel, timeout_s, injector=injector, session_id=split.session_id
        )
