"""The socket transport — §3's step 7 with real kernel sockets.

"Finally, the SQL workers and the ML workers establish the TCP socket
connections, before the actual data transfer starts."  The default
in-memory pipe models that; this module *is* it: each SQL worker owns one
connected socket pair shared by all of its channels (across every live
session — a single session on it is just a plain socket), the sender
writes length-prefixed tagged frames with a non-blocking socket whose send
buffer is sized to the configured buffer bytes, and — exactly like the
paper's design — a full send buffer does not block the SQL worker: the
overflow queues locally and is flushed as the ML side drains.

Select the transport per coordinator: ``Coordinator(..., transport="socket")``.
"""

import itertools
import socket
import struct
import threading
from collections import deque

from repro.common.errors import (
    ChannelAbortedError,
    ChannelTimeoutError,
    SessionCancelled,
    TransferError,
)
from repro.sim.clock import WALL

_MUX_FRAME = struct.Struct(">II")  # (payload length, tag)

#: Reserved tag for in-band control frames.  A control frame's payload
#: names the *target* data tag and a verb — CANCEL (cooperative cancellation
#: broadcast by ``cancel_session``) or ABORT (the producer died mid-stream)
#: — followed by the abort reason.  ``new_tag`` counts up from 0, so real
#: tags never collide with it.
_CONTROL_TAG = 0xFFFFFFFF
_CONTROL_PAYLOAD = struct.Struct(">IB")  # (target tag, verb)
_CANCEL, _ABORT = 0, 1


class MuxSocketTransport:
    """One shared socket pair carrying many tagged channel streams.

    With concurrent sessions, giving every ``(session, channel)`` pair its
    own socket pair multiplies file descriptors by the session count.  This
    transport keeps *one* connected pair per SQL worker and multiplexes all
    of that worker's channels — across every live session — over it, the way
    a real deployment shares one TCP connection per worker pair.

    Frame layout on the wire: an 8-byte ``(length, tag)`` header, then the
    payload.  A zero-length frame is the tag's EOF.  Integrity rules:

    * **byte-stream integrity** — a partially-written frame's remainder
      (``_wire_remainder``) is always flushed before any other bytes, so
      frames never interleave mid-payload;
    * **per-tag FIFO** — each tag's frames queue and flush in order;
    * **head-of-line isolation** — tags with queued overflow are pumped
      round-robin, so one session's backlog cannot monopolize the wire.

    Sending is serialized by a lock (senders are per-SQL-worker threads);
    receiving is a cooperative demux: whichever reader wants a frame pulls
    the socket (under a try-lock) and sorts frames into per-tag queues,
    waking the readers of every tag it delivered to.
    """

    def __init__(
        self,
        buffer_bytes: int = 4096,
        send_timeout_s: float = 30.0,
        clock=None,  # repro.sim.clock.Clock | None — flush/receive timing
    ):
        self._clock = clock or WALL
        send_sock, recv_sock = socket.socketpair()
        send_sock.setblocking(False)
        try:
            send_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
            recv_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)
        except OSError:
            pass  # kernels clamp/deny; the overflow path still engages
        self._send_sock = send_sock
        self._recv_sock = recv_sock
        self._send_timeout_s = send_timeout_s
        self._tag_ids = itertools.count()
        self._send_lock = threading.Lock()
        self._overflow: dict[int, deque[bytes]] = {}
        #: control frames (CANCEL/ABORT) jump the round-robin: they are pumped
        #: right after any blocked wire remainder, before data backlogs.
        self._control: deque[bytes] = deque()
        self._wire_remainder = b""
        self._wire_tag: int | None = None
        self._closed_tags: set[int] = set()
        self._transport_closed = False
        #: Notified whenever the wire may have drained (the receive pump
        #: freed kernel buffer space) or a flush should give up (tag
        #: released/cancelled, transport closed, session cancelled):
        #: ``close_tag`` waits here instead of busy-polling.
        self._drain_cond = threading.Condition()
        # receive side
        self._socket_lock = threading.Lock()
        self._recv_cond = threading.Condition()
        #: A live tag has an ``_overflow`` and a ``_frames`` queue from
        #: ``new_tag`` to ``release_tag``; a released tag is in neither, and
        #: its EOF and closed marks go too, so the per-tag state of a
        #: long-running transport is its live tags' (plus the CANCEL and
        #: ABORT marks, which stay sticky).
        self._frames: dict[int, deque[bytes]] = {}
        self._eof: set[int] = set()
        self._cancelled: set[int] = set()  # tags with a received CANCEL
        self._aborted: dict[int, str] = {}  # tag -> reason of a received ABORT
        self._stream_eof = False
        self._rbuf = b""

    # ----------------------------------------------------------- tag admin

    def new_tag(self) -> int:
        """Allocate a fresh stream tag."""
        tag = next(self._tag_ids)
        with self._send_lock:
            self._overflow[tag] = deque()
        with self._recv_cond:
            self._frames[tag] = deque()
        return tag

    # ------------------------------------------------------------ send side

    def send(self, tag: int, payload: bytes) -> int:
        """Write one frame for ``tag``; returns bytes that had to queue
        (the caller's spill accounting)."""
        frame = _MUX_FRAME.pack(len(payload), tag) + payload
        with self._send_lock:
            if not self._sendable(tag):
                raise TransferError(f"send on closed mux tag {tag}")
            self._pump_locked()
            queue = self._overflow[tag]
            if self._wire_remainder or queue or any(
                q for q in self._overflow.values()
            ):
                # FIFO per tag, and no overtaking a blocked wire: queue it.
                queue.append(frame)
                return len(frame)
            sent = self._try_send(frame)
            if sent < len(frame):
                self._wire_remainder = frame[sent:]
                self._wire_tag = tag
                return len(frame) - sent
            return 0

    def _sendable(self, tag: int) -> bool:
        """Whether ``tag`` is live and not closed (send lock held)."""
        return not self._transport_closed and tag in self._overflow and (
            tag not in self._closed_tags
        )

    def _try_send(self, data: bytes) -> int:
        try:
            return self._send_sock.send(data)
        except BlockingIOError:
            return 0

    def _pump_locked(self) -> None:
        """Flush queued frames without blocking.  Caller holds the send lock."""
        while True:
            if self._wire_remainder:
                sent = self._try_send(self._wire_remainder)
                if sent < len(self._wire_remainder):
                    self._wire_remainder = self._wire_remainder[sent:]
                    return
                self._wire_remainder = b""
                self._wire_tag = None
            while self._control:
                # Control frames outrank data backlogs: a cancel or abort
                # must not queue behind the very stream it is ending.
                frame = self._control[0]
                sent = self._try_send(frame)
                if sent == len(frame):
                    self._control.popleft()
                    continue
                if sent:
                    self._control.popleft()
                    self._wire_remainder = frame[sent:]
                    self._wire_tag = _CONTROL_TAG
                return  # kernel buffer full
            backlogged = [t for t, q in self._overflow.items() if q]
            if not backlogged:
                return
            progressed = False
            for tag in backlogged:  # round-robin: one frame per tag per pass
                queue = self._overflow[tag]
                if not queue:
                    continue
                frame = queue[0]
                sent = self._try_send(frame)
                if sent == len(frame):
                    queue.popleft()
                    progressed = True
                    continue
                if sent:
                    queue.popleft()
                    self._wire_remainder = frame[sent:]
                    self._wire_tag = tag
                return  # kernel buffer full
            if not progressed:
                return

    def _send_control(self, tag: int, verb: int, reason: str = "") -> None:
        """Send one control frame for ``tag``.  Never blocks — the frame
        rides the control queue, which outranks data backlogs."""
        payload = _CONTROL_PAYLOAD.pack(tag, verb) + reason.encode()
        frame = _MUX_FRAME.pack(len(payload), _CONTROL_TAG) + payload
        with self._send_lock:
            if not self._transport_closed:
                self._control.append(frame)
                self._pump_locked()
        # Local fast path: the receive pump may be idle (no reader pulling
        # the socket right now); mark the tag directly so waiters wake even
        # before the wire frame demuxes.
        with self._recv_cond:
            self._mark(tag, verb, reason)
            self._recv_cond.notify_all()
        self._notify_drain()

    def _mark(self, tag: int, verb: int, reason: str) -> None:
        """Apply a control verb on the receive side (``_recv_cond`` held)."""
        if verb == _CANCEL:
            self._cancelled.add(tag)
        elif verb == _ABORT:
            self._aborted.setdefault(tag, reason)

    def cancel_tag(self, tag: int) -> None:
        """Broadcast a CANCEL control frame for ``tag`` (cooperative
        cancellation).  The receive side marks the tag cancelled as soon as
        the frame demuxes: blocked and future ``recv`` calls on it raise
        :class:`SessionCancelled` instead of draining to EOF."""
        self._send_control(tag, _CANCEL)

    def abort_tag(self, tag: int, reason: str) -> None:
        """Poison ``tag``: its producer died mid-stream, so every blocked or
        future ``recv`` raises :class:`ChannelAbortedError` — frames already
        delivered are a truncated prefix and must never drain to a clean
        EOF.  The tag's unsent backlog is dropped, later sends raise, and a
        later ``close_tag`` is a no-op (sticky).  Idempotent."""
        with self._send_lock:
            queue = self._overflow.get(tag)
            if queue is not None:
                queue.clear()
                self._closed_tags.add(tag)
        self._send_control(tag, _ABORT, reason)

    def close_tag(self, tag: int, budget=None) -> None:
        """Flush the tag's queue and write its EOF frame (bounded wait).

        The EOF travels through the same overflow queue as data frames, and
        the wait loop *releases the send lock between pump passes*: a flush
        stalled on a slow reader must never hold ``_send_lock`` — other
        sessions keep allocating tags and sending through it, and the
        coordinator may need it (under its own lock) to plan a new session's
        channels.  Holding it here deadlocks the whole worker's mux.

        With a cancelled/expired ``budget`` the wait is skipped entirely:
        the session's reader is gone by definition, so blocking on it would
        wedge teardown — ``release_tag`` reclaims the queue instead.

        The between-pump wait parks on ``_drain_cond`` (notified by the
        receive pump freeing kernel buffer space, by tag release/cancel,
        and — via ``budget.on_cancel`` — by session cancellation), so a
        stalled flush costs no CPU and a cancel wakes it immediately.  The
        pump-and-check runs with ``_drain_cond`` held (notifiers take it
        without holding ``_send_lock``), so a notify cannot land between
        the check and the wait and be lost.
        """
        eof = _MUX_FRAME.pack(0, tag)
        with self._send_lock:
            if not self._sendable(tag):
                return
            self._closed_tags.add(tag)
            self._overflow[tag].append(eof)
        deadline = self._clock.now() + self._send_timeout_s
        dispose = (
            budget.on_cancel(self._notify_drain) if budget is not None else None
        )
        try:
            with self._drain_cond:
                while True:
                    with self._send_lock:
                        if self._transport_closed:
                            return
                        self._pump_locked()
                        queue = self._overflow.get(tag)
                        if not queue and self._wire_tag != tag:
                            return
                    if budget is not None and (budget.cancelled or budget.expired):
                        return  # reader cancelled; don't wedge teardown on flush
                    remaining = deadline - self._clock.now()
                    if remaining <= 0:
                        raise ChannelTimeoutError(
                            f"mux tag {tag} flush timed out after "
                            f"{self._send_timeout_s}s (reader gone?)"
                        )
                    self._clock.wait_on(self._drain_cond, min(remaining, 0.05))
        finally:
            if dispose is not None:
                dispose()

    def _notify_drain(self) -> None:
        with self._drain_cond:
            self._drain_cond.notify_all()

    def release_tag(self, tag: int) -> None:
        """Drop the tag's state on both sides (session teardown: unread
        frames are discarded, other tags are untouched)."""
        with self._send_lock:
            self._overflow.pop(tag, None)
            self._closed_tags.discard(tag)
        with self._recv_cond:
            self._frames.pop(tag, None)
            self._eof.discard(tag)
            self._recv_cond.notify_all()
        self._notify_drain()

    def close(self) -> None:
        """Tear down the shared pair (coordinator shutdown)."""
        with self._send_lock:
            self._transport_closed = True
            for sock in (self._send_sock, self._recv_sock):
                try:
                    sock.close()
                except OSError:
                    pass
        self._notify_drain()

    # --------------------------------------------------------- receive side

    def recv(
        self, tag: int, timeout: float | None = None, budget=None
    ) -> bytes | None:
        """Next payload for ``tag`` (None at the tag's EOF); ``timeout=None``
        waits without a flat bound.

        Cooperative demux: if another reader is already pulling the socket,
        wait on the condition it notifies; otherwise pull it ourselves and
        deliver frames to every tag's queue.  The wait proceeds in slices of
        at most 50 ms, and a session ``budget`` is re-checked every slice,
        so its expiry or cancel surfaces promptly as the typed
        ``DeadlineExceeded``/``SessionCancelled`` instead of the retryable
        flat-timeout error.
        """
        deadline = None if timeout is None else self._clock.now() + timeout
        while True:
            with self._recv_cond:
                if tag in self._aborted:
                    raise ChannelAbortedError(
                        f"stream aborted: {self._aborted[tag]}"
                    )
                if tag in self._cancelled:
                    raise SessionCancelled(
                        f"mux tag {tag} cancelled by coordinator CANCEL frame"
                    )
                queue = self._frames.get(tag)
                if queue:
                    return queue.popleft()
                if self._ended(tag):
                    return None
            if budget is not None:
                budget.check(f"mux tag {tag} receive")
            slice_s = 0.05
            if deadline is not None:
                remaining = deadline - self._clock.now()
                if remaining <= 0:
                    raise ChannelTimeoutError(
                        f"mux tag {tag} receive timed out after {timeout}s"
                    )
                slice_s = min(slice_s, remaining)
            if self._socket_lock.acquire(blocking=False):
                try:
                    self._pump_receive(slice_s)
                finally:
                    self._socket_lock.release()
            else:
                with self._recv_cond:
                    if not self._frames.get(tag) and not self._ended(tag):
                        self._clock.wait_on(self._recv_cond, slice_s)

    def _ended(self, tag: int) -> bool:
        """Whether ``tag`` has no more frames to come: its EOF arrived, it
        was released, or the whole stream ended (``_recv_cond`` held)."""
        return tag in self._eof or tag not in self._frames or self._stream_eof

    def _pump_receive(self, max_wait: float) -> None:
        try:
            if self._clock.is_virtual:
                # Virtual time: a real blocking recv would stall the whole
                # simulation; poll non-blocking and yield a clock tick when
                # the wire is idle.
                self._recv_sock.setblocking(False)
                try:
                    chunk = self._recv_sock.recv(65536)
                except BlockingIOError:
                    self._clock.sleep(max_wait)
                    return
            else:
                self._recv_sock.settimeout(max_wait)
                chunk = self._recv_sock.recv(65536)
        except socket.timeout:
            return
        except OSError:
            chunk = b""
        with self._recv_cond:
            if not chunk:
                self._stream_eof = True
                self._recv_cond.notify_all()
                return
            self._rbuf += chunk
            while len(self._rbuf) >= _MUX_FRAME.size:
                length, frame_tag = _MUX_FRAME.unpack_from(self._rbuf)
                if len(self._rbuf) < _MUX_FRAME.size + length:
                    break
                payload = self._rbuf[_MUX_FRAME.size : _MUX_FRAME.size + length]
                self._rbuf = self._rbuf[_MUX_FRAME.size + length :]
                if frame_tag == _CONTROL_TAG:
                    if length >= _CONTROL_PAYLOAD.size:
                        target, verb = _CONTROL_PAYLOAD.unpack_from(payload)
                        reason = payload[_CONTROL_PAYLOAD.size :].decode()
                        self._mark(target, verb, reason)
                elif frame_tag in self._frames:  # a released tag's frames drop
                    if length == 0:
                        self._eof.add(frame_tag)
                    else:
                        self._frames[frame_tag].append(payload)
            self._recv_cond.notify_all()
        # Bytes left the kernel buffer: blocked close_tag flushes can retry.
        self._notify_drain()


class MuxPipe:
    """One tag of a :class:`MuxSocketTransport` as the byte pipe of a
    :class:`~repro.transfer.channel.StreamChannel`."""

    def __init__(
        self,
        transport: MuxSocketTransport,
        budget=None,  # Budget | None — bounds receives and the close flush
    ):
        self._transport = transport
        self._budget = budget
        self._tag = transport.new_tag()

    def put(self, payload: bytes) -> int:
        return self._transport.send(self._tag, payload)

    def get(self, timeout: float | None = None) -> bytes | None:
        return self._transport.recv(self._tag, timeout, budget=self._budget)

    def close(self) -> None:
        self._transport.close_tag(self._tag, budget=self._budget)

    def abort(self, reason: str) -> None:
        self._transport.abort_tag(self._tag, reason)

    def cancel(self) -> None:
        self._transport.cancel_tag(self._tag)

    def discard(self) -> None:
        self._transport.release_tag(self._tag)
