"""Functional byte transport for the display-daemon framework.

In the paper the renderer interface, display daemon and display interface
are separate programs connected by TCP sockets.  Here they run in one
process connected by :class:`Channel` pairs — thread-safe, ordered,
blocking byte-frame queues — so the framework's real logic (framing,
routing, callbacks) executes unchanged while a :class:`TrafficLog`
records every frame's size for post-hoc cost accounting against a
:class:`~repro.sim.cluster.WanRoute`.

Long-running streaming sessions cross millions of frames, so the log
keeps only a rolling window of individual sizes (:class:`SizeWindow`)
while the byte/frame totals keep counting everything that ever crossed
the connection.

Endpoints never retransmit: a channel or a socket either delivers a
frame or fails for good.  Loss exists only on a WAN-shaped link, and
:class:`~repro.net.faults.FaultyConnection` retransmits it there, under
a :class:`RetryPolicy`, before giving up with :class:`ChannelClosed`.
Blocking is always bounded: ``send`` and ``recv`` both accept a
per-operation timeout, and an endpoint-level ``op_timeout`` applies when
a call does not pass one explicitly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.sim.cluster import WanRoute

__all__ = [
    "Channel",
    "FramedConnection",
    "TrafficLog",
    "TrafficSnapshot",
    "SizeWindow",
    "ChannelClosed",
    "RetryPolicy",
]


class ChannelClosed(ConnectionError):
    """The peer closed the connection."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for retransmitting frames a lossy link lost.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retransmission entirely.  The delay before attempt *k* (k >= 2) is
    ``backoff_s * multiplier**(k-2)`` capped at ``max_backoff_s``.
    """

    max_attempts: int = 4
    backoff_s: float = 0.002
    multiplier: float = 2.0
    max_backoff_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_before(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        return min(self.backoff_s * self.multiplier ** (attempt - 1),
                   self.max_backoff_s)

    @classmethod
    def none(cls) -> "RetryPolicy":
        return cls(max_attempts=1)


class SizeWindow(list):
    """A frame-size list capped to a rolling window, with running totals.

    Behaves like a plain ``list`` of the most recent ``window`` sizes
    (``append``/``pop``/iteration/equality all work), but keeps
    ``total_bytes``/``total_frames`` aggregates over *everything* ever
    appended, so a day-long streaming session neither loses its byte
    accounting nor grows without bound.  ``pop`` (used to un-log
    connection bookkeeping such as handshake acks) rolls the aggregates
    back; window eviction does not.
    """

    #: default number of retained per-frame sizes
    DEFAULT_WINDOW = 4096

    def __init__(self, iterable=(), window: int = DEFAULT_WINDOW):
        super().__init__(iterable)
        self.window = window
        self.total_bytes = sum(self)
        self.total_frames = len(self)
        self._trim()

    def append(self, n: int) -> None:
        super().append(n)
        self.total_bytes += n
        self.total_frames += 1
        self._trim()

    def pop(self, index: int = -1) -> int:
        n = super().pop(index)
        self.total_bytes -= n
        self.total_frames -= 1
        return n

    def _trim(self) -> None:
        # amortized O(1): trim in chunks, not one element per append
        if self.window and len(self) > 2 * self.window:
            del self[: len(self) - self.window]


@dataclass(frozen=True)
class TrafficSnapshot:
    """An atomic point-in-time copy of a :class:`TrafficLog`.

    Taken in one critical section, so the byte and frame totals are
    mutually consistent — a live log mutated by a pump thread can show
    ``bytes_sent`` from one frame and ``frames_sent`` from the next.
    """

    bytes_sent: int
    bytes_received: int
    frames_sent: int
    frames_received: int
    retransmits: int
    recent_sent: tuple[int, ...]
    recent_received: tuple[int, ...]


@dataclass
class TrafficLog:
    """Sizes of frames that crossed a connection, by direction.

    ``sent``/``received`` retain only the most recent ``window`` sizes;
    ``bytes_sent``/``bytes_received`` (and the ``frames_*`` counters)
    aggregate over the whole connection lifetime.  ``retransmits``
    counts the lost send attempts a lossy link retransmitted.

    A sender and a receiver thread log concurrently, so all mutation
    goes through the ``note_*`` methods, which serialize on an internal
    lock; :meth:`snapshot` returns an atomic copy of the aggregates.
    """

    sent: SizeWindow | None = None  # guarded-by: _lock
    received: SizeWindow | None = None  # guarded-by: _lock
    window: int = SizeWindow.DEFAULT_WINDOW
    retransmits: int = 0  # guarded-by: _lock

    def __post_init__(self) -> None:
        self.sent = SizeWindow(self.sent or (), window=self.window)
        self.received = SizeWindow(self.received or (), window=self.window)
        self._lock = threading.Lock()

    def note_sent(self, nbytes: int) -> None:
        with self._lock:
            self.sent.append(nbytes)

    def note_received(self, nbytes: int) -> None:
        with self._lock:
            self.received.append(nbytes)

    def note_retransmit(self) -> None:
        with self._lock:
            self.retransmits += 1

    def unlog_received(self) -> int:
        """Roll back the most recent received frame (connection
        bookkeeping such as handshake acks, not caller traffic)."""
        with self._lock:
            return self.received.pop()

    @property
    def bytes_sent(self) -> int:
        with self._lock:
            return self.sent.total_bytes

    @property
    def bytes_received(self) -> int:
        with self._lock:
            return self.received.total_bytes

    @property
    def frames_sent(self) -> int:
        with self._lock:
            return self.sent.total_frames

    @property
    def frames_received(self) -> int:
        with self._lock:
            return self.received.total_frames

    def snapshot(self) -> TrafficSnapshot:
        """All aggregates copied in one critical section."""
        with self._lock:
            return TrafficSnapshot(
                bytes_sent=self.sent.total_bytes,
                bytes_received=self.received.total_bytes,
                frames_sent=self.sent.total_frames,
                frames_received=self.received.total_frames,
                retransmits=self.retransmits,
                recent_sent=tuple(self.sent),
                recent_received=tuple(self.received),
            )

    def replay_transfer_s(self, route: WanRoute) -> float:
        """Total time the *retained* sent frames would take on ``route``."""
        with self._lock:
            sizes = tuple(self.sent)
        return sum(route.transfer_s(n) for n in sizes)


class Channel:
    """One direction of a connection: an ordered queue of byte frames.

    With ``maxsize > 0`` the channel is a bounded pipe: ``send`` blocks
    while the peer's backlog is full, which is how a slow consumer
    exerts backpressure on its pump thread.  Blocked senders and
    receivers wake on a shared :class:`threading.Condition` — queue
    space, frame arrival, and close all notify, so nobody burns CPU in a
    poll loop and pump threads always join promptly.
    """

    def __init__(self, maxsize: int = 0):
        self._maxsize = maxsize
        self._cond = threading.Condition()
        self._items: deque[bytes] = deque()  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond

    def send(self, frame: bytes, timeout: float | None = None) -> None:
        data = bytes(frame)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise ChannelClosed("send on closed channel")
                if not self._maxsize or len(self._items) < self._maxsize:
                    self._items.append(data)
                    self._cond.notify_all()
                    return
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("send timed out")
                self._cond.wait(remaining)

    def recv(self, timeout: float | None = None) -> bytes:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._items:
                    item = self._items.popleft()
                    self._cond.notify_all()  # wake a blocked sender
                    return item
                if self._closed:
                    raise ChannelClosed("channel closed by peer")
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("recv timed out")
                self._cond.wait(remaining)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed


class FramedConnection:
    """A bidirectional framed connection endpoint with traffic logging.

    ``op_timeout`` bounds any ``send``/``recv`` that does not pass an
    explicit timeout; ``None`` keeps the classic block-until-closed
    behaviour.  Other transports (``TcpConnection``) subclass it and
    supply only their raw ops and ``close``.
    """

    def __init__(
        self,
        out_channel: Channel,
        in_channel: Channel,
        name: str = "",
        op_timeout: float | None = None,
    ):
        self._out = out_channel
        self._in = in_channel
        self.name = name
        self.op_timeout = op_timeout
        self.traffic = TrafficLog()

    @classmethod
    def pair(
        cls, a_name: str = "a", b_name: str = "b", maxsize: int = 0
    ) -> tuple["FramedConnection", "FramedConnection"]:
        """Two connected endpoints (like ``socket.socketpair``)."""
        ab = Channel(maxsize=maxsize)
        ba = Channel(maxsize=maxsize)
        return cls(ab, ba, a_name), cls(ba, ab, b_name)

    # -- raw ops (override points for other transports) ----------------------

    def _send_raw(self, frame: bytes, timeout: float | None) -> None:
        self._out.send(frame, timeout=timeout)

    def _recv_raw(self, timeout: float | None) -> bytes:
        return self._in.recv(timeout=timeout)

    # -- public API ----------------------------------------------------------

    def send(self, frame: bytes, timeout: float | None = None) -> None:
        if timeout is None:
            timeout = self.op_timeout
        self._send_raw(frame, timeout)
        self.traffic.note_sent(len(frame))

    def recv(self, timeout: float | None = None) -> bytes:
        if timeout is None:
            timeout = self.op_timeout
        frame = self._recv_raw(timeout)
        self.traffic.note_received(len(frame))
        return frame

    def close(self) -> None:
        self._out.close()
        self._in.close()
