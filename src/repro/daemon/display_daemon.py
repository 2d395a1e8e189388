"""The display daemon: routes frames renderer→display and control back.

One pump thread per connection.  Frames from renderer connections are
buffered per display connection ("the display daemon uses an image buffer
to cope with faster rendering rates"); when a display falls behind and
its buffer fills, the oldest *complete* frames are dropped, keeping the
viewer current — the behaviour an interactive system wants over a slow
WAN.  Control messages from displays fan out to every renderer connection
(the "remote callback" path), and the daemon itself answers
``set_codec``/``start_renderer`` tags by forwarding them, per §4.1.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.daemon.protocol import (
    ControlMessage,
    FrameMessage,
    HelloMessage,
    Message,
    decode_message,
)
from repro.net.transport import ChannelClosed, FramedConnection

__all__ = ["DisplayDaemon"]


class DisplayDaemon:
    """In-process display daemon.

    Parameters
    ----------
    buffer_frames:
        Per-display image-buffer capacity in *frame ids* (0 = unbounded).
        When full, the oldest buffered frame id is dropped whole (all its
        pieces), never a partial frame.
    """

    def __init__(self, buffer_frames: int = 8):
        self.buffer_frames = buffer_frames
        self._lock = threading.Lock()
        self._renderers: list[FramedConnection] = []  # guarded-by: _lock
        self._displays: list[_DisplayPort] = []  # guarded-by: _lock
        self._threads: list[threading.Thread] = []  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        #: frame ids dropped because a display buffer overflowed
        self.dropped_frames = 0  # guarded-by: _lock
        #: well-formed messages of a kind this daemon cannot route
        self.unknown_messages = 0  # guarded-by: _lock

    # -- wiring ------------------------------------------------------------

    def connect(self, conn: FramedConnection, role: str, name: str = "") -> None:
        """Attach a connection whose peer plays ``role``.

        Equivalent to the peer sending a ``HelloMessage`` on a listening
        socket; interfaces call this through their constructor.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("connect() on a closed DisplayDaemon")
        if role == "renderer":
            with self._lock:
                self._renderers.append(conn)
            self._spawn(self._pump_renderer, conn)
        elif role == "display":
            port = _DisplayPort(conn, self.buffer_frames)
            with self._lock:
                self._displays.append(port)
            self._spawn(self._pump_display_control, port)
            self._spawn(self._pump_display_frames, port)
        else:
            raise ValueError(f"unknown role {role!r}")

    def _spawn(self, target, *args) -> None:
        t = threading.Thread(target=target, args=args, daemon=True)
        with self._lock:
            if self._closed:
                raise RuntimeError("connect() raced with close()")
            # prune finished pumps so a long-lived daemon serving many
            # transient peers does not accumulate dead Thread objects
            self._threads = [p for p in self._threads if p.is_alive()]
            self._threads.append(t)
        t.start()

    # -- pumps ---------------------------------------------------------------

    def _pump_renderer(self, conn: FramedConnection) -> None:
        """Renderer → daemon: offer every frame piece to every display."""
        while True:
            try:
                msg = decode_message(conn.recv())
            except (ChannelClosed, TimeoutError):
                return
            if isinstance(msg, FrameMessage):
                with self._lock:
                    displays = list(self._displays)
                dropped = sum(port.offer(msg) for port in displays)
                if dropped:
                    with self._lock:
                        self.dropped_frames += dropped
            elif isinstance(msg, HelloMessage):
                continue  # registration handled in connect()
            elif isinstance(msg, ControlMessage):
                # renderer-originated status messages go to displays
                self._broadcast_to_displays(msg)
            else:
                # decode_message grew a kind this pump predates: count
                # it so a protocol extension is never silently eaten
                with self._lock:
                    self.unknown_messages += 1

    def _pump_display_control(self, port: "_DisplayPort") -> None:
        """Display → daemon: forward control to all renderer interfaces."""
        while True:
            try:
                msg = decode_message(port.conn.recv())
            except (ChannelClosed, TimeoutError):
                return
            if isinstance(msg, ControlMessage):
                with self._lock:
                    renderers = list(self._renderers)
                for rconn in renderers:
                    try:
                        rconn.send(msg.encode())
                    except ChannelClosed:
                        pass

    def _pump_display_frames(self, port: "_DisplayPort") -> None:
        """Daemon → display: drain this display's frame buffer in order."""
        while True:
            msg = port.take()
            if msg is None:
                return
            try:
                port.conn.send(msg.encode())
            except ChannelClosed:
                return

    def _broadcast_to_displays(self, msg: Message) -> None:
        with self._lock:
            displays = list(self._displays)
        for port in displays:
            try:
                port.conn.send(msg.encode())
            except ChannelClosed:
                pass

    # -- lifecycle ----------------------------------------------------------

    def close(self, join_timeout: float = 5.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            renderers = list(self._renderers)
            displays = list(self._displays)
            threads = list(self._threads)
            self._threads = []
        for conn in renderers:
            conn.close()
        for port in displays:
            port.shutdown()
            port.conn.close()
        # bounded join of every pump so tests never leak threads between
        # cases; a pump that outlives the timeout is a bug worth seeing
        for t in threads:
            t.join(timeout=join_timeout)

    def __enter__(self) -> "DisplayDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _DisplayPort:
    """Per-display outbound frame buffer with whole-frame drop policy.

    Pieces are grouped per frame id as they arrive, so enforcing the
    frame-count cap never rescans the whole backlog: the victim is the
    minimum of at most ``buffer_frames + 1`` keys, and evicting it drops
    exactly that frame's piece deque — O(pieces of the victim), not
    O(total buffered pieces²).
    """

    def __init__(self, conn: FramedConnection, buffer_frames: int):
        self.conn = conn
        self.buffer_frames = buffer_frames
        self._cond = threading.Condition()
        # insertion-ordered: frame id -> its buffered pieces
        self._by_frame: dict[int, deque[FrameMessage]] = {}  # guarded-by: _cond
        self._shutdown = False  # guarded-by: _cond

    def offer(self, msg: FrameMessage) -> int:
        """Queue a frame piece; returns how many frames were dropped."""
        dropped = 0
        with self._cond:
            self._by_frame.setdefault(msg.frame_id, deque()).append(msg)
            if self.buffer_frames:
                while len(self._by_frame) > self.buffer_frames:
                    victim = min(self._by_frame)
                    del self._by_frame[victim]
                    dropped += 1
            self._cond.notify_all()
        return dropped

    def take(self) -> FrameMessage | None:
        with self._cond:
            while not self._by_frame and not self._shutdown:
                self._cond.wait(timeout=0.5)
            if self._by_frame:
                fid = next(iter(self._by_frame))
                pieces = self._by_frame[fid]
                msg = pieces.popleft()
                if not pieces:
                    del self._by_frame[fid]
                return msg
            return None

    def shutdown(self) -> None:
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
