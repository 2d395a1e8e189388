"""Per-viewer session state: credits, adaptive tier, and the viewer handle.

Delivery is credit-based, not blind broadcast: a session may have at most
``credit_limit`` frames in flight; each frame the viewer consumes returns
one credit as an ``ack`` control message.  A session out of credits
*drops* the frame immediately (the publisher never blocks on a slow
viewer), and the :class:`AdaptiveQualityController` watches those drops
and the ack drain rate to walk the session along the tier ladder —
congestion steps it toward cheaper tiers, a sustained clean streak steps
it back up.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.compress import Codec, get_codec
from repro.compress.context import CodecContext
from repro.devtools.guards import guarded_by
from repro.daemon.protocol import (
    ControlMessage,
    FrameMessage,
    ProtocolError,
    decode_message,
)
from repro.net.transport import ChannelClosed, FramedConnection
from repro.serve.stats import SessionStats, TierTransition
from repro.serve.tiers import TierLadder

__all__ = [
    "AdaptiveQualityController",
    "ViewerSession",
    "ViewerHandle",
    "ServedFrame",
    "FrameDecodeError",
]


class FrameDecodeError(ValueError):
    """A delivered frame could not be decoded (corrupted in flight).

    Subclasses :class:`ValueError` so pre-existing callers that caught
    decoder ``ValueError``s keep working, but gives resilience code one
    *typed* error to count instead of a broad ``except Exception``.
    """


class AdaptiveQualityController:
    """Hysteresis between tiers: quick to step down, slow to step up.

    ``step_down_after`` consecutive credit-exhausted drops demote the
    session one tier; ``step_up_after`` consecutive acked deliveries with
    no intervening drop promote it one.  Both streak counters reset on a
    step so one congestion episode moves at most one tier per threshold
    crossing.
    """

    def __init__(self, step_down_after: int = 2, step_up_after: int = 16):
        if step_down_after < 1 or step_up_after < 1:
            raise ValueError("thresholds must be >= 1")
        self.step_down_after = step_down_after
        self.step_up_after = step_up_after
        self._consecutive_drops = 0
        self._consecutive_acks = 0

    def on_dropped(self) -> int:
        """Record a drop; returns the tier delta to apply (0 or +1)."""
        self._consecutive_acks = 0
        self._consecutive_drops += 1
        if self._consecutive_drops >= self.step_down_after:
            self._consecutive_drops = 0
            return +1
        return 0

    def on_ack(self) -> int:
        """Record a consumed frame; returns the tier delta (0 or -1)."""
        self._consecutive_drops = 0
        self._consecutive_acks += 1
        if self._consecutive_acks >= self.step_up_after:
            self._consecutive_acks = 0
            return -1
        return 0


class ViewerSession:  # speaks: broker
    """Broker-side record of one connected viewer."""

    def __init__(
        self,
        name: str,
        conn: FramedConnection,
        ladder: TierLadder,
        credit_limit: int = 4,
        controller: AdaptiveQualityController | None = None,
        codec_context: CodecContext | None = None,
    ):
        if credit_limit < 1:
            raise ValueError("credit_limit must be >= 1")
        self.name = name
        self.conn = conn
        self.ladder = ladder
        self.credit_limit = credit_limit
        self.controller = controller or AdaptiveQualityController()
        #: the decode-side context shared with this session's ViewerHandle
        self.codec_context = codec_context or CodecContext()
        self._lock = threading.Lock()
        self.tier_index = 0  # guarded-by: _lock
        self.in_flight = 0  # guarded-by: _lock
        self.active = True  # guarded-by: _lock
        #: resume point for seek(): next frame id the viewer wants
        self.position = 0  # guarded-by: _lock
        #: highest frame id the viewer has acknowledged consuming
        self.last_acked = -1  # guarded-by: _lock
        #: frame ids replayed at resume time; a concurrent publish of
        #: one of these is a duplicate and must be suppressed (one-shot)
        self._resume_guard: set[int] = set()  # guarded-by: _lock
        self._stats = SessionStats(name=name, tier=ladder[0].name)  # guarded-by: _lock

    # -- reconnect/resume ----------------------------------------------------

    def restore(self, *, stats: SessionStats, tier_index: int,
                last_acked: int) -> None:
        """Carry state across a reconnect of the same logical viewer:
        cumulative counters, the adaptive tier, and the resume cursor."""
        with self._lock:
            stats.active = True
            stats.reconnects += 1
            self._stats = stats
            self.tier_index = self.ladder.clamp(tier_index)
            self._stats.tier = self.ladder[self.tier_index].name
            self.last_acked = last_acked
            self.position = last_acked + 1

    def arm_resume_guard(self, frame_ids) -> None:
        """Mark ``frame_ids`` as covered by the resume replay."""
        with self._lock:
            self._resume_guard.update(frame_ids)

    def pop_resume_guard(self, frame_id: int) -> bool:
        """True (once) if ``frame_id`` was already replayed at resume —
        the publish racing the rejoin must not deliver it twice."""
        with self._lock:
            if not self._resume_guard:
                return False
            if frame_id in self._resume_guard:
                self._resume_guard.discard(frame_id)
                return True
            if frame_id > max(self._resume_guard):
                # the stream moved past the replay window: disarm
                self._resume_guard.clear()
            return False

    # -- delivery ----------------------------------------------------------

    def offer(self, msg: FrameMessage) -> str:
        """Try to deliver one encoded frame; returns the outcome.

        ``"sent"``: a credit was available and the frame went out.
        ``"dropped"``: the viewer is out of credits (may demote the tier).
        ``"closed"``: the connection is gone.
        """
        with self._lock:
            if not self.active:
                return "closed"
            if self.in_flight >= self.credit_limit:
                self._stats.frames_dropped += 1
                self._apply_delta(self.controller.on_dropped(), msg.frame_id,
                                  "congestion")
                return "dropped"
            try:
                self.conn.send(msg.encode())
            except ChannelClosed:
                self.active = False
                self._stats.active = False
                return "closed"
            self.in_flight += 1
            self._stats.frames_sent += 1
            self._stats.bytes_sent += len(msg.payload)
            self.position = msg.frame_id + 1
            return "sent"

    def mark_skipped(self) -> None:
        """Count a stride-filtered frame (deliberate, not congestion)."""
        with self._lock:
            self._stats.frames_skipped += 1

    def on_ack(self, frame_id: int) -> None:
        """A credit came back: the viewer consumed ``frame_id``."""
        with self._lock:
            self.in_flight = max(0, self.in_flight - 1)
            self.last_acked = max(self.last_acked, frame_id)
            self._stats.acks += 1
            self._apply_delta(self.controller.on_ack(), frame_id, "recovered")

    @guarded_by("_lock")
    def _apply_delta(self, delta: int, frame_id: int, reason: str) -> None:
        if not delta:
            return
        new_index = self.ladder.clamp(self.tier_index + delta)
        if new_index == self.tier_index:
            return
        old = self.ladder[self.tier_index].name
        new = self.ladder[new_index].name
        self.tier_index = new_index
        self._stats.tier = new
        self._stats.transitions.append(
            TierTransition(frame_id=frame_id, from_tier=old, to_tier=new,
                           reason=reason)
        )
        try:  # tell the viewer which tier it is watching now
            self.conn.send(
                ControlMessage(tag="tier", params={"tier": new, "reason": reason})
                .encode()
            )
        except ChannelClosed:
            self.active = False
            self._stats.active = False

    def deactivate(self) -> None:
        with self._lock:
            self.active = False
            self._stats.active = False

    # -- locked accessors (the broker reads these cross-thread) -------------

    def is_active(self) -> bool:
        with self._lock:
            return self.active

    def current_tier_index(self) -> int:
        with self._lock:
            return self.tier_index

    def cursor(self) -> int:
        """Next frame id the viewer wants (the seek/resume point)."""
        with self._lock:
            return self.position

    def idle(self) -> bool:
        """True when nothing is in flight (or the session is gone)."""
        with self._lock:
            return self.in_flight == 0 or not self.active

    def resume_state(self) -> tuple[SessionStats, int, int]:
        """``(stats, tier_index, last_acked)`` read in one critical
        section, for parking an uncleanly-departed session."""
        with self._lock:
            return self._stats, self.tier_index, self.last_acked

    def stats_snapshot(self) -> SessionStats:
        with self._lock:
            return self._stats.copy(
                decode_context_hit_ratio=self.codec_context.hit_ratio(),
                active=self.active,
            )


@dataclass(frozen=True)
class ServedFrame:
    """One frame as the viewer receives it (``image`` is None when the
    handle was asked not to decode)."""

    frame_id: int
    time_step: int
    codec: str
    image: np.ndarray | None
    payload_bytes: int


class ViewerHandle:  # speaks: client
    """The viewer's end of a broker session.

    ``next_frame()`` blocks for the next delivered frame, decodes it with
    this session's persistent :class:`CodecContext`, and acks it — the
    ack is what returns the delivery credit, so a viewer that stops
    calling ``next_frame`` is, by construction, a slow viewer.
    """

    def __init__(self, name: str, conn: FramedConnection,
                 codec_context: CodecContext, resumed: bool = False):
        self.name = name
        self.conn = conn
        self.codec_context = codec_context
        self._codecs: dict[str, Codec] = {}
        #: most recent tier the broker told us we are watching
        self.current_tier: str | None = None
        #: True when this handle continues an earlier session's stream
        self.resumed = resumed
        #: ``(from, to)`` half-open id ranges the broker declared
        #: unrecoverable at resume (history evicted past our cursor) —
        #: the explicit signal that replaces a silent no-dup-no-skip
        #: violation.  Appended by the ``next_frame`` thread; read it
        #: from that consumer (or after the handle stops consuming).
        self.gaps: list[tuple[int, int]] = []
        #: well-formed control messages this handle has no handler for
        #: (same single-consumer access rule as ``gaps``)
        self.unknown_controls = 0
        self._closed = False

    def _decoder(self, name: str) -> Codec:
        codec = self._codecs.get(name)
        if codec is None:
            codec = get_codec(name)
            if hasattr(codec, "use_context"):
                codec.use_context(self.codec_context)
            self._codecs[name] = codec
        return codec

    def next_frame(
        self, timeout: float | None = 5.0, *, decode: bool = True
    ) -> ServedFrame:
        """Receive, decode, and ack the next frame.

        A frame mangled in flight raises :class:`FrameDecodeError`
        (whether the corruption hit the message envelope or the
        compressed payload); timeouts and closed connections keep their
        own exception types so callers can tell the three apart.

        ``decode=False`` acks without decompressing and returns the
        frame with ``image=None`` — for consumers that only need the
        stream's pacing (load generators, relays auditing delivery),
        where decoding every payload would measure the consumer's CPU
        instead of the server's.
        """
        while True:
            raw = self.conn.recv(timeout=timeout)
            try:
                msg = decode_message(memoryview(raw), copy=False)
            except ProtocolError as exc:
                raise FrameDecodeError(f"undecodable message: {exc}") from exc
            if isinstance(msg, FrameMessage):
                image = None
                if decode:
                    try:
                        image = self._decoder(msg.codec).decode_image(
                            msg.payload
                        )
                    except Exception as exc:
                        # any decoder failure on a wire-corrupted payload
                        # is re-raised typed — never swallowed, never
                        # broad at the call sites that count it
                        raise FrameDecodeError(
                            f"frame {msg.frame_id} ({msg.codec}): {exc}"
                        ) from exc
                self._ack(msg.frame_id)
                return ServedFrame(
                    frame_id=msg.frame_id,
                    time_step=msg.time_step,
                    codec=msg.codec,
                    image=image,
                    payload_bytes=len(msg.payload),
                )
            if isinstance(msg, ControlMessage) and msg.tag == "tier":
                self.current_tier = msg.params.get("tier")
            elif isinstance(msg, ControlMessage) and msg.tag == "gap":
                self.gaps.append(
                    (msg.params.get("from", 0), msg.params.get("to", 0))
                )
            else:
                # a tag this handle has no handler for: count it (the
                # protocol grows; a silent drop here hid real traffic
                # once) and keep consuming until a frame arrives
                self.unknown_controls += 1
                continue

    def _ack(self, frame_id: int) -> None:
        try:
            self.conn.send(
                ControlMessage(tag="ack", params={"frame_id": frame_id}).encode()
            )
        except ChannelClosed:
            pass

    def seek(self, frame_id: int) -> None:
        """Ask the broker to replay its recent history from ``frame_id``."""
        self.conn.send(
            ControlMessage(tag="seek", params={"frame_id": frame_id}).encode()
        )

    def leave(self) -> None:
        """Politely end the session (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.conn.send(ControlMessage(tag="leave").encode())
        except ChannelClosed:
            pass
        self.conn.close()

    close = leave

    def __enter__(self) -> "ViewerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.leave()
