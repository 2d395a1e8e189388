"""Per-consumer session state: credits, adaptive tier, the viewer handle
and the one rejoin policy.

Delivery is credit-based, not blind broadcast: a :class:`Session` may
have at most ``credit_limit`` frames in flight; each frame the viewer
consumes returns one credit as an ``ack`` control message.  At the
origin a :class:`ViewerSession` out of credits *drops* the frame
immediately (the publisher never blocks on a slow viewer), and the
:class:`AdaptiveQualityController` watches those drops and the ack
drain rate to walk the session along the tier ladder — congestion steps
it toward cheaper tiers, a sustained clean streak steps it back up.

The client side is :class:`ViewerHandle`, and :func:`rejoin` is how any
client — a scenario viewer with a pool of relays, a relay with its one
upstream — gets a new handle after its link was cut.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.compress import Codec
from repro.compress.context import CodecContext, bound_codec
from repro.devtools.guards import guarded_by
from repro.daemon.protocol import (
    ControlMessage,
    FrameMessage,
    Message,
    ProtocolError,
    decode_message,
)
from repro.net.transport import ChannelClosed, FramedConnection
from repro.serve.stats import SessionStats, TierTransition
from repro.serve.tiers import TierLadder

__all__ = [
    "AdaptiveQualityController",
    "Session",
    "ViewerSession",
    "ViewerHandle",
    "ServedFrame",
    "FrameDecodeError",
    "rejoin",
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


class Session:
    """Host-side record of one downstream consumer — the part the origin
    broker and the edge relay share: the connection, the credit window
    (``in_flight`` against ``credit_limit``), the highest acked id, and
    the cumulative :class:`SessionStats` that survive a reconnect.

    What the tiers do *not* share is delivery policy, which the two
    subclasses add: :class:`ViewerSession` drops on no credit and adapts
    the tier, :class:`repro.relay.daemon.RelaySession` waits.

    Invariant: an inactive session's connection is closed — whether
    the host retired it (:meth:`deactivate`) or :meth:`_send` found the
    link dead.  Closing is what wakes the host's control pump, blocked
    in ``recv``, to park the session.
    """

    def __init__(self, name: str, conn: FramedConnection, credit_limit: int,
                 *, tier: str, start: int = 0):
        if credit_limit < 1:
            raise ValueError("credit_limit must be >= 1")
        self.name = name
        self.conn = conn
        self.credit_limit = credit_limit
        self._lock = threading.Lock()
        self.active = True  # guarded-by: _lock
        self.in_flight = 0  # guarded-by: _lock
        #: highest frame id the consumer has acknowledged
        self.last_acked = start - 1  # guarded-by: _lock
        self._stats = SessionStats(name=name, tier=tier)  # guarded-by: _lock

    # -- the wire ------------------------------------------------------------

    @guarded_by("_lock")
    def _send(self, msg: Message) -> bool:
        """Put one message on the wire; False when the link is gone (the
        one place a session send is allowed to fail)."""
        if not self.active:
            return False
        try:
            self.conn.send(msg.encode())
        except ChannelClosed:
            self._deactivate()
            return False
        return True

    @guarded_by("_lock")
    def _send_frame(self, msg: FrameMessage) -> bool:
        """:meth:`_send` plus the credit and byte accounting."""
        if not self._send(msg):
            return False
        self.in_flight += 1
        self._stats.frames_sent += 1
        self._stats.bytes_sent += len(msg.payload)
        return True

    def send_control(self, tag: str, params: dict) -> bool:
        """Send one control message; False when the link is gone."""
        with self._lock:
            return self._send(ControlMessage(tag=tag, params=params))

    def on_ack(self, frame_id: int) -> None:
        """A credit came back: the consumer took ``frame_id``."""
        with self._lock:
            self.in_flight = max(0, self.in_flight - 1)
            self.last_acked = max(self.last_acked, frame_id)
            self._stats.acks += 1

    # -- lifecycle (driven by the session host) ------------------------------

    def restore(self, start: int, stats: SessionStats | None = None) -> None:
        """Continue an earlier stream at frame ``start``.  ``stats`` are
        the cumulative counters parked when this name last lost its
        link; ``None`` when only the client remembers the stream (it
        rejoined a host that never saw it)."""
        with self._lock:
            if stats is not None:
                stats.active = True
                stats.reconnects += 1
                self._stats = stats
            self.last_acked = start - 1

    @guarded_by("_lock")
    def _deactivate(self) -> None:
        self.active = False
        self._stats.active = False
        self.conn.close()

    def deactivate(self) -> None:
        """Stop delivering and close the connection."""
        with self._lock:
            self._deactivate()

    def is_active(self) -> bool:
        with self._lock:
            return self.active

    def resume_state(self) -> tuple[SessionStats, int]:
        """``(stats, next frame id the consumer needs)`` read in one
        critical section, for parking an uncleanly-departed session."""
        with self._lock:
            return self._stats, self.last_acked + 1

    def stats_snapshot(self) -> SessionStats:
        with self._lock:
            return self._stats.copy(active=self.active)


class ViewerSession(Session):  # speaks: broker
    """Broker-side session: drops a frame when the viewer is out of
    credits, and lets the drops and acks walk it along the tier ladder."""

    def __init__(
        self,
        name: str,
        conn: FramedConnection,
        ladder: TierLadder,
        credit_limit: int = 4,
        controller: AdaptiveQualityController | None = None,
        codec_context: CodecContext | None = None,
    ):
        super().__init__(name, conn, credit_limit, tier=ladder[0].name)
        self.ladder = ladder
        self.controller = controller or AdaptiveQualityController()
        #: the decode-side context shared with this session's ViewerHandle
        self.codec_context = codec_context or CodecContext()
        self.tier_index = 0  # guarded-by: _lock
        #: frame ids replayed at resume time; a concurrent publish of
        #: one of these is a duplicate and must be suppressed (one-shot)
        self._resume_guard: set[int] = set()  # guarded-by: _lock

    # -- reconnect/resume ----------------------------------------------------

    def restore(self, start: int, stats: SessionStats | None = None) -> None:
        """Also carries the adaptive tier across the reconnect."""
        super().restore(start, stats)
        if stats is not None:
            with self._lock:
                self.tier_index = self.ladder.index_of(stats.tier)

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
            return "sent" if self._send_frame(msg) else "closed"

    def mark_skipped(self) -> None:
        """Count a stride-filtered frame (deliberate, not congestion)."""
        with self._lock:
            self._stats.frames_skipped += 1

    def on_ack(self, frame_id: int) -> None:
        """The returned credit also feeds the adaptive controller."""
        super().on_ack(frame_id)
        with self._lock:
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
        # tell the viewer which tier it is watching now
        self._send(ControlMessage(tag="tier",
                                  params={"tier": new, "reason": reason}))

    # -- locked accessors (the broker reads these cross-thread) -------------

    def current_tier_index(self) -> int:
        with self._lock:
            return self.tier_index

    def idle(self) -> bool:
        """True when nothing is in flight (or the session is gone)."""
        with self._lock:
            return self.in_flight == 0 or not self.active

    def stats_snapshot(self) -> SessionStats:
        return replace(
            super().stats_snapshot(),
            decode_context_hit_ratio=self.codec_context.hit_ratio(),
            decode_cache_bytes=self.codec_context.code_bytes,
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
        self._codecs: dict[tuple[str, None], Codec] = {}
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
                        image = bound_codec(
                            self._codecs, self.codec_context, msg.codec
                        ).decode_image(msg.payload)
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


def rejoin(stale: ViewerHandle, targets, at: int, stop: threading.Event,
           join, timeout: float = 5.0):
    """The one rejoin policy: after a cut link, get a new handle from
    ``targets[at]`` or, failing that, from the next target that is open.

    ``join(target)`` makes one attempt (the caller binds its name, its
    fault plan and ``resume_from`` = the next frame id it needs).
    Returns ``(handle, at)`` — ``at`` differs from the argument after a
    failover — or ``None`` when giving up: ``stop`` was set, ``timeout``
    ran out, or the only target is closed.

    The loop never spins: a target that still holds the dead session
    (``ValueError``: not reaped yet) is retried after a 5 ms wait on
    ``stop``; a closed target (``RuntimeError``) rotates to the next
    one, with one 10 ms wait per full rotation.
    """
    # the session died with the link, but the client-side channel lives
    # until closed; leave() would also drop the parked resume state of a
    # target that is merely wedged, so close just the transport
    stale.conn.close()
    first = at
    deadline = time.monotonic() + timeout
    while not stop.is_set() and time.monotonic() < deadline:
        try:
            return join(targets[at]), at
        except ValueError:
            stop.wait(0.005)
        except RuntimeError:
            at = (at + 1) % len(targets)
            if at == first:
                if len(targets) == 1:
                    return None  # nowhere else to go
                stop.wait(0.01)
    return None
