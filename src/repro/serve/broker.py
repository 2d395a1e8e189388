"""The session broker: many viewers, one encode per (frame, tier).

The paper's display daemon exists so one remote parallel renderer can
feed viewers across a WAN (§4.1); the broker is the serving layer grown
on top of that framework.  A renderer (or any frame source) publishes
assembled frames once; the broker encodes each published frame at most
once per quality tier *in use* — through the shared content-addressed
:class:`~repro.serve.cache.FrameCache` — and delivers to every session
under credit-based backpressure, so total encode work is a function of
the tier mix, never of the viewer count.

Viewers join and leave at any time — membership, the per-session
control pump and park-and-resume are the
:class:`~repro.serve.host.SessionHost`'s, shared with the edge relay;
what the broker plugs in is *replay*.  A ``seek`` control replays the
broker's recent raw-frame history from the requested frame id at the
session's current tier (replays of cached tiers are pure cache hits).

A viewer whose connection dies uncleanly (a WAN cut, an injected
:class:`~repro.net.faults.FaultPlan` disconnect) is *resumable*: a
rejoin under the same name continues the same logical session — the
cumulative stats, the adaptive tier, and the stream position survive,
and the broker replays its buffered history from the viewer's last
acked frame so the resumed stream has no duplicated or skipped ids.
A client that brings ``resume_from`` gets the same replay whether or
not this broker has seen its name before.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

import numpy as np

from repro.compress import Codec
from repro.compress.context import CodecContext, bound_codec
from repro.devtools.guards import guarded_by
from repro.daemon.protocol import FrameMessage
from repro.net.faults import FaultPlan
from repro.net.transport import RetryPolicy
from repro.serve.cache import FrameCache
from repro.serve.host import SessionHost
from repro.serve.session import (
    AdaptiveQualityController,
    ViewerHandle,
    ViewerSession,
)
from repro.serve.stats import ServeCounters, ServeStats
from repro.serve.tiers import QualityTier, TierLadder, default_ladder

__all__ = ["SessionBroker"]


class SessionBroker:  # speaks: broker
    """Fan one frame stream out to many adaptive viewer sessions.

    Parameters
    ----------
    ladder:
        Quality tiers, best first (default: :func:`default_ladder`).
    cache_bytes:
        Byte budget of the shared encoded-frame cache.
    credit_limit:
        Max frames in flight per session before drops begin.
    step_down_after / step_up_after:
        Adaptive-controller hysteresis (see
        :class:`~repro.serve.session.AdaptiveQualityController`).
    history_frames:
        How many recent raw frames are kept for ``seek``/resume replay.
    encode_pool:
        A shared :class:`~repro.serve.encode_pool.EncodePool`; cold
        cache fills are encoded on its worker processes instead of the
        calling broker thread (the broker never owns or closes it).
    name:
        Label for this broker (shards are ``shard0``, ``shard1``, …).
    """

    def __init__(
        self,
        ladder: TierLadder | None = None,
        cache_bytes: int = 64 << 20,
        credit_limit: int = 4,
        step_down_after: int = 2,
        step_up_after: int = 16,
        history_frames: int = 32,
        encode_pool=None,
        name: str = "broker",
    ):
        self.ladder = ladder or default_ladder()
        self.name = name
        self.encode_pool = encode_pool
        self.cache = FrameCache(cache_bytes)
        self.credit_limit = credit_limit
        self.step_down_after = step_down_after
        self.step_up_after = step_up_after
        self.history_frames = history_frames
        self._lock = threading.Lock()
        self._encode_lock = threading.Lock()
        self._encoders: dict[tuple[str, int | None], Codec] = {}  # guarded-by: _encode_lock
        self._encoder_context = CodecContext()
        self._history: OrderedDict[int, tuple[int, np.ndarray]] = OrderedDict()  # guarded-by: _lock
        #: wakes drain() on ack arrival, session departure, and close
        self._ack_cond = threading.Condition()
        self._frame_counter = 0  # guarded-by: _lock
        self.counters = ServeCounters()  # guarded-by: _lock
        #: encode invocations — with a warm cache this stays at
        #: (frames × tiers in use), independent of viewer count
        self.encodes = 0  # guarded-by: _encode_lock
        #: who is joined, their control pumps, what a rejoin resumes
        #: from — under this broker's lock
        self._host = SessionHost(
            name,
            self._lock,
            self.counters,
            seek=self._replay,
            admitted=self._replay_resume,
            changed=self._notify_drain,
        )

    # -- membership ---------------------------------------------------------

    def join(
        self,
        name: str | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        resume_from: int | None = None,
        credit_limit: int | None = None,
    ) -> ViewerHandle:
        """Admit a viewer; returns its handle (viewer side of the pair).

        A name whose previous session died uncleanly *resumes*: the new
        session inherits the old one's stats, tier, and stream cursor,
        and buffered history is replayed from its last acked frame (or
        from ``resume_from``, the rejoining client's own idea of the
        next frame it needs — authoritative when acks were lost in
        flight, and a resume by itself for a name never seen here: a
        viewer rotating in from another broker).  ``fault_plan`` wraps
        the broker side of the link in a
        :class:`~repro.net.faults.FaultyConnection` so the session is
        served over a WAN-shaped link.

        ``credit_limit`` overrides the broker-wide credit budget for
        this session alone.  An edge relay (:mod:`repro.relay`) joins
        as an *aggregated* downstream — one session standing in for a
        whole viewer pool that acks as fast as it can store — so it
        gets a deep credit line and the same resume machinery: a relay
        that reconnects after a WAN cut has its buffered history
        replayed exactly like any viewer.
        """
        def make(name: str, conn) -> ViewerSession:
            return ViewerSession(
                name,
                conn,
                self.ladder,
                credit_limit=credit_limit or self.credit_limit,
                controller=AdaptiveQualityController(
                    self.step_down_after, self.step_up_after
                ),
            )

        return self._host.admit(name, make, fault_plan=fault_plan,
                                retry=retry, resume_from=resume_from)

    def leave(self, name: str, *, resumable: bool = False) -> None:
        """Detach a session broker-side (viewers normally send ``leave``).

        ``resumable`` marks an *unclean* departure — a dead connection
        rather than a polite leave — whose state is parked so a rejoin
        under the same name continues the stream.
        """
        self._host.leave(name, resumable)

    def sessions(self) -> list[str]:
        return self._host.names()

    # -- publishing ---------------------------------------------------------

    def publish(
        self,
        image: np.ndarray,
        time_step: int = 0,
        frame_id: int | None = None,
    ) -> int:
        """Offer one assembled frame to every session; returns its id.

        Never blocks on a slow viewer: sessions out of credits drop the
        frame (and their controller may demote them).
        """
        with self._lock:
            if self._host.closed():
                raise RuntimeError("publish() on a closed SessionBroker")
            if frame_id is None:
                frame_id = self._frame_counter
            self._frame_counter = max(self._frame_counter, frame_id + 1)
            self._history[frame_id] = (time_step, image)
            while len(self._history) > self.history_frames:
                self._history.popitem(last=False)
            sessions = self._host.live()
            self.counters.frames_published += 1
        for session in sessions:
            self._deliver(session, frame_id, time_step, image, from_publish=True)
        return frame_id

    def _deliver(
        self,
        session: ViewerSession,
        frame_id: int,
        time_step: int,
        image: np.ndarray,
        from_publish: bool = False,
    ) -> str:
        if from_publish and session.pop_resume_guard(frame_id):
            return "duplicate"  # resume replay already covered this id
        tier = self.ladder[session.current_tier_index()]
        if not tier.admits(frame_id):
            session.mark_skipped()
            return "skipped"
        payload = self._payload(frame_id, tier, image)
        msg = FrameMessage(
            frame_id=frame_id,
            time_step=time_step,
            codec=tier.codec,
            payload=payload,
            image_shape=(image.shape[0], image.shape[1]),
            quality=tier.quality,
        )
        # a dead link needs no handling here: the session closed its
        # connection, which wakes the host's pump to park it
        return session.offer(msg)

    def _payload(
        self, frame_id: int, tier: QualityTier, image: np.ndarray
    ) -> bytes:
        key = tier.cache_key(frame_id)

        def encode_inline() -> bytes:
            with self._encode_lock:
                self.encodes += 1
                return bound_codec(
                    self._encoders, self._encoder_context,
                    tier.codec, tier.quality,
                ).encode_image(image)

        if self.encode_pool is None:
            return self.cache.get_or_encode(key, encode_inline)

        def encode_pooled() -> bytes:
            # the cache key is the content address: concurrent misses
            # on the same key (here or on another shard sharing this
            # pool) coalesce onto one worker encode
            try:
                payload = self.encode_pool.encode(
                    image, tier.codec, tier.quality, key=key
                )
            except RuntimeError:  # pool closed underneath us: go inline
                return encode_inline()
            with self._encode_lock:
                self.encodes += 1
            return payload

        return self.cache.get_or_encode(key, encode_pooled)

    # -- history replay (the session host's seek and admission hooks) -------

    @guarded_by("_lock")
    def _history_from(self, from_frame: int) -> list[tuple[int, int, np.ndarray]]:
        return [
            (fid, ts, img)
            for fid, (ts, img) in self._history.items()
            if fid >= from_frame
        ]

    def _replay(self, session: ViewerSession, from_frame: int) -> None:
        """Re-deliver buffered history from ``from_frame`` (cache-served)."""
        with self._lock:
            window = self._history_from(from_frame)
        for fid, ts, img in window:
            self._deliver(session, fid, ts, img)

    @guarded_by("_lock")
    def _replay_resume(self, session: ViewerSession, from_frame: int | None) -> None:  # speaks: broker@resuming
        """Resume replay, run by the host as the session is admitted —
        still under ``self._lock``, so a concurrent publish can only
        deliver *after* the resumed stream has caught up and the viewer
        sees history and live frames in order.  ``from_frame`` is
        ``None`` for a fresh join, which replays nothing.

        Arms the session's resume guard with every replayed id so a
        publish racing the rejoin cannot deliver one of them twice.

        A resume point that fell off the retained history window gets
        an explicit ``gap`` control — frame ids in ``[from, to)`` are
        unrecoverable — instead of a silent skip: the no-dup-no-skip
        guarantee only holds inside the window, and the viewer must be
        able to tell "nothing was published" from "history was lost".
        """
        if from_frame is None:
            return
        window = self._history_from(from_frame)
        replay_start = min(
            (fid for fid, _, _ in window), default=self._frame_counter
        )
        if from_frame < replay_start:
            self.counters.resume_gaps += 1
            if not session.send_control(
                "gap", {"from": from_frame, "to": replay_start}
            ):
                return
        session.arm_resume_guard(fid for fid, _, _ in window)
        for fid, ts, img in window:
            self._deliver(session, fid, ts, img)

    def _notify_drain(self) -> None:
        with self._ack_cond:
            self._ack_cond.notify_all()

    # -- observability ------------------------------------------------------

    def stats(self) -> ServeStats:
        # three owning locks, taken one after another (never nested):
        # each group of counters is copied under the lock its writers
        # hold, so nothing in the snapshot is a torn read
        with self._lock:
            sessions = self._host.session_stats()
            counters = dict(vars(self.counters))
        counters["malformed_controls"] = counters.pop("malformed")
        with self._encode_lock:
            encodes = self.encodes
        cache = self.cache.stats_snapshot()
        return ServeStats(
            sessions=sessions,
            encodes=encodes,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_evictions=cache.evictions,
            cache_bytes=cache.current_bytes,
            cache_entries=cache.entries,
            **counters,
        )

    def drain(self, timeout: float = 5.0, names: list[str] | None = None) -> bool:
        """Wait until the given sessions (default: all) have zero frames
        in flight.  Pass ``names`` to exclude deliberately slow viewers.

        Event-driven: sleeps on a condition the ack pump notifies, so an
        idle drain costs no CPU and wakes the instant the last credit
        returns.  The membership snapshot is taken once at entry, and a
        session leaves the working set the first time it is seen idle —
        every ack wakeup then re-checks only the still-busy tail, so a
        V-viewer drain costs O(V) idle checks total instead of O(V) per
        ack (which was O(V²) per pass and the dominant drain cost at
        64+ viewers).  Publishes concurrent with ``drain`` race it
        under either scheme; the caller owns that ordering.
        """
        deadline = time.monotonic() + timeout
        with self._ack_cond:
            with self._lock:
                pending = [
                    s
                    for s in self._host.live()
                    if names is None or s.name in names
                ]
            while True:
                pending = [s for s in pending if not s.idle()]
                if not pending:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._ack_cond.wait(remaining)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._host.begin_close():
            self._host.finish_close()

    def __enter__(self) -> "SessionBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
