"""The edge relay daemon: one WAN crossing serves a whole viewer pool.

Bethel & Tierney's WAN-visualization architecture puts a *network data
cache* between the data source and its consumers; :class:`FrameRelay`
is that tier for encoded frames.  A relay

- holds one **upstream session** to the origin
  :class:`~repro.serve.broker.SessionBroker` (or to a peer relay) over
  the existing framed/credit protocol, acking every frame as soon as it
  lands in the store — the broker sees a single deep-credit aggregated
  downstream instead of N viewers;
- never decodes: forwarded payloads are stored by their content
  address ``(frame_id, codec, quality)`` (the wire message carries all
  three) in a shared pin-aware
  :class:`~repro.serve.cache.FrameCache`;
- serves local viewers by **timeline playback**: each downstream
  session has a cursor, frames are delivered in id order from the
  store, and a ``seek`` replays any stored range without touching the
  origin — N viewers looping a timeline cost the WAN one pass;
- **prefetches** along the timeline
  (:class:`~repro.relay.prefetch.TimelinePrefetcher` watches viewer
  cursors and keeps a pinned lookahead window resident);
- partitions frame-range **ownership** across a relay set via the
  consistent-hash :class:`~repro.relay.ring.RelayRing`: a missing
  frame is pulled from its owning peer (a ``mode="pull"`` session on
  that relay) and only falls back to the origin when the owner is
  dead, which is also when the dead peer is dropped from the ring;
- survives WAN cuts with the PR 3 machinery: the upstream link
  reconnects-with-resume under its own session name, and a viewer
  whose relay dies rejoins a *peer* relay with ``resume_from`` set to
  the next frame it needs, continuing the stream with no duplicated
  and no skipped ids.

Every link (upstream, peer, downstream) accepts a
:class:`~repro.net.faults.FaultPlan`, so the whole topology runs under
the deterministic WAN fault grid.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple

from repro.daemon.protocol import (
    ControlMessage,
    FrameMessage,
    ProtocolError,
    decode_message,
)
from repro.devtools.guards import guarded_by
from repro.net.faults import FaultPlan
from repro.net.transport import RetryPolicy
from repro.relay.prefetch import PrefetchPolicy, TimelinePrefetcher
from repro.relay.ring import RelayRing
from repro.relay.stats import RelayCounters, RelayStats
from repro.serve.cache import FrameCache
from repro.serve.host import SessionHost, valid_frame_id
from repro.serve.session import Session, ViewerHandle, rejoin
from repro.serve.stats import SessionStats

__all__ = ["FrameRelay", "RelaySession"]

#: retry policy for the WAN hops — relay-to-origin, relay-to-peer, and
#: every fault-shaped viewer link the scenario runner joins over:
#: aggressive enough that a 10% lossy link still delivers (0.9999+ after
#: 6 attempts), with small backoff so retries do not stall the publisher
RELAY_RETRY = RetryPolicy(max_attempts=6, backoff_s=0.002, max_backoff_s=0.05)

#: how long the upstream links must be quiet before a session waiting
#: *ahead* of the stream head triggers a demand fetch.  While frames
#: are flowing, the head is simply not published yet and a seek would
#: race the live delivery (duplicating WAN transfers); once the links
#: go quiet, an ahead cursor means catch-up is needed (a cold relay, a
#: seek past a gap) and the fetch fires.
AHEAD_FETCH_QUIET_S = 0.4


class _FrameMeta(NamedTuple):
    """What the relay remembers about a frame besides its payload —
    enough to rebuild the :class:`FrameMessage` envelope from the store."""

    codec: str
    quality: int | None
    time_step: int
    shape: tuple[int, int] | None

    def key(self, frame_id: int) -> tuple:
        return (frame_id, self.codec, self.quality)


class _PeerLink(NamedTuple):
    name: str
    handle: ViewerHandle


class RelaySession(Session):
    """Relay-side record of one downstream consumer: the shared
    :class:`~repro.serve.session.Session` plus a playback cursor.

    Two modes:

    - ``follow`` (viewers): the player delivers from ``cursor`` up to
      the newest frame the relay has seen, then waits for more;
    - ``pull`` (peer relays): the player is paused until a ``seek``,
      then delivers from the seek point up to the stream position at
      seek time and pauses again — a request/response fetch surface on
      the same wire protocol.

    Unlike the origin's :class:`~repro.serve.session.ViewerSession`,
    running out of credits never *drops* a frame: the player simply
    waits for acks.  The relay-to-viewer hop is the cheap local one;
    backpressure, not quality adaptation, is the right response there.
    """

    def __init__(self, name: str, conn, credit_limit: int = 8, *,
                 pull: bool = False, start: int = 0):
        super().__init__(name, conn, credit_limit, tier="relay", start=start)
        self.pull = pull
        #: next frame id to deliver
        self.cursor = start  # guarded-by: _lock
        #: pull mode: deliver up to (and including) this id, then pause
        self.pull_until = start - 1 if pull else None  # guarded-by: _lock

    def restore(self, start: int, stats: SessionStats | None = None) -> None:
        """The resumed stream plays from ``start``."""
        super().restore(start, stats)
        with self._lock:
            self.cursor = start
            if self.pull_until is not None:
                self.pull_until = start - 1

    # -- player side ---------------------------------------------------------

    def next_deliverable(self, max_seen: int) -> tuple[str, int]:
        """``(state, frame_id)``: ``"send"`` when a frame should go out
        now, else why not (``"paused"``/``"ahead"``/``"credits"``/
        ``"closed"``)."""
        with self._lock:
            if not self.active:
                return ("closed", -1)
            fid = self.cursor
            limit = self.pull_until if self.pull_until is not None else max_seen
            if fid > limit:
                return ("paused" if self.pull_until is not None else "ahead",
                        fid)
            if self.in_flight >= self.credit_limit:
                return ("credits", fid)
            return ("send", fid)

    def send_frame(self, msg: FrameMessage) -> str:
        """Deliver one frame (``"sent"``/``"closed"``) and advance."""
        with self._lock:
            if not self._send_frame(msg):
                return "closed"
            self.cursor = msg.frame_id + 1
            return "sent"

    def skip_frame(self, frame_id: int) -> None:
        """Advance past a frame that could not be obtained in time (the
        relay counts it; the cursor must not stall forever)."""
        with self._lock:
            if self.cursor == frame_id:
                self.cursor = frame_id + 1
            self._stats.frames_skipped += 1

    def skip_gap(self, from_frame: int, to_frame: int) -> None:  # speaks: relay@downstream
        """Announce ``[from_frame, to_frame)`` as unrecoverable and jump
        the cursor past the range, mirroring the broker's resume-gap
        announcement so consumers account for the loss up front instead
        of timing out on every missing frame."""
        with self._lock:
            if not self._send(ControlMessage(
                tag="gap", params={"from": from_frame, "to": to_frame}
            )):
                return
            if self.cursor < to_frame:
                skipped = to_frame - max(self.cursor, from_frame)
                self._stats.frames_skipped += skipped
                self.cursor = to_frame

    # -- pump side -----------------------------------------------------------

    def on_seek(self, frame_id: int, max_seen: int) -> None:
        """Move the cursor; a pull session arms one delivery burst up
        to the stream position at seek time."""
        with self._lock:
            self.cursor = frame_id
            if self.pull_until is not None:
                self.pull_until = max_seen

    # -- locked accessors (the relay reads these cross-thread) ---------------

    def prefetch_hint(self) -> int | None:
        """The cursor, when this session has (or may soon have) pending
        deliveries worth staging; ``None`` for an idle pull session."""
        with self._lock:
            if not self.active:
                return None
            if self.pull_until is not None and self.cursor > self.pull_until:
                return None
            return self.cursor

    def idle_at(self, max_seen: int) -> bool:
        """Delivered everything it currently wants, nothing in flight."""
        with self._lock:
            if not self.active:
                return True
            limit = self.pull_until if self.pull_until is not None else max_seen
            return self.cursor > limit and self.in_flight == 0


class FrameRelay:  # speaks: relay
    """One edge relay: upstream session in, local viewer pool out.

    Parameters
    ----------
    name:
        This relay's identity — also its key in the ownership ring.
    upstream:
        Whatever it fetches from: a :class:`SessionBroker` or another
        :class:`FrameRelay` (anything with the same ``join`` surface).
    ring:
        Shared :class:`RelayRing`; ``None`` means "own everything, all
        fetches go upstream".
    store_bytes:
        Byte budget of the relay's own pin-aware :class:`FrameCache`.
    fault_plan / retry:
        WAN shape of the *upstream* link.  (Downstream links get their
        plans per-:meth:`join`.)
    """

    def __init__(
        self,
        name: str,
        upstream,
        *,
        ring: RelayRing | None = None,
        store_bytes: int = 32 << 20,
        prefetch: PrefetchPolicy | None = None,
        credit_limit: int = 8,
        upstream_credits: int = 32,
        fetch_timeout: float = 5.0,
        reconnect_timeout: float = 5.0,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.name = name
        self.upstream = upstream
        self.ring = ring
        self.store = FrameCache(store_bytes)
        self.credit_limit = credit_limit
        self.upstream_credits = upstream_credits
        self.fetch_timeout = fetch_timeout
        self.reconnect_timeout = reconnect_timeout
        self.fault_plan = fault_plan
        self.retry = retry or RELAY_RETRY

        self._lock = threading.Lock()
        #: wakes players, drain() and the prefetcher on ingest/ack/seek
        self._wake = threading.Condition()
        #: interruptible sleep for reconnect/backoff loops
        self._closing = threading.Event()
        #: every counter of this relay (see RelayCounters for meanings)
        self.counters = RelayCounters()  # guarded-by: _lock
        #: who is joined downstream, their control pumps, what a rejoin
        #: resumes from, and this relay's threads — under the relay lock
        self._host = SessionHost(
            f"relay {name!r}",
            self._lock,
            self.counters,
            seek=self._on_seek,
            admitted=self._start_player,
            changed=self._notify,
        )
        #: frame envelope metadata by id (small; survives store eviction)
        self._frames: dict[int, _FrameMeta] = {}  # guarded-by: _lock
        self._max_seen = -1  # guarded-by: _lock
        #: monotonic time of the last upstream/peer frame arrival
        self._last_ingest = time.monotonic()  # guarded-by: _lock
        self._peers: dict[str, _PeerLink] = {}  # guarded-by: _lock
        self._dead_peers: set[str] = set()  # guarded-by: _lock
        #: per-target (source-name -> (fid, t)) seek rate limiter
        self._last_seek: dict[str, tuple[int, float]] = {}  # guarded-by: _lock
        #: frame ids the prefetcher has asked for and not yet seen
        self._prefetch_wanted: set[int] = set()  # guarded-by: _lock
        #: frame ids players are blocked on right now (id -> waiters)
        self._want: dict[int, int] = {}  # guarded-by: _lock
        #: ingest→player handoff for wanted frames: a demanded frame is
        #: parked here at arrival so a replay burst racing the store's
        #: eviction can never outrun the blocked player
        self._ready: dict[int, tuple[_FrameMeta, bytes]] = {}  # guarded-by: _lock
        #: whether the upstream tier told us which quality we watch
        self.upstream_tier: str | None = None  # guarded-by: _lock
        #: half-open [from, to) ranges upstream declared unrecoverable
        #: (resume past the retained history window); players skip them
        self._gaps: list[tuple[int, int]] = []  # guarded-by: _lock

        self._upstream_name = f"relay:{name}"
        self._prefetcher: TimelinePrefetcher | None = None
        self._upstream_handle = self._dial(upstream, fault_plan, None)  # guarded-by: _lock
        try:
            self._host.spawn(self._ingest, "origin", self._upstream_handle,
                             self._reconnect_upstream,
                             name=f"{name}-origin-ingest")
            self._prefetcher = TimelinePrefetcher(
                self, prefetch or PrefetchPolicy())
            self._prefetcher.start()
        except BaseException:
            # a half-built relay must not strand its upstream session
            self.kill()
            raise

    # -- membership (the broker-compatible join surface) ---------------------

    def join(
        self,
        name: str | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        resume_from: int | None = None,
        credit_limit: int | None = None,
        mode: str = "follow",
        start: int = 0,
    ) -> ViewerHandle:
        """Admit a downstream consumer; returns its viewer-side handle.

        The same admission as :meth:`SessionBroker.join` — both go
        through one :class:`~repro.serve.host.SessionHost` — so
        resilient viewers (and relays chaining to a peer) treat origin
        and relay uniformly.  ``resume_from`` starts the playback
        cursor there — that is the whole failover contract: a viewer
        whose relay died joins a peer with ``resume_from`` = the next
        frame id it needs, and the stream continues with no duplicate
        and no skip.  ``mode="pull"`` creates a paused request/response
        session (peer fetch surface); ``start`` is where a fresh
        (not resumed) session's cursor begins.
        """
        if mode not in ("follow", "pull"):
            raise ValueError(f"mode must be 'follow' or 'pull', not {mode!r}")

        def make(name: str, conn) -> RelaySession:
            return RelaySession(
                name,
                conn,
                credit_limit or self.credit_limit,
                pull=(mode == "pull"),
                start=start,
            )

        handle = self._host.admit(
            name, make, fault_plan=fault_plan, retry=retry,
            resume_from=resume_from,
        )
        self._notify()
        return handle

    @guarded_by("_lock")
    def _start_player(self, session: RelaySession, start: int | None) -> None:
        """The host's admission hook: every session gets a player."""
        self._host.spawn_locked(
            self._player, session, name=f"{session.name}@{self.name}-player"
        )

    def _on_seek(self, session: RelaySession, frame_id: int) -> None:
        """The host's seek hook: move the cursor, wake the player."""
        session.on_seek(frame_id, self.max_seen())
        self._notify()

    def sessions(self) -> list[str]:
        return self._host.names()

    # -- peer mesh -----------------------------------------------------------

    def connect_peer(self, peer: "FrameRelay", *,
                     fault_plan: FaultPlan | None = None,
                     retry: RetryPolicy | None = None) -> None:
        """Open a pull link to ``peer`` (the owner-fetch path)."""
        handle = peer.join(
            f"peer:{self.name}",
            mode="pull",
            fault_plan=fault_plan,
            retry=retry or self.retry,
            credit_limit=self.upstream_credits,
        )
        link = _PeerLink(peer.name, handle)
        with self._lock:
            self._peers[peer.name] = link
            self._dead_peers.discard(peer.name)
        self._host.spawn(self._ingest, peer.name, handle,
                         lambda: self._mark_peer_dead(peer.name),
                         name=f"{self.name}-peer-{peer.name}-ingest")

    def _mark_peer_dead(self, peer_name: str) -> None:
        with self._lock:
            if peer_name in self._dead_peers:
                return
            self._dead_peers.add(peer_name)
            self._peers.pop(peer_name, None)
        if self.ring is not None:
            self.ring.remove(peer_name)
        self._notify()

    # -- ingest (upstream + peer pumps) --------------------------------------

    def _ingest(self, source: str, handle: ViewerHandle, on_cut) -> None:
        """The receive loop of the upstream link (``source="origin"``)
        or of a peer link (``source`` = the peer's name).  ``on_cut()``
        answers a cut link with the handle to carry on with, or
        ``None`` to stop: the upstream reconnects with resume, a peer
        is marked dead."""
        while True:
            try:
                raw = handle.conn.recv(timeout=0.25)
            except TimeoutError:
                if self._is_closed() or (
                        source != "origin" and not self._peer_alive(source)):
                    return
                continue
            except ConnectionError:
                if self._is_closed():
                    return
                handle = on_cut()
                if handle is None:
                    return
                continue
            self._ingest_raw(raw, source=source, conn=handle.conn)

    def _ingest_raw(self, raw: bytes, source: str, conn) -> None:  # speaks: relay@ingest
        try:
            msg = decode_message(raw)
        except ProtocolError:
            with self._lock:
                self.counters.malformed += 1
            return
        if isinstance(msg, FrameMessage):
            self._ingest_frame(msg, source)
            try:  # return the upstream credit (a relay sends no report)
                conn.send(
                    ControlMessage(
                        tag="ack", params={"frame_id": msg.frame_id}
                    ).encode()
                )
            except ConnectionError:
                pass  # the reconnect path owns this failure
        elif isinstance(msg, ControlMessage):
            if msg.tag == "tier":
                with self._lock:
                    self.upstream_tier = msg.params.get("tier")
            elif msg.tag == "gap":
                self._note_gap(msg.params.get("from"), msg.params.get("to"))
            else:
                with self._lock:
                    self.counters.unknown_controls += 1
        else:
            with self._lock:
                self.counters.malformed += 1

    def _ingest_frame(self, msg: FrameMessage, source: str) -> None:
        meta = _FrameMeta(
            codec=msg.codec,
            quality=msg.quality,
            time_step=msg.time_step,
            shape=msg.image_shape,
        )
        fid = msg.frame_id
        payload = bytes(msg.payload)
        with self._lock:
            self._frames[fid] = meta
            self._max_seen = max(self._max_seen, fid)
            self._last_ingest = time.monotonic()
            speculative = fid in self._prefetch_wanted
            self._prefetch_wanted.discard(fid)
            if speculative:
                self.counters.prefetch_fills += 1
            if source == "origin":
                self.counters.origin_frames += 1
            else:
                self.counters.peer_frames += 1
            if fid in self._want:
                self._ready[fid] = (meta, payload)
                speculative = False  # a demanded frame is never a gamble
        # outside the relay lock: the store serializes on its own
        self.store.put(meta.key(fid), payload, speculative=speculative)
        self._notify()

    def _note_gap(self, from_frame, to_frame) -> None:
        """Record an upstream "frames [from, to) are unrecoverable"
        announcement (sent by the broker when our resume point fell out
        of its retained window) so players jump the range instead of
        waiting out the fetch timeout frame by frame."""
        if (not valid_frame_id(from_frame)
                or not valid_frame_id(to_frame)
                or to_frame <= from_frame):
            with self._lock:
                self.counters.malformed += 1
            return
        with self._lock:
            self._gaps.append((from_frame, to_frame))
            self.counters.upstream_gaps += 1
        self._notify()

    def _gap_end(self, frame_id: int) -> int | None:
        """End of the announced gap covering ``frame_id`` (``None``
        when no gap covers it).  A frame that arrived anyway — a peer
        fetch or a replay burst — bounds the jump: it gets delivered,
        not skipped."""
        with self._lock:
            if frame_id in self._frames:
                return None
            end = None
            for lo, hi in self._gaps:
                if lo <= frame_id < hi and (end is None or hi > end):
                    end = hi
            if end is None:
                return None
            recovered = [fid for fid in self._frames
                         if frame_id < fid < end]
            return min(recovered) if recovered else end

    def _dial(self, upstream, plan: FaultPlan | None,
              resume_from: int | None) -> ViewerHandle:
        """One attempt at the upstream session, under this relay's name."""
        return upstream.join(
            self._upstream_name,
            fault_plan=plan,
            retry=self.retry,
            resume_from=resume_from,
            credit_limit=self.upstream_credits,
        )

    def _reconnect_upstream(self) -> ViewerHandle | None:
        """Re-establish the upstream session with resume: the one
        :func:`~repro.serve.session.rejoin` policy, with a single
        target (a closed upstream means giving up at once)."""
        plan = self.fault_plan.reconnected() if self.fault_plan else None
        with self._lock:
            stale = self._upstream_handle
        joined = rejoin(
            stale, [self.upstream], 0, self._closing,
            lambda upstream: self._dial(upstream, plan, self.max_seen() + 1),
            timeout=self.reconnect_timeout,
        )
        if joined is None:
            return None
        with self._lock:
            self._upstream_handle = joined[0]
            self.counters.upstream_reconnects += 1
        self._notify()
        return joined[0]

    # -- fetch routing -------------------------------------------------------

    def _fetch_target(self, frame_id: int):
        """``(send-seek-callable-owner-name, handle)`` for ``frame_id``:
        the owning peer when one is alive, else the upstream."""
        owner = self.ring.owner(frame_id) if self.ring is not None else None
        with self._lock:
            if owner is not None and owner != self.name:
                link = self._peers.get(owner)
                if link is not None:
                    return owner, link.handle
                if owner not in self._dead_peers:
                    # owner we never linked to: fall through to upstream
                    owner = None
            return "origin", self._upstream_handle

    def _request_fetch(self, frame_id: int, *, prefetch: bool = False,
                       urgent: bool = False) -> None:
        """Ask the frame's owner (or the origin) to replay from
        ``frame_id``.  Seeks flood everything the source has from that
        id on, so requests are rate-limited per target: a pending seek
        at or below ``frame_id`` already covers it.  ``urgent`` (a
        delivery already waiting on this id) bypasses the limit."""
        target_name, handle = self._fetch_target(frame_id)
        now = time.monotonic()
        with self._lock:
            last = self._last_seek.get(target_name)
            if (
                not urgent
                and last is not None
                and last[0] <= frame_id
                and now - last[1] < 0.25
            ):
                return
            self._last_seek[target_name] = (frame_id, now)
            if prefetch:
                self.counters.prefetch_issued += 1
            else:
                self.counters.fetch_requests += 1
        try:
            handle.seek(frame_id)
        except ConnectionError:
            if target_name != "origin":
                # the owning peer died mid-request: re-route to origin
                self._mark_peer_dead(target_name)
                with self._lock:
                    self.counters.peer_failovers += 1
                    self._last_seek.pop("origin", None)
                self._request_fetch(frame_id, prefetch=prefetch, urgent=urgent)
            # origin send failures are handled by the reconnect pump

    def request_prefetch(self, frame_ids) -> None:
        """Prefetcher entry point: stage ``frame_ids`` speculatively."""
        with self._lock:
            fresh = sorted(
                fid for fid in frame_ids if fid not in self._prefetch_wanted
            )
            self._prefetch_wanted.update(fresh)
            if len(self._prefetch_wanted) > 4096:  # runaway guard
                self._prefetch_wanted = set(fresh)
        by_target: dict[str, int] = {}
        for fid in fresh:
            owner = self.ring.owner(fid) if self.ring is not None else "origin"
            key = owner or "origin"
            by_target[key] = min(by_target.get(key, fid), fid)
        for fid in by_target.values():
            self._request_fetch(fid, prefetch=True)

    # -- the player (one thread per downstream session) ----------------------

    def _player(self, session: RelaySession) -> None:
        while not self._is_closed():
            state, fid = session.next_deliverable(self.max_seen())
            if state == "closed":
                return  # its control pump parks the session
            if state != "send":
                if state == "ahead" and self._upstream_quiet():
                    # ahead of everything this relay has seen with the
                    # upstream links gone quiet: not the live head, so
                    # the owner/origin may already hold the frame (a
                    # cold relay, a seek past a gap) — fetch it; the
                    # per-target rate limit keeps this cheap
                    self._request_fetch(fid)
                self._wait_wake(0.05)
                continue
            self._serve_one(session, fid)

    def _serve_one(self, session: RelaySession, frame_id: int) -> None:  # speaks: relay@downstream
        gap_end = self._gap_end(frame_id)
        if gap_end is not None:
            # upstream declared [frame_id, gap_end) unrecoverable:
            # re-announce it downstream and jump, instead of burning
            # fetch_timeout once per missing frame
            session.skip_gap(frame_id, gap_end)
            return
        meta, payload, waited, pinned = self._obtain(frame_id, session)
        if meta is None:
            if session.is_active() and not self._is_closed():
                with self._lock:
                    self.counters.frames_unavailable += 1
                session.skip_frame(frame_id)
            return
        try:
            outcome = session.send_frame(
                FrameMessage(
                    frame_id=frame_id,
                    time_step=meta.time_step,
                    codec=meta.codec,
                    payload=payload,
                    image_shape=meta.shape,
                    quality=meta.quality,
                )
            )
        finally:
            if pinned:
                self.store.unpin(meta.key(frame_id))
        if outcome == "sent":
            with self._lock:
                self.counters.frames_served += 1
                if waited:
                    self.counters.store_waits += 1
                else:
                    self.counters.store_hits += 1

    def _obtain(self, frame_id: int, session: RelaySession):
        """``(meta, payload, waited, pinned)`` for ``frame_id``.

        Fast path: a pinned store read.  Miss path: register demand
        (so ingest hands the frame over directly even if a fetch burst
        churns it out of the store immediately), fetch from the frame's
        owner/origin, and wait up to ``fetch_timeout``.  After the
        first fruitless wait the fetch bypasses the per-target rate
        limit — a blocked delivery outranks seek dedup.
        """
        with self._lock:
            meta = self._frames.get(frame_id)
        if meta is not None:
            payload = self.store.get_pinned(meta.key(frame_id))
            if payload is not None:
                return meta, payload, False, True
        deadline = time.monotonic() + self.fetch_timeout
        waited = False
        with self._lock:
            self._want[frame_id] = self._want.get(frame_id, 0) + 1
        try:
            while True:
                with self._lock:
                    handoff = self._ready.get(frame_id)
                    meta = self._frames.get(frame_id)
                if handoff is not None:
                    return handoff[0], handoff[1], waited, False
                if meta is not None:
                    payload = self.store.get_pinned(meta.key(frame_id))
                    if payload is not None:
                        return meta, payload, waited, True
                if not session.is_active() or self._is_closed():
                    return None, None, waited, False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None, None, waited, False
                self._request_fetch(frame_id, urgent=waited)
                waited = True
                self._wait_wake(min(0.05, remaining))
        finally:
            with self._lock:
                count = self._want.get(frame_id, 0) - 1
                if count <= 0:
                    self._want.pop(frame_id, None)
                    self._ready.pop(frame_id, None)
                else:
                    self._want[frame_id] = count

    # -- shared accessors ----------------------------------------------------

    def max_seen(self) -> int:
        """Highest frame id that has crossed any upstream link."""
        with self._lock:
            return self._max_seen

    def key_for(self, frame_id: int) -> tuple | None:
        """The store key of ``frame_id``, once its envelope is known."""
        with self._lock:
            meta = self._frames.get(frame_id)
        return None if meta is None else meta.key(frame_id)

    def prefetch_hints(self) -> list[int]:
        """Live session cursors worth staging ahead of."""
        with self._lock:
            sessions = self._host.live()
        hints = [s.prefetch_hint() for s in sessions]
        return [h for h in hints if h is not None]

    def _upstream_quiet(self) -> bool:
        with self._lock:
            return time.monotonic() - self._last_ingest > AHEAD_FETCH_QUIET_S

    def _peer_alive(self, name: str) -> bool:
        with self._lock:
            return name in self._peers

    def _is_closed(self) -> bool:
        with self._lock:
            return self._host.closed()

    def _notify(self) -> None:
        with self._wake:
            self._wake.notify_all()

    def _wait_wake(self, timeout: float) -> None:
        with self._wake:
            self._wake.wait(timeout)

    # -- observability -------------------------------------------------------

    def stats_snapshot(self) -> RelayStats:
        """All counters, and every session's own snapshot, copied in one
        critical section (the store's snapshot is taken under its own
        lock, not nested inside this one)."""
        with self._lock:
            counters = dict(vars(self.counters))
            session_stats = self._host.session_stats()
            live = len(self._host.live())
        return RelayStats(
            name=self.name,
            sessions=live,
            store=self.store.stats_snapshot(),
            session_stats=session_stats,
            **counters,
        )

    def session_stats(self) -> dict[str, SessionStats]:
        return self.stats_snapshot().session_stats

    def drain(self, timeout: float = 5.0, names: list[str] | None = None) -> bool:
        """Wait until the given sessions (default: every non-pull one)
        have delivered through the stream head with nothing in flight."""
        deadline = time.monotonic() + timeout
        while True:
            max_seen = self.max_seen()
            with self._lock:
                sessions = [
                    s
                    for s in self._host.live()
                    if (names is None and not s.pull) or
                    (names is not None and s.name in names)
                ]
            if all(s.idle_at(max_seen) for s in sessions):
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._wait_wake(min(0.05, remaining))

    # -- lifecycle -----------------------------------------------------------

    def _shutdown(self, polite: bool) -> None:
        if not self._host.begin_close():  # sweeps the downstream sessions
            return
        with self._lock:
            peers = list(self._peers.values())
            self._peers.clear()
            upstream_handle = self._upstream_handle
        self._closing.set()
        if self._prefetcher is not None:
            self._prefetcher.stop()
            # it holds the relay: let go, so a closed relay is freed
            # when dropped, not at the next cycle collection
            self._prefetcher = None
        for link in peers:
            if polite:
                link.handle.leave()
            else:
                link.handle.conn.close()
        if polite:
            upstream_handle.leave()
        else:
            upstream_handle.conn.close()
        self._notify()
        self._host.finish_close()

    def close(self) -> None:
        """Graceful shutdown: polite leaves on every link."""
        self._shutdown(polite=True)

    def kill(self) -> None:
        """Crash simulation: every link cut mid-stream, no goodbyes —
        viewers see ``ChannelClosed`` and must fail over to a peer; the
        origin parks this relay's session for reconnect-with-resume."""
        self._shutdown(polite=False)

    def __enter__(self) -> "FrameRelay":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap = self.stats_snapshot()
        return (
            f"<FrameRelay {self.name} served={snap.frames_served} "
            f"offload={snap.offload_ratio:.2f}>"
        )
