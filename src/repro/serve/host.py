"""The session host: the one lifecycle of a downstream session.

The origin's :class:`~repro.serve.broker.SessionBroker` and the edge's
:class:`~repro.relay.daemon.FrameRelay` serve viewers over the same
wire protocol, and a viewer must be able to treat them uniformly — it
rotates between them on failover.  :class:`SessionHost` is the part
they have in common, written once: how a session is **admitted** (the
name, the connection pair, the optional WAN fault shape), **pumped**
(its ``ack``/``seek``/``leave`` controls read, validated and
dispatched), **parked** when its link is cut uncleanly, **resumed**
when the same name — or a client carrying ``resume_from`` — joins
again, protected from a **stale** thread that notices the dead link
only after the replacement joined, and **swept** at close.

What a host does *not* decide is delivery: push-and-drop with tier
adaptation at the origin, pull-and-wait from the store at the edge.
Its owner plugs that in through three callables:

``seek(session, frame_id)``
    a validated ``seek`` arrived (broker: replay history; relay: move
    the cursor and wake the player);
``admitted(session, start)``
    the session has just been registered — called with the shared lock
    still held, so nothing can be delivered to the session before this
    returns.  ``start`` is the frame id a resumed stream continues at,
    ``None`` for a fresh one (broker: replay history from ``start``;
    relay: start the player thread);
``changed()``
    a credit came back or a session left (the owner's wake-up for
    whoever waits in ``drain``).

The host adds no lock and no thread of its own beyond the one control
pump per session: its tables are guarded by its *owner's* lock, handed
in at construction, so the owner can read membership (:meth:`live`,
:meth:`session_stats`, :meth:`closed`) inside its own critical
sections.

**The pump blocks in** ``recv()`` **with no timeout.**  That is enough
because an inactive session's connection is always closed:
:meth:`Session.deactivate <repro.serve.session.Session.deactivate>`
(every detach, the close sweep) closes it, and so does
:meth:`Session._send <repro.serve.session.Session._send>` on finding
the link dead.  The pump therefore always
wakes with ``ChannelClosed`` and needs no poll — and, for the same
reason, it is a session's only reaper: delivery code that finds the
link dead (``offer``/``send_frame`` returning ``"closed"``) just stops
sending, it does not detach.
"""

from __future__ import annotations

import threading

from repro.daemon.protocol import ControlMessage, ProtocolError, decode_message
from repro.devtools.guards import guarded_by
from repro.net.faults import FaultPlan, FaultyConnection
from repro.net.transport import ChannelClosed, FramedConnection, RetryPolicy
from repro.serve.session import Session, ViewerHandle
from repro.serve.stats import HostCounters, SessionStats

__all__ = ["SessionHost", "valid_frame_id"]


def valid_frame_id(value) -> bool:
    """Whether a control's ``frame_id``-like parameter is usable: a
    non-negative ``int`` (``bool`` is an ``int`` to Python, not to us)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _decode_report(params: dict):
    """An ack's decode report, ``(hit ratio, code bytes)``: ``None``
    when it has none, ``False`` when it is bad."""
    ratio, code_bytes = params.get("hit_ratio"), params.get("code_bytes")
    if ratio is None and code_bytes is None:
        return None
    good = isinstance(ratio, float) and 0.0 <= ratio <= 1.0
    return (ratio, code_bytes) if good and valid_frame_id(code_bytes) else False


def _unhooked(*args) -> None:
    """What a closed host's hooks point at."""


class SessionHost:
    """Membership table and control pump under a broker or a relay.

    ``label`` names the owner in connection, thread and error text;
    ``lock`` is the owner's lock, ``counters`` its live counters record
    (the host bumps the :class:`~repro.serve.stats.HostCounters`
    fields); for the three callables see the module docstring.
    """

    def __init__(self, label: str, lock, counters: HostCounters, *,
                 seek, admitted, changed):
        self.label = label
        self._lock = lock
        self._seek = seek
        self._admitted = admitted
        self._changed = changed
        self.counters = counters  # guarded-by: _lock
        self._sessions: dict[str, Session] = {}  # guarded-by: _lock
        #: final snapshot of every session that left, latest per name
        self._departed: dict[str, SessionStats] = {}  # guarded-by: _lock
        #: ``(stats, next frame id needed)`` of unclean disconnects, by
        #: name — consumed when the same name rejoins.  A name is never
        #: here and in ``_sessions`` at once.
        self._resume: dict[str, tuple[SessionStats, int]] = {}  # guarded-by: _lock
        self._threads: list[threading.Thread] = []  # guarded-by: _lock
        self._session_counter = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # -- admission -------------------------------------------------------------

    def admit(
        self,
        name: str | None,
        make,
        *,
        fault_plan: FaultPlan | None,
        retry: RetryPolicy | None,
        resume_from: int | None,
    ) -> ViewerHandle:
        """Admit a consumer; returns the viewer side of a new link.

        ``make(name, conn)`` builds the owner's kind of session on the
        host side of the link, which is wrapped in a
        :class:`~repro.net.faults.FaultyConnection` when ``fault_plan``
        is given.  The stream is a *resume* — the session is
        :meth:`~repro.serve.session.Session.restore`\\ d, counted, and
        the handle says ``resumed`` — when the name has parked state
        from an unclean cut, or the client brings ``resume_from`` (the
        next frame id it needs: authoritative when acks were lost in
        flight, and all there is when it was last served elsewhere).

        Raises ``RuntimeError`` once closed and ``ValueError`` for a
        name whose session is still live.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(f"join() on a closed {self.label}")
            if name is None:
                name = f"viewer{self._session_counter}"
            self._session_counter += 1
            existing = self._sessions.get(name)
            if existing is not None:
                if existing.is_active():
                    raise ValueError(f"session {name!r} already joined")
                # an unclean disconnect its pump has not reaped yet
                self._retire(existing, resumable=True)
            stats, start = self._resume.pop(name, (None, None))
            if resume_from is not None:
                start = resume_from
            host_side, viewer_side = FramedConnection.pair(
                f"{name}@{self.label}", f"{name}-viewer"
            )
            conn = host_side
            if fault_plan is not None:
                conn = FaultyConnection(host_side, fault_plan, retry=retry)
            session = make(name, conn)
            if start is not None:
                session.restore(start, stats)
                self.counters.resumes += 1
            self._sessions[name] = session
            self._admitted(session, start)
            self.spawn_locked(
                self._pump, session, name=f"{name}@{self.label}-pump"
            )
        return ViewerHandle(name, viewer_side, resumed=start is not None)

    # -- departure -------------------------------------------------------------

    @guarded_by("_lock")
    def _retire(self, session: Session, resumable: bool) -> None:
        """Unregister ``session`` and close its link, keep its final
        stats, and — for an unclean departure — park what a rejoin
        continues from."""
        del self._sessions[session.name]
        session.deactivate()
        self._departed[session.name] = session.stats_snapshot()
        if resumable:
            self._resume[session.name] = session.resume_state()

    def detach(self, session: Session, resumable: bool) -> None:
        """Remove ``session``.  ``resumable`` marks an *unclean*
        departure — a dead link rather than a polite leave.

        The caller — the session's pump — reacts to what it saw on
        ``session``'s own connection, possibly late: if the name has
        since been re-admitted, the table holds the *replacement* and
        this call must not touch it.
        """
        with self._lock:
            if self._sessions.get(session.name) is not session:
                return
            self._retire(session, resumable)
        self._changed()

    def leave(self, name: str, resumable: bool = False) -> None:
        """Detach by name, host-side (viewers normally send ``leave``)."""
        with self._lock:
            session = self._sessions.get(name)
        if session is not None:
            self.detach(session, resumable)

    # -- the control pump (one thread per session) -----------------------------

    def _note_malformed(self) -> None:
        with self._lock:
            self.counters.malformed += 1

    def _pump(self, session: Session) -> None:  # speaks: broker@serving, relay@downstream
        """Consumer → host: acks return credits; seek/leave are honored.

        Malformed traffic — undecodable bytes, non-control messages,
        controls with a missing or bogus ``frame_id`` — is dropped and
        counted, never fed into the credit machinery (a bad decode
        report alone is dropped and counted; its credit comes back).
        """
        while True:
            try:
                raw = session.conn.recv()
            except ChannelClosed:
                self.detach(session, resumable=True)
                return
            try:
                msg = decode_message(raw)
            except ProtocolError:
                msg = None
            if not isinstance(msg, ControlMessage):
                self._note_malformed()
            elif msg.tag == "ack":
                frame_id = msg.params.get("frame_id")
                report = _decode_report(msg.params)
                if report is False or not valid_frame_id(frame_id):
                    self._note_malformed()
                if valid_frame_id(frame_id):
                    session.on_ack(frame_id, report or None)
                    self._changed()
            elif msg.tag == "seek":
                frame_id = msg.params.get("frame_id", 0)
                if valid_frame_id(frame_id):
                    self._seek(session, frame_id)
                else:
                    self._note_malformed()
            elif msg.tag == "leave":
                self.detach(session, resumable=False)
                return
            else:
                # a well-formed control nobody here handles: counted so
                # a version-skewed viewer is visible in stats
                with self._lock:
                    self.counters.unknown_controls += 1

    # -- what the owner reads, inside its own critical sections ----------------

    @guarded_by("_lock")
    def closed(self) -> bool:
        return self._closed

    @guarded_by("_lock")
    def live(self) -> list[Session]:
        """The registered sessions."""
        return list(self._sessions.values())

    @guarded_by("_lock")
    def session_stats(self) -> dict[str, SessionStats]:
        """Every session ever served, by name: as of now when live, as
        it left otherwise."""
        stats = dict(self._departed)
        for name, session in self._sessions.items():
            stats[name] = session.stats_snapshot()
        return stats

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    # -- threads and shutdown --------------------------------------------------

    @guarded_by("_lock")
    def spawn_locked(self, target, *args, name: str) -> None:
        """Start a daemon thread that :meth:`join_threads` will wait
        for, dropping the finished ones from the list."""
        t = threading.Thread(target=target, args=args, daemon=True, name=name)
        t.start()
        self._threads = [p for p in self._threads if p.is_alive()]
        self._threads.append(t)

    def spawn(self, target, *args, name: str) -> None:
        with self._lock:
            self.spawn_locked(target, *args, name=name)

    def begin_close(self) -> bool:
        """Refuse further admissions and sweep every session (nothing
        is parked: there is nobody left to resume with).  False when
        already closing.  The owner then cuts whatever other links its
        threads block on, and calls :meth:`finish_close`."""
        with self._lock:
            if self._closed:
                return False
            self._closed = True
            for session in list(self._sessions.values()):
                self._retire(session, resumable=False)
        self._changed()
        return True

    def finish_close(self) -> None:
        """Wait for every spawned thread, then let go of the owner: its
        hooks are bound methods, so host and owner form a reference
        cycle, and a closed broker or relay — with its cache, and its
        encode pool's queue threads — should be freed when dropped, not
        whenever the cycle collector next runs."""
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            t.join(timeout=5.0)
        self._seek = self._admitted = self._changed = _unhooked
