"""Machine-readable protocol specification for the framed WAN protocol.

:mod:`repro.daemon.protocol` defines the *syntax* of the wire — the
``RVIZ`` envelope, the message kinds, and the control-tag registry.
This module defines the *semantics*: which endpoint may send which tag
in which state, and what its peer must be prepared to receive.  It is
the committed source of truth that :mod:`repro.devtools.protoflow`
checks the implementation against (rules DT902-DT904), so a dispatch
branch added on one side without the matching handler on the other is
a lint failure, not a silent drop in production.

Endpoints
---------
Five endpoints speak the protocol (the daemon itself is a transparent
forwarder and deliberately has no automaton):

``client``
    A viewer handle (:class:`repro.serve.session.ViewerHandle`).  It
    streams frames from a broker or relay, acknowledges them for
    credit, and can seek or leave.  The ``ack`` of a frame it decoded
    also carries its decode report (``hit_ratio``, ``code_bytes``),
    which the host's pump validates and stores in the session stats.
``broker``
    The serving side of a viewer session
    (:class:`repro.serve.broker.SessionBroker` and the per-viewer
    :class:`repro.serve.session.ViewerSession`).  It delivers frames
    under the credit window, renegotiates tiers, and replays history —
    announcing a ``gap`` first when a resume point has fallen out of
    the retained window.  What it *receives* (``ack``/``seek``/
    ``leave``) is dispatched by the control pump of
    :class:`repro.serve.host.SessionHost`.
``relay``
    A WAN edge relay (:mod:`repro.relay.daemon`).  Its upstream face
    ingests the broker stream like a client; its downstream face
    serves viewers like a broker — literally: the same
    :class:`~repro.serve.host.SessionHost` pump speaks for
    ``broker@serving`` and ``relay@downstream``, which receive the
    same three tags.  Both faces are modelled as states of one
    endpoint because the relay translates between them (an upstream
    ``gap`` must be re-announced downstream).
``renderer`` / ``display``
    The §4.1 daemon pairing: the display sends user controls
    (``view``/``zoom``/``projection``/``colormap``/``set_codec``/
    ``start_renderer``), the renderer applies them and streams frames
    back.

Pseudo-tags
-----------
Frame traffic has no control tag; the spec uses the pseudo-tag
``"frame"`` for :class:`~repro.daemon.protocol.FrameMessage` delivery
so frame-handling dispatch participates in the same conformance
checks.  The ``Hello`` handshake happens before any endpoint state is
entered and is deliberately outside the spec.

Transitions
-----------
``transitions`` maps an event to the successor state.  Events of the
form ``send:<tag>`` / ``recv:<tag>`` are cross-checked against the
state's ``sends``/``receives`` sets; bare words (``join``,
``resume``, ``replayed``, ``serve``) are internal events that exist
only to make every state reachable from ``initial`` — DT904 flags any
state the transition graph cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.daemon.protocol import CONTROL_TAGS

__all__ = [
    "StateSpec",
    "EndpointSpec",
    "ENDPOINTS",
    "SPEC_TAGS",
    "spec_errors",
]

#: pseudo-tag for FrameMessage delivery (frames carry no control tag)
FRAME_TAG = "frame"

#: every tag the spec may reference: the control registry plus frames
SPEC_TAGS = frozenset(CONTROL_TAGS) | {FRAME_TAG}


@dataclass(frozen=True)
class StateSpec:
    """One state of an endpoint automaton.

    ``receives``/``sends`` are the tags legal in this state.
    ``peer_states`` are ``"endpoint.state"`` names this state may be
    paired with; everything in ``sends`` must be receivable in *all*
    of them.  ``transitions`` maps events to successor state names.
    """

    receives: frozenset = frozenset()
    sends: frozenset = frozenset()
    peer_states: frozenset = frozenset()
    transitions: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EndpointSpec:
    """A named endpoint automaton: ``states`` by name plus the
    ``initial`` state every run starts in."""

    name: str
    initial: str
    states: dict

    def receivable(self) -> frozenset:
        """Union of tags this endpoint must handle in some state."""
        out = set()
        for state in self.states.values():
            out |= state.receives
        return frozenset(out)

    def sendable(self) -> frozenset:
        """Union of tags this endpoint emits in some state."""
        out = set()
        for state in self.states.values():
            out |= state.sends
        return frozenset(out)


def _s(*tags):
    return frozenset(tags)


ENDPOINTS: dict[str, EndpointSpec] = {
    "client": EndpointSpec(
        name="client",
        initial="streaming",
        states={
            "streaming": StateSpec(
                receives=_s("frame", "tier", "gap"),
                sends=_s("ack", "seek", "leave"),
                peer_states=_s("broker.serving", "broker.resuming",
                               "relay.downstream"),
                transitions={"send:leave": "closed"},
            ),
            "closed": StateSpec(
                peer_states=_s("broker.departed"),
            ),
        },
    ),
    "broker": EndpointSpec(
        name="broker",
        initial="joining",
        states={
            # a fresh join goes straight to serving; a reconnect with
            # resume_from enters resuming first (history replay)
            "joining": StateSpec(
                transitions={"join": "serving", "resume": "resuming"},
            ),
            "serving": StateSpec(
                receives=_s("ack", "seek", "leave"),
                sends=_s("frame", "tier"),
                peer_states=_s("client.streaming", "relay.ingest"),
                transitions={"recv:leave": "departed"},
            ),
            # replaying retained history after a resume; when the
            # resume point has fallen out of the window the broker
            # announces the lost range as a gap before the replay
            "resuming": StateSpec(
                receives=_s("ack", "seek", "leave"),
                sends=_s("frame", "tier", "gap"),
                peer_states=_s("client.streaming", "relay.ingest"),
                transitions={"replayed": "serving",
                             "recv:leave": "departed"},
            ),
            "departed": StateSpec(
                peer_states=_s("client.closed"),
            ),
        },
    ),
    "relay": EndpointSpec(
        name="relay",
        initial="ingest",
        states={
            # upstream face: consumes the broker (or peer relay)
            # stream, acks for credit; tier and gap announcements from
            # upstream must be absorbed here
            "ingest": StateSpec(
                receives=_s("frame", "tier", "gap"),
                sends=_s("ack"),
                peer_states=_s("broker.serving", "broker.resuming",
                               "relay.downstream"),
                transitions={"serve": "downstream"},
            ),
            # downstream face: serves viewers (or peer relays) out of
            # the local store, re-announcing upstream gaps so players
            # skip unrecoverable frames instead of timing out
            "downstream": StateSpec(
                receives=_s("ack", "seek", "leave"),
                sends=_s("frame", "gap"),
                peer_states=_s("client.streaming", "relay.ingest"),
            ),
        },
    ),
    "renderer": EndpointSpec(
        name="renderer",
        initial="rendering",
        states={
            "rendering": StateSpec(
                receives=_s("view", "zoom", "projection", "colormap",
                            "set_codec", "start_renderer"),
                sends=_s("frame"),
                peer_states=_s("display.viewing"),
            ),
        },
    ),
    "display": EndpointSpec(
        name="display",
        initial="viewing",
        states={
            "viewing": StateSpec(
                receives=_s("frame"),
                sends=_s("view", "zoom", "projection", "colormap",
                         "set_codec", "start_renderer"),
                peer_states=_s("renderer.rendering"),
            ),
        },
    ),
}


def spec_errors() -> list[str]:
    """Internal consistency of the spec itself (not of the code):
    unknown tags, dangling peer/transition references.  Used by the
    protoflow analyzer and the test suite; returns problem strings."""
    problems: list[str] = []
    for name, ep in ENDPOINTS.items():
        if ep.initial not in ep.states:
            problems.append(f"{name}: initial state {ep.initial!r} missing")
        for sname, state in ep.states.items():
            where = f"{name}.{sname}"
            for tag in (state.receives | state.sends) - SPEC_TAGS:
                problems.append(f"{where}: unknown tag {tag!r}")
            for peer in state.peer_states:
                pep, _, pstate = peer.partition(".")
                if pep not in ENDPOINTS or \
                        pstate not in ENDPOINTS[pep].states:
                    problems.append(f"{where}: dangling peer {peer!r}")
            for event, target in state.transitions.items():
                if target not in ep.states:
                    problems.append(
                        f"{where}: transition {event!r} -> missing "
                        f"state {target!r}")
                verb, _, tag = event.partition(":")
                if verb == "send" and tag not in state.sends:
                    problems.append(
                        f"{where}: transition on send:{tag} but {tag!r} "
                        f"is not in sends")
                if verb == "recv" and tag not in state.receives:
                    problems.append(
                        f"{where}: transition on recv:{tag} but {tag!r} "
                        f"is not in receives")
    return problems
