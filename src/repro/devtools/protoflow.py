"""Protocol-conformance analyzer for the framed WAN protocol.

Eight PRs of growth turned the ``RVIZ`` framing of
:mod:`repro.daemon.protocol` into a real protocol: credit/ack
delivery, reconnect-with-resume, relay pull-fetch, tier renegotiation,
and gap announcements.  DT501/DT502 check that a *single* dispatch
chain is exhaustive; nothing checked that the two *ends* of the wire
agree.  This module does, in two layers:

1. **Wire-schema extraction (DT901).**  Every ``struct.pack`` /
   ``struct.unpack`` / ``struct.unpack_from`` site (including calls on
   module-level ``struct.Struct`` constants) is harvested with its
   format string.  Sites are paired into *records* — explicitly via a
   ``# wire: <name>`` annotation, or automatically by normalized field
   layout — and each record must have both an encoder and a decoder
   whose formats agree on endianness, field order, and byte widths.
   Formats must name their endianness (``<``, ``>``, or ``!``):
   native-order formats change layout across hosts, which is exactly
   what a WAN protocol cannot tolerate.

2. **Protocol state machines (DT902-DT904).**  ``# speaks:``
   annotations attribute classes and functions to protocol endpoints;
   the analyzer reconstructs each endpoint's send/receive behaviour
   from its dispatch code (``msg.tag == "..."`` chains, ``isinstance``
   kind tests, ``ControlMessage(tag=...)`` / ``send_control("...")``
   construction) and verifies it against the committed automata in
   :mod:`repro.daemon.protocol_spec`: every receivable tag is handled,
   every endpoint owns an unknown-control sink, nothing is sent that
   the peer cannot accept in its paired states, and — when the spec
   module itself is in the analyzed set — no spec state or tag is dead
   code and the spec agrees with the ``CONTROL_TAGS`` registry.

==========  ============================================================
rule        meaning
==========  ============================================================
``DT901``   pack/unpack wire-schema mismatch: encoder and decoder
            formats disagree, a record has only one side, or a format
            leaves endianness to the host
``DT902``   a tag the spec says this endpoint must receive has no
            dispatch branch, or an endpoint that dispatches controls
            has no unknown-control sink
``DT903``   a send the peer cannot accept: the endpoint (or the
            annotated state) is not specified to send that tag, or a
            spec state sends a tag outside its peers' receive sets
``DT904``   dead protocol surface: a dispatch branch for a tag the
            spec says this endpoint never receives, an unreachable
            spec state, a spec send no code exercises, drift between
            the spec and the tag registry, or a ``# speaks:`` naming
            an unknown endpoint/state
==========  ============================================================

Declaring intent
----------------
- ``# speaks: <endpoint>`` on (or directly above) a ``class``/``def``
  line attributes the whole scope to a protocol endpoint;
  ``# speaks: <endpoint>@<state>`` additionally pins the spec state,
  tightening DT902-DT904 from endpoint-level to state-level.  Code
  shared by several endpoints lists them, comma-separated
  (``# speaks: broker@serving, relay@downstream``): everything the
  scope handles or sends is checked against each.  Nested annotations
  override outer ones.
- ``# wire: <name>`` on (or directly above) a pack/unpack call names
  the record the site encodes; same-named sites are cross-checked.  A
  parenthetical containing ``one-sided``, ``vectorized``, or
  ``external`` — e.g. ``# wire: lz-token (vectorized encoder)`` —
  declares that the counterpart intentionally lives outside ``struct``
  (a numpy ``tobytes`` emitter, byte-indexed parsing, or a foreign
  implementation), which exempts the record from the both-sides check.

The pragma, the baseline of grandfathered findings and the command
line are the shared ones in :mod:`repro.devtools.core`.  The committed
baseline holds no DT9xx entry: every finding the analyzer raised at
introduction was either fixed or taught as a false positive with the
annotations above (the triage log is in ``docs/devtools.md``).

This is the one whole-program pass: :func:`scan` turns each file into
facts, and :func:`finish` pairs wire sites and checks the endpoint
automata across all of them — so a finding may land on a file other
than the one whose scan produced the fact.  ``analyze_source`` treats
one string as a self-contained protocol program; the spec-exercise
checks stay off unless the spec module itself is in the analyzed set.

Run with ``make analyze``, ``python -m repro.devtools.protoflow
[paths]``, or as part of ``repro lint`` / ``make lint``.  ``repro lint
--emit-proto-dot`` renders the spec automata to Graphviz
(``docs/protocol_states.dot``).
"""

from __future__ import annotations

import ast
import re
import struct as _struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.daemon.protocol import CONTROL_TAGS
from repro.daemon.protocol_spec import (
    ENDPOINTS,
    SPEC_TAGS,
    spec_errors,
)
from repro.devtools.core import (
    DEFAULT_BASELINE,
    Finding,
    Pass,
    SourceFile,
    key_path,
    load_baseline,
)

__all__ = [
    "PROTOFLOW_RULES",
    "DEFAULT_BASELINE",
    "WireSite",
    "analyze_source",
    "analyze_paths",
    "load_baseline",
    "render_dot",
    "main",
]

PROTOFLOW_RULES: dict[str, str] = {
    "DT901": "pack/unpack wire-schema mismatch (format, width, "
             "endianness, or a one-sided record)",
    "DT902": "receivable tag without a dispatch branch, or endpoint "
             "without an unknown-control sink",
    "DT903": "send outside the peer-acceptable state set",
    "DT904": "dead protocol surface: dead dispatch branch, unreachable "
             "spec state, unexercised spec send, or registry drift",
}

#: analyzed-set suffix that enables the spec-exercise checks (dead spec
#: states/sends, registry drift): they compare the *whole* codebase
#: against the spec, so they only make sense when the spec module is
#: itself part of the run (true for ``repro lint src``), not when a
#: single fixture file is analyzed
SPEC_MODULE_SUFFIX = "daemon/protocol_spec.py"

#: message-kind class names mapped to the pseudo-tag their isinstance
#: dispatch handles ("hello" is pre-state handshake, not conformance-
#: checked; ControlMessage isinstance alone names no tag)
_KIND_PSEUDO_TAGS = {"FrameMessage": "frame"}

#: attribute substrings that mark a counter as an unknown/malformed
#: sink (``self.unknown_controls += 1`` and friends)
_SINK_NAME_PARTS = ("unknown", "malformed")

_SPEAKS_RE = re.compile(
    r"#\s*speaks:\s*([A-Za-z_]\w*(?:@\w+)?(?:\s*,\s*[A-Za-z_]\w*(?:@\w+)?)*)")
_WIRE_RE = re.compile(
    r"#\s*wire:\s*([A-Za-z0-9_.\-]+)(?:\s*\(([^)]*)\))?")
_ONE_SIDED_WORDS = ("one-sided", "vectorized", "external")

_STRUCT_FMT_RE = re.compile(r"(\d*)([cbBhHiIlLqQnNefdspPx?])")


@dataclass
class WireSite:
    """One static ``struct`` pack/unpack call."""

    path: str
    line: int
    op: str  # "pack" | "unpack"
    fmt: str
    record: str | None = None
    one_sided: bool = False

    def normalized(self):
        return _normalize_format(self.fmt)


@dataclass
class _EndpointFacts:
    """What the code of one endpoint actually does, per ``# speaks:``
    group: ``(endpoint, state-or-None)`` -> handled/sent tags."""

    # (state or None) -> {tag: (path, line) of first dispatch}
    handles: dict = field(default_factory=dict)
    # list of (tag, state or None, path, line) send sites
    sends: list = field(default_factory=list)
    # (state or None) -> earliest (path, line) dispatch anchor
    anchors: dict = field(default_factory=dict)
    has_sink: bool = False


@dataclass
class _ModuleFacts:
    """Everything one file contributes to the global checks."""

    path: str
    wire_sites: list = field(default_factory=list)
    endpoints: dict = field(default_factory=dict)  # name -> _EndpointFacts
    findings: list = field(default_factory=list)  # file-local findings


# -- format normalization ------------------------------------------------------


def _normalize_format(fmt: str):
    """``"<3IB"`` -> ``("<", ("I", "I", "I", "B"))``; the endianness
    prefix (or ``""`` when native) plus the expanded field codes."""
    endian = ""
    body = fmt
    if body and body[0] in "@=<>!":
        endian, body = body[0], body[1:]
    fields = []
    for count, code in _STRUCT_FMT_RE.findall(body):
        if code == "s":
            fields.append(f"{count or 1}s")
        else:
            fields.extend([code] * int(count or 1))
    return endian, tuple(fields)


def _format_width(fmt: str) -> int | None:
    try:
        return _struct.calcsize(fmt)
    except _struct.error:
        return None


def _describe_mismatch(ref: str, other: str) -> str:
    """Human diff between two normalized formats for the DT901 message."""
    ref_e, ref_f = _normalize_format(ref)
    oth_e, oth_f = _normalize_format(other)
    if ref_e != oth_e:
        return (f"endianness differs ({ref_e or 'native'} vs "
                f"{oth_e or 'native'})")
    if sorted(ref_f) == sorted(oth_f):
        return f"field order differs ({''.join(ref_f)} vs {''.join(oth_f)})"
    rw, ow = _format_width(ref), _format_width(other)
    if rw is not None and ow is not None and rw != ow:
        return f"byte widths differ ({rw} vs {ow} bytes)"
    return f"field layout differs ({''.join(ref_f)} vs {''.join(oth_f)})"


# -- comment annotations -------------------------------------------------------


def _annotation_at(comments, lineno, end_lineno, regex):
    """First regex match in the comments on ``lineno - 1`` (the line
    above) through ``end_lineno`` (trailing on any line of the node)."""
    for line in range(lineno - 1, (end_lineno or lineno) + 1):
        text = comments.get(line)
        if text:
            m = regex.search(text)
            if m:
                return m
    return None


# -- per-module scan -----------------------------------------------------------


def _const_str(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _ModuleScan:
    """Single-file fact extraction plus the file-local checks."""

    def __init__(self, sf: SourceFile):
        self.tree = sf.tree
        self.path = sf.path
        self.facts = _ModuleFacts(path=sf.path)
        self.comments = sf.comments
        self.dotted = sf.dotted
        self.struct_consts: dict[str, str] = {}  # NAME -> format string
        # a trailing `# speaks:` on a class line is also "the line
        # above" for a def on the next line; report each bad
        # annotation once, not once per scope it attaches to
        self._speaks_reported: set[str] = set()
        self._collect_struct_consts()

    def _collect_struct_consts(self):
        """Module-level ``_LEN = struct.Struct(">I")`` constants, so
        ``_LEN.pack(...)`` sites resolve to the right format."""
        for node in self.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            value = node.value
            if (isinstance(target, ast.Name)
                    and isinstance(value, ast.Call)
                    and self.dotted(value.func) == "struct.Struct"
                    and value.args):
                fmt = _const_str(value.args[0])
                if fmt is not None:
                    self.struct_consts[target.id] = fmt

    # -- entry point -----------------------------------------------------------

    def run(self) -> _ModuleFacts:
        self._walk_scope(self.tree, speakers=())
        return self.facts

    def _finding(self, line: int, rule: str, message: str, key: str):
        self.facts.findings.append(
            Finding.keyed(self.path, line, rule, message, key))

    # -- scope walk with # speaks: context -------------------------------------

    def _walk_scope(self, node, speakers):
        """``speakers`` is the ``(endpoint, state-or-None)`` tuple the
        enclosing scopes attribute this code to."""
        for child in ast.iter_child_nodes(node):
            inner = speakers
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                m = _annotation_at(self.comments, child.lineno,
                                   child.lineno, _SPEAKS_RE)
                if m:
                    inner = self._declared_speakers(m.group(1),
                                                    child.lineno) or speakers
            self._inspect_node(child, inner)
            self._walk_scope(child, inner)

    def _declared_speakers(self, text: str, line: int):
        """The valid ``(endpoint, state)`` pairs a ``# speaks:`` list
        names; an unknown endpoint is dropped, an unknown state widens
        to the whole endpoint, and each is reported once."""
        speakers = []
        for item in text.split(","):
            ep, _, st = item.strip().partition("@")
            st = st or None
            if ep not in ENDPOINTS:
                if f"speaks.{ep}" not in self._speaks_reported:
                    self._speaks_reported.add(f"speaks.{ep}")
                    self._finding(
                        line, "DT904",
                        f"`# speaks: {ep}` names an endpoint "
                        f"absent from protocol_spec (known: "
                        f"{', '.join(sorted(ENDPOINTS))})",
                        f"speaks.{ep}")
                continue
            if st is not None and st not in ENDPOINTS[ep].states:
                if f"speaks.{ep}.{st}" not in self._speaks_reported:
                    self._speaks_reported.add(f"speaks.{ep}.{st}")
                    self._finding(
                        line, "DT904",
                        f"`# speaks: {ep}@{st}` names a state "
                        f"absent from the {ep} spec (known: "
                        f"{', '.join(sorted(ENDPOINTS[ep].states))})",
                        f"speaks.{ep}.{st}")
                st = None
            speakers.append((ep, st))
        return tuple(speakers)

    def _endpoint_facts(self, endpoint) -> _EndpointFacts:
        return self.facts.endpoints.setdefault(endpoint, _EndpointFacts())

    # -- node inspection -------------------------------------------------------

    def _inspect_node(self, node, speakers):
        if isinstance(node, ast.Call):
            if not self._inspect_wire_call(node):
                for endpoint, state in speakers:
                    self._inspect_endpoint_call(node, endpoint, state)
        elif isinstance(node, ast.Compare):
            for tag in _tag_compare_literals(node):
                for endpoint, state in speakers:
                    self._record_handle(endpoint, state, tag, node.lineno)
        elif isinstance(node, (ast.AugAssign, ast.Assign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                name = target.attr if isinstance(target, ast.Attribute) \
                    else getattr(target, "id", "")
                if any(part in name.lower() for part in _SINK_NAME_PARTS):
                    for endpoint, _ in speakers:
                        self._endpoint_facts(endpoint).has_sink = True

    def _inspect_wire_call(self, node: ast.Call) -> bool:
        """Record a ``struct`` pack/unpack site; True when it was one."""
        dotted = self.dotted(node.func)
        if dotted in ("struct.pack", "struct.pack_into"):
            self._record_wire(node, "pack", node.args and
                              _const_str(node.args[0]))
            return True
        if dotted in ("struct.unpack", "struct.unpack_from",
                      "struct.iter_unpack"):
            self._record_wire(node, "unpack", node.args and
                              _const_str(node.args[0]))
            return True
        if isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id in self.struct_consts:
            fmt = self.struct_consts[node.func.value.id]
            if node.func.attr in ("pack", "pack_into"):
                self._record_wire(node, "pack", fmt)
                return True
            if node.func.attr in ("unpack", "unpack_from", "iter_unpack"):
                self._record_wire(node, "unpack", fmt)
                return True
        return False

    def _inspect_endpoint_call(self, node: ast.Call, endpoint, state):
        dotted = self.dotted(node.func)
        basename = dotted.rsplit(".", 1)[-1] if dotted else None
        if basename == "isinstance" and len(node.args) == 2:
            kind = self.dotted(node.args[1])
            kind = kind.rsplit(".", 1)[-1] if kind else None
            if kind in _KIND_PSEUDO_TAGS:
                self._record_handle(endpoint, state,
                                    _KIND_PSEUDO_TAGS[kind], node.lineno)
            return
        if basename == "ControlMessage":
            tag = self._ctor_tag(node)
            if tag is not None:
                self._record_send(endpoint, state, tag, node.lineno)
            return
        if basename == "FrameMessage":
            self._record_send(endpoint, state, "frame", node.lineno)
            return
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "send_control" and node.args:
            tag = _const_str(node.args[0])
            if tag is not None:
                self._record_send(endpoint, state, tag, node.lineno)

    @staticmethod
    def _ctor_tag(node: ast.Call) -> str | None:
        for kw in node.keywords:
            if kw.arg == "tag":
                return _const_str(kw.value)
        if node.args:
            return _const_str(node.args[0])
        return None

    # -- fact recording + file-local rules -------------------------------------

    def _record_wire(self, node: ast.Call, op: str, fmt):
        if not fmt:
            return  # dynamic format string: nothing static to check
        m = _annotation_at(self.comments, node.lineno,
                           getattr(node, "end_lineno", node.lineno),
                           _WIRE_RE)
        record = m.group(1) if m else None
        extra = (m.group(2) or "").lower() if m else ""
        one_sided = any(word in extra for word in _ONE_SIDED_WORDS)
        site = WireSite(path=self.path, line=node.lineno, op=op, fmt=fmt,
                        record=record, one_sided=one_sided)
        self.facts.wire_sites.append(site)
        endian, _ = site.normalized()
        if endian not in ("<", ">", "!"):
            self._finding(
                node.lineno, "DT901",
                f"wire format {fmt!r} uses native byte order; a WAN "
                f"protocol must pin endianness explicitly (<, >, or !)",
                f"endian.{fmt}")

    def _record_handle(self, endpoint, state, tag, line):
        facts = self._endpoint_facts(endpoint)
        facts.handles.setdefault(state, {}).setdefault(tag,
                                                       (self.path, line))
        anchor = facts.anchors.get(state)
        if anchor is None or (self.path, line) < anchor:
            facts.anchors[state] = (self.path, line)
        spec = ENDPOINTS[endpoint]
        expected = spec.states[state].receives if state \
            else spec.receivable()
        if tag in SPEC_TAGS and tag not in expected:
            where = f"state {state!r} of {endpoint}" if state \
                else f"endpoint {endpoint!r}"
            self._finding(
                line, "DT904",
                f"dead dispatch branch: {where} never receives "
                f"{tag!r} per protocol_spec (receivable: "
                f"{', '.join(sorted(expected)) or 'nothing'})",
                f"dead.{endpoint}.{state or '*'}.{tag}")

    def _record_send(self, endpoint, state, tag, line):
        facts = self._endpoint_facts(endpoint)
        facts.sends.append((tag, state, self.path, line))
        if tag not in SPEC_TAGS:
            return  # unknown tag literals are DT501's department
        spec = ENDPOINTS[endpoint]
        if state:
            allowed = spec.states[state].sends
            if tag not in allowed:
                peers = sorted(spec.states[state].peer_states)
                self._finding(
                    line, "DT903",
                    f"{endpoint}@{state} sends {tag!r} but the spec "
                    f"allows only "
                    f"{{{', '.join(sorted(allowed)) or ''}}} in that "
                    f"state (peers: {', '.join(peers)})",
                    f"send.{endpoint}.{state}.{tag}")
        elif tag not in spec.sendable():
            self._finding(
                line, "DT903",
                f"endpoint {endpoint!r} sends {tag!r} but no state of "
                f"its spec automaton may send it — the peer cannot "
                f"accept it (sendable: "
                f"{', '.join(sorted(spec.sendable())) or 'nothing'})",
                f"send.{endpoint}.*.{tag}")


def _tag_compare_literals(node: ast.Compare) -> list[str]:
    """Tags an ``x.tag == "lit"`` / ``x.tag in ("a", "b")`` dispatch
    test handles (equality and membership only; negations guard, they
    do not handle)."""
    if len(node.ops) != 1:
        return []
    if not (isinstance(node.left, ast.Attribute)
            and node.left.attr == "tag"):
        return []
    comparator = node.comparators[0]
    if isinstance(node.ops[0], ast.Eq):
        lit = _const_str(comparator)
        return [lit] if lit is not None else []
    if isinstance(node.ops[0], ast.In) and \
            isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
        lits = [_const_str(el) for el in comparator.elts]
        return [lit for lit in lits if lit is not None]
    return []


# -- global checks over the merged facts ---------------------------------------


def _merge_endpoint_facts(all_facts):
    merged: dict[str, _EndpointFacts] = {}
    for facts in all_facts:
        for name, ep in facts.endpoints.items():
            out = merged.setdefault(name, _EndpointFacts())
            for state, handles in ep.handles.items():
                bucket = out.handles.setdefault(state, {})
                for tag, where in handles.items():
                    bucket.setdefault(tag, where)
            out.sends.extend(ep.sends)
            for state, anchor in ep.anchors.items():
                prev = out.anchors.get(state)
                if prev is None or anchor < prev:
                    out.anchors[state] = anchor
            out.has_sink = out.has_sink or ep.has_sink
    return merged


def _check_wire_schemas(all_facts) -> list[Finding]:
    """DT901 over the merged wire sites: named records must agree and
    have both sides; unnamed formats must pair up by layout."""
    findings: list[Finding] = []
    sites = [s for facts in all_facts for s in facts.wire_sites]

    def emit(site, message, key):
        findings.append(
            Finding.keyed(site.path, site.line, "DT901", message, key))

    named: dict[str, list[WireSite]] = {}
    auto: dict[tuple, list[WireSite]] = {}
    for site in sites:
        if site.record:
            named.setdefault(site.record, []).append(site)
        else:
            auto.setdefault(site.normalized(), []).append(site)

    for record, group in sorted(named.items()):
        group.sort(key=lambda s: (s.op != "pack", s.path, s.line))
        ref = group[0]
        for site in group[1:]:
            if site.normalized() != ref.normalized():
                emit(site,
                     f"wire record {record!r}: {site.op} format "
                     f"{site.fmt!r} does not match {ref.op} format "
                     f"{ref.fmt!r} at {key_path(ref.path)}:"
                     f"{ref.line} — {_describe_mismatch(ref.fmt, site.fmt)}",
                     f"wire.{record}")
        ops = {s.op for s in group}
        if len(ops) == 1 and not any(s.one_sided for s in group):
            only = next(iter(ops))
            other = "unpack" if only == "pack" else "pack"
            emit(ref,
                 f"wire record {record!r} has {only} sites but no "
                 f"{other} in the analyzed set; mark the annotation "
                 f"one-sided if the counterpart is vectorized/external",
                 f"wire.{record}.{only}-only")

    for layout, group in sorted(auto.items(),
                                key=lambda kv: (kv[1][0].path,
                                                kv[1][0].line)):
        group.sort(key=lambda s: (s.path, s.line))
        ops = {s.op for s in group}
        if len(ops) == 1 and not any(s.one_sided for s in group):
            only = next(iter(ops))
            other = "unpack" if only == "pack" else "pack"
            ref = group[0]
            emit(ref,
                 f"{only} format {ref.fmt!r} has no matching {other} "
                 f"anywhere in the analyzed set — one side of the wire "
                 f"cannot speak this layout (name both sides with "
                 f"`# wire: <record>` or mark it one-sided)",
                 f"orphan.{ref.fmt}.{only}")
    return findings


def _check_endpoints(merged) -> list[Finding]:
    """DT902 over the merged per-endpoint facts: every receivable tag
    handled per annotated group, and a sink per dispatching endpoint."""
    findings: list[Finding] = []
    for name in sorted(merged):
        facts = merged[name]
        spec = ENDPOINTS.get(name)
        if spec is None:
            continue
        for state in sorted(facts.anchors,
                            key=lambda s: (s is None, s or "")):
            path, line = facts.anchors[state]
            handled = set(facts.handles.get(state, ()))
            if state is None:
                # endpoint-level scopes also see the tags their
                # state-pinned siblings handle (one class, many faces)
                for other in facts.handles.values():
                    handled |= set(other)
                expected = spec.receivable()
            else:
                expected = spec.states[state].receives
            for tag in sorted(expected - handled):
                where = f"{name}@{state}" if state else name
                findings.append(Finding.keyed(
                    path, line, "DT902",
                    f"{where} never dispatches receivable tag "
                    f"{tag!r} (spec: protocol_spec.ENDPOINTS"
                    f"[{name!r}]); add a handler branch or the "
                    f"peer's send is silently dropped",
                    f"{name}.{state or '*'}.{tag}"))
        if facts.anchors and not facts.has_sink:
            state, (path, line) = sorted(
                facts.anchors.items(),
                key=lambda kv: kv[1])[0]
            findings.append(Finding.keyed(
                path, line, "DT902",
                f"endpoint {name!r} dispatches protocol traffic "
                f"but owns no unknown-control sink: unrecognized "
                f"tags vanish without a counter (add e.g. "
                f"`self.unknown_controls += 1` in the else branch)",
                f"{name}.unknown-sink"))
    return findings


def _check_spec_exercise(merged, spec_path: str) -> list[Finding]:
    """Spec-gated DT903/DT904: the spec itself must be consistent,
    reachable, exercised by code, and in sync with the registry."""
    findings: list[Finding] = []

    def emit(rule, message, key):
        findings.append(Finding.keyed(spec_path, 1, rule, message, key))

    for problem in spec_errors():
        emit("DT904", f"protocol_spec inconsistency: {problem}",
             f"spec.invalid.{problem.split(':')[0]}")

    for name, ep in sorted(ENDPOINTS.items()):
        # reachability from the initial state over the transition graph
        seen = {ep.initial}
        frontier = [ep.initial]
        while frontier:
            state = frontier.pop()
            for target in ep.states.get(
                    state, type("S", (), {"transitions": {}})
            ).transitions.values():
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        for state in sorted(set(ep.states) - seen):
            emit("DT904",
                 f"spec state {name}.{state} is unreachable from "
                 f"{name}.{ep.initial} via the transition graph",
                 f"spec.unreachable.{name}.{state}")
        # peer acceptance: everything a state sends must be receivable
        # in every state it may be paired with
        for sname, state in sorted(ep.states.items()):
            for peer in sorted(state.peer_states):
                pep, _, pstate = peer.partition(".")
                peer_spec = ENDPOINTS.get(pep)
                if peer_spec is None or pstate not in peer_spec.states:
                    continue  # spec_errors already reported it
                refused = state.sends - peer_spec.states[pstate].receives
                for tag in sorted(refused):
                    emit("DT903",
                         f"spec: {name}.{sname} sends {tag!r} but peer "
                         f"state {peer} does not receive it",
                         f"spec.refused.{name}.{sname}.{tag}.{peer}")
        # dead spec sends: the spec promises traffic no code emits
        facts = merged.get(name)
        if facts is not None and (facts.anchors or facts.sends):
            sent = {tag for tag, _, _, _ in facts.sends}
            for tag in sorted(ep.sendable() - sent):
                emit("DT904",
                     f"spec says endpoint {name!r} sends {tag!r} but "
                     f"no annotated code constructs that message — "
                     f"dead spec surface or missing implementation",
                     f"spec.unsent.{name}.{tag}")

    spec_receives = set()
    spec_sends = set()
    for ep in ENDPOINTS.values():
        spec_receives |= ep.receivable()
        spec_sends |= ep.sendable()
    for tag in sorted(CONTROL_TAGS - spec_receives):
        emit("DT904",
             f"registry drift: CONTROL_TAGS registers {tag!r} but no "
             f"spec endpoint receives it",
             f"spec.drift.unreceived.{tag}")
    for tag in sorted(CONTROL_TAGS - spec_sends):
        emit("DT904",
             f"registry drift: CONTROL_TAGS registers {tag!r} but no "
             f"spec endpoint sends it",
             f"spec.drift.unsent.{tag}")
    return findings


# -- the pass: per-file scan, whole-program finish ------------------------------


def scan(sf: SourceFile) -> _ModuleFacts:
    """One file's wire sites, endpoint facts and file-local findings."""
    return _ModuleScan(sf).run()


def finish(all_facts: list[_ModuleFacts]) -> list[Finding]:
    """The cross-file checks over every scanned file's facts.  The
    spec-exercise checks activate when the spec module is among them."""
    merged = _merge_endpoint_facts(all_facts)
    findings = [f for facts in all_facts for f in facts.findings]
    findings += _check_wire_schemas(all_facts)
    findings += _check_endpoints(merged)
    spec_files = [facts.path for facts in all_facts
                  if Path(facts.path).as_posix().endswith(
                      SPEC_MODULE_SUFFIX)]
    if spec_files:
        findings += _check_spec_exercise(merged, spec_files[0])
    return findings


# -- Graphviz rendering of the spec --------------------------------------------


def render_dot(endpoints=None) -> str:
    """The spec automata as a deterministic Graphviz digraph: one
    cluster per endpoint, solid edges for transitions, dashed gray
    edges for the tags a state sends to each paired peer state."""
    endpoints = endpoints if endpoints is not None else ENDPOINTS
    lines = [
        "// generated by `repro lint --emit-proto-dot` from",
        "// src/repro/daemon/protocol_spec.py -- do not edit by hand",
        "digraph protocol {",
        "  rankdir=LR;",
        "  fontname=\"Helvetica\";",
        "  node [shape=box, style=rounded, fontname=\"Helvetica\"];",
        "  edge [fontname=\"Helvetica\", fontsize=10];",
    ]
    for name in sorted(endpoints):
        ep = endpoints[name]
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append(f"    label=\"{name}\";")
        lines.append(f"    \"{name}.__start\" [shape=point, label=\"\"];")
        for sname in sorted(ep.states):
            state = ep.states[sname]
            recv = ", ".join(sorted(state.receives)) or "-"
            lines.append(
                f"    \"{name}.{sname}\" "
                f"[label=\"{sname}\\nrecv: {recv}\"];")
        lines.append(f"    \"{name}.__start\" -> \"{name}.{ep.initial}\";")
        for sname in sorted(ep.states):
            for event in sorted(ep.states[sname].transitions):
                target = ep.states[sname].transitions[event]
                lines.append(
                    f"    \"{name}.{sname}\" -> \"{name}.{target}\" "
                    f"[label=\"{event}\"];")
        lines.append("  }")
    for name in sorted(endpoints):
        ep = endpoints[name]
        for sname in sorted(ep.states):
            state = ep.states[sname]
            if not state.sends:
                continue
            label = ", ".join(sorted(state.sends))
            for peer in sorted(state.peer_states):
                lines.append(
                    f"  \"{name}.{sname}\" -> \"{peer}\" "
                    f"[style=dashed, color=gray50, "
                    f"label=\"{label}\", constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


PASS = Pass("protoflow", PROTOFLOW_RULES, scan, finish=finish,
            render_dot=render_dot)
analyze_source = PASS.analyze_source
analyze_paths = PASS.analyze_paths
main = PASS.main


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
