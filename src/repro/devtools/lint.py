"""AST-based lint pass with repo-specific concurrency/protocol rules.

The general-purpose linters this repo could run do not know its
conventions: that every swallowed exception must be counted (the
handshake-reject pattern from the TCP daemon), that polling loops must
sleep on an ``Event``/``Condition`` rather than busy-wait, that the
deterministic fault/codec paths must never read the wall clock or the
global RNG, and that control-message dispatch must stay in sync with
:data:`repro.daemon.protocol.CONTROL_TAGS`.  This module encodes those
conventions as checkable rules:

==========  ============================================================
rule        meaning
==========  ============================================================
``DT101``   bare/broad ``except`` that neither re-raises nor accounts
            for the error (counter increment / recorded reject)
``DT201``   ``time.sleep`` inside a ``while`` loop — a busy-wait poll;
            wait on a ``Condition``/``Event`` instead
``DT301``   ``threading.Thread(...)`` with no ``daemon=`` keyword and no
            ``.join(...)`` in the enclosing scope — a leak-by-default
``DT401``   wall-clock or global-RNG call (``time.time``, ``random.*``,
            ``np.random.*``) inside a deterministic fault/codec path
``DT501``   dispatch on a control ``tag`` literal that is not in the
            protocol registry (typo'd or unregistered opcode) — covers
            ``==``/``!=`` compares and ``in``/``not in`` membership
            tests over tag tuples
``DT502``   an ``if/elif`` chain over ``.tag`` — or over message kinds
            via ``isinstance(msg, FrameMessage)``-style tests — with no
            ``else``: the dispatch silently ignores unknown opcodes
``DT601``   mutable default argument (list/dict/set literal or call)
==========  ============================================================

``repro lint`` also runs the ``DT701``–``DT704`` static lockset race
analyzer from :mod:`repro.devtools.lockset` (guarded-by inference over
``self._*`` fields), the ``DT801``–``DT804`` resource-lifecycle
analyzer from :mod:`repro.devtools.resource_flow` (exception-edge leak,
double-close, use-after-close, close-graph completeness), and the
``DT901``–``DT904`` protocol-conformance analyzer from
:mod:`repro.devtools.protoflow` (wire-schema cross-checking, endpoint
automata vs :mod:`repro.daemon.protocol_spec`).  All four are passes
under the one driver in :mod:`repro.devtools.core`: every file is
parsed once and handed to each, and the three deep analyzers are
filtered through the one committed baseline of grandfathered findings
(``--baseline`` / ``--no-baseline`` / ``--update-baseline``).
``--json`` emits the combined findings machine-readably; ``--sarif
FILE`` additionally writes them as SARIF 2.1.0 for code-scanning
upload; ``--emit-proto-dot FILE`` renders the protocol spec automata
to Graphviz and exits; ``--fail-on-stale`` turns stale baseline
entries into a failing exit.  See ``docs/devtools.md``.

Escape hatch: append ``# lint: disable=DT201`` (comma-separated ids, or
``all``) to the offending line.  Run with ``repro lint [paths...]`` or
``make lint``; exit status is non-zero when findings remain.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from repro.devtools import core, lockset, protoflow, resource_flow
from repro.devtools.core import EXCLUDED_DIR_NAMES, Finding, SourceFile

__all__ = ["Finding", "RULES", "PASSES", "lint_source", "lint_paths", "main"]

RULES: dict[str, str] = {
    "DT101": "broad except without re-raise or accounting counter",
    "DT201": "time.sleep busy-wait inside a while loop",
    "DT301": "threading.Thread without daemon= or a join in scope",
    "DT401": "wall clock / global RNG in a deterministic path",
    "DT501": "control tag not in the protocol registry",
    "DT502": "tag/kind dispatch chain without an else fallback",
    "DT601": "mutable default argument",
}

#: modules whose behaviour must be a pure function of their inputs and
#: seeds: the fault injector (reproducible WAN traces), the codecs
#: (golden-bytes format stability), the relay tier (deterministic
#: failover/replay traces), and the encode pool (exact crash replay).
#: DT401 applies only here.
DETERMINISTIC_PATH_MARKERS = (
    "repro/compress/",
    "repro/net/faults.py",
    "repro/relay/",
    "repro/serve/encode_pool.py",
)

_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
}
_SEEDED_RNG_CTORS = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
}
_MUTABLE_CTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "collections.deque",
    "collections.defaultdict",
    "collections.OrderedDict",
    "collections.Counter",
}
#: call names that count as "accounting for" a swallowed exception
_ACCOUNTING_HINTS = ("count", "note", "record", "reject", "log")


def _control_tags() -> frozenset[str]:
    from repro.daemon.protocol import CONTROL_TAGS

    return CONTROL_TAGS


class _Analyzer:
    """One file's lint pass: applies every rule over the shared
    :class:`~repro.devtools.core.SourceFile` (parent links, import
    aliases resolved to canonical dotted names)."""

    def __init__(self, sf: SourceFile, deterministic: bool | None = None):
        self.tree = sf.tree
        self.path = sf.path
        self.findings: list[Finding] = []
        self.parents = sf.parents
        self._dotted = sf.dotted
        if deterministic is None:
            deterministic = any(
                marker in Path(sf.path).as_posix()
                for marker in DETERMINISTIC_PATH_MARKERS
            )
        self.deterministic = deterministic

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(path=self.path, line=node.lineno, rule=rule, message=message)
        )

    def _enclosing(self, node: ast.AST, kinds) -> ast.AST | None:
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, kinds):
                return cur
            cur = self.parents.get(cur)
        return None

    # -- rules ---------------------------------------------------------------

    def run(self) -> list[Finding]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ExceptHandler):
                self._check_broad_except(node)
            elif isinstance(node, ast.Call):
                self._check_sleep_poll(node)
                self._check_thread_join(node)
                if self.deterministic:
                    self._check_wallclock(node)
            elif isinstance(node, ast.Compare):
                self._check_tag_literal(node)
            elif isinstance(node, ast.If):
                self._check_tag_chain(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_mutable_defaults(node)
        return self.findings

    # DT101 ------------------------------------------------------------------

    def _is_broad_type(self, node: ast.AST | None) -> bool:
        if node is None:
            return True  # bare except
        if isinstance(node, ast.Tuple):
            return any(self._is_broad_type(el) for el in node.elts)
        return self._dotted(node) in ("Exception", "BaseException")

    def _accounts_for_error(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, (ast.Raise, ast.AugAssign)):
                return True
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name and (
                    name == "append"
                    or any(hint in name.lower() for hint in _ACCOUNTING_HINTS)
                ):
                    return True
        return False

    def _check_broad_except(self, node: ast.ExceptHandler) -> None:
        if self._is_broad_type(node.type) and not self._accounts_for_error(node):
            what = "bare except" if node.type is None else "broad except"
            self._report(
                node,
                "DT101",
                f"{what} that neither re-raises nor accounts for the error; "
                "narrow the exception or count it "
                "(handshake-reject pattern: see TcpDaemonServer._handshake)",
            )

    # DT201 ------------------------------------------------------------------

    def _check_sleep_poll(self, node: ast.Call) -> None:
        if self._dotted(node.func) != "time.sleep":
            return
        cur = self.parents.get(node)
        while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            if isinstance(cur, ast.While):
                self._report(
                    node,
                    "DT201",
                    "time.sleep inside a while loop is a busy-wait poll; "
                    "wait on a threading.Event/Condition with a timeout",
                )
                return
            cur = self.parents.get(cur)

    # DT301 ------------------------------------------------------------------

    def _check_thread_join(self, node: ast.Call) -> None:
        if self._dotted(node.func) != "threading.Thread":
            return
        if any(kw.arg == "daemon" for kw in node.keywords):
            return
        scope = self._enclosing(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or self.tree
        for other in ast.walk(scope):
            if (
                isinstance(other, ast.Call)
                and isinstance(other.func, ast.Attribute)
                and other.func.attr == "join"
            ):
                return
        self._report(
            node,
            "DT301",
            "thread spawned without daemon= and never joined in this "
            "scope; pass daemon=True or join it on shutdown",
        )

    # DT401 ------------------------------------------------------------------

    def _check_wallclock(self, node: ast.Call) -> None:
        name = self._dotted(node.func)
        if name is None:
            return
        offending = (
            name in _WALLCLOCK_CALLS
            or (
                (name.startswith("random.") or name.startswith("numpy.random."))
                and name not in _SEEDED_RNG_CTORS
            )
        )
        if offending:
            self._report(
                node,
                "DT401",
                f"{name} in a deterministic fault/codec path; use a seeded "
                "random.Random/np.random.default_rng or take time as input",
            )

    # DT501 ------------------------------------------------------------------

    @staticmethod
    def _tag_literals(node: ast.Compare) -> list[str]:
        """String literals a ``.tag`` test dispatches on: ``==``/``!=``
        compares plus ``in``/``not in`` membership over literal
        tuples/lists/sets."""
        if len(node.ops) != 1:
            return []
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        if isinstance(op, (ast.Eq, ast.NotEq)):
            for attr, lit in ((left, right), (right, left)):
                if (
                    isinstance(attr, ast.Attribute)
                    and attr.attr == "tag"
                    and isinstance(lit, ast.Constant)
                    and isinstance(lit.value, str)
                ):
                    return [lit.value]
            return []
        if (
            isinstance(op, (ast.In, ast.NotIn))
            and isinstance(left, ast.Attribute)
            and left.attr == "tag"
            and isinstance(right, (ast.Tuple, ast.List, ast.Set))
        ):
            return [
                el.value for el in right.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            ]
        return []

    def _check_tag_literal(self, node: ast.Compare) -> None:
        for tag in self._tag_literals(node):
            if tag not in _control_tags():
                self._report(
                    node,
                    "DT501",
                    f"control tag {tag!r} is not in "
                    "repro.daemon.protocol.CONTROL_TAGS; register it or "
                    "fix the typo",
                )

    # DT502 ------------------------------------------------------------------

    def _test_is_tag_dispatch(self, test: ast.AST) -> bool:
        """Positive dispatch tests only: equality and membership (a
        negated guard filters, it does not dispatch)."""
        return any(
            isinstance(n, ast.Compare)
            and len(n.ops) == 1
            and isinstance(n.ops[0], (ast.Eq, ast.In))
            and self._tag_literals(n)
            for n in ast.walk(test)
        )

    @staticmethod
    def _test_is_kind_dispatch(test: ast.AST) -> bool:
        """An ``isinstance(msg, FrameMessage)``-style test over the
        protocol message kinds (any ``*Message`` class name)."""
        for n in ast.walk(test):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance"
                and len(n.args) == 2
            ):
                kinds = n.args[1]
                elts = kinds.elts if isinstance(kinds, ast.Tuple) \
                    else [kinds]
                for el in elts:
                    base = el.attr if isinstance(el, ast.Attribute) \
                        else getattr(el, "id", "")
                    if base.endswith("Message"):
                        return True
        return False

    def _check_tag_chain(self, node: ast.If) -> None:
        parent = self.parents.get(node)
        if isinstance(parent, ast.If) and parent.orelse == [node]:
            return  # not the head of the chain
        tag_branches = 0
        kind_branches = 0
        cur: ast.AST = node
        while isinstance(cur, ast.If):
            if self._test_is_tag_dispatch(cur.test):
                tag_branches += 1
            elif self._test_is_kind_dispatch(cur.test):
                kind_branches += 1
            if len(cur.orelse) == 1 and isinstance(cur.orelse[0], ast.If):
                cur = cur.orelse[0]
            else:
                break
        if (
            (tag_branches >= 2 or kind_branches >= 2)
            and isinstance(cur, ast.If)
            and not cur.orelse
        ):
            what = "tag" if tag_branches >= 2 else "message-kind"
            self._report(
                node,
                "DT502",
                f"{what} dispatch chain has no else fallback: unknown "
                "opcodes are silently ignored; count or reject them "
                "explicitly",
            )

    # DT601 ------------------------------------------------------------------

    def _check_mutable_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and self._dotted(default.func) in _MUTABLE_CTORS
            )
            if mutable:
                self._report(
                    default,
                    "DT601",
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )


def _scan(sf: SourceFile) -> list[Finding]:
    return _Analyzer(sf).run()


#: the DT1xx-DT6xx pass: walks tests/ too, never baselined
PASS = core.Pass("lint", RULES, _scan, skip=EXCLUDED_DIR_NAMES,
                 baselined=False)

#: everything ``repro lint`` runs, in report-merge order
PASSES = [PASS, lockset.PASS, resource_flow.PASS, protoflow.PASS]


def lint_source(source: str, path: str = "<string>",
                deterministic: bool | None = None) -> list[Finding]:
    """Lint one source string; returns findings not pragma-disabled.

    ``deterministic`` forces DT401 on/off; ``None`` derives it from
    ``path`` against :data:`DETERMINISTIC_PATH_MARKERS`.
    """
    sf = SourceFile(source, path)
    return core.kept(_Analyzer(sf, deterministic).run(), [sf])


#: lint every ``.py`` under the given paths (fixture corpora excluded)
lint_paths = PASS.analyze_paths


def main(argv: list[str] | None = None) -> int:
    """``repro lint``: the :func:`repro.devtools.core.main` driver over
    all four passes."""
    return core.main(PASSES, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
