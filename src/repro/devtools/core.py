"""The analyzer core: everything the four static passes share, once.

:mod:`~repro.devtools.lint` (DT1xx-DT6xx), :mod:`~repro.devtools.lockset`
(DT7xx), :mod:`~repro.devtools.resource_flow` (DT8xx) and
:mod:`~repro.devtools.protoflow` (DT9xx) each supply a rule table and a
``scan`` over one parsed file; this leaf module (it imports neither the
analyzers nor the runtime) owns the rest:

- :class:`Finding` — one violation at one location, plus the
  line-independent ``key`` a baseline grandfathers it by;
- :class:`SourceFile` — a file parsed and tokenized **once per run**
  and handed to every pass: the ``ast`` tree, comments by line, the
  lines a ``# lint: disable=DT201`` pragma (comma-separated ids, or
  ``all``) silences, import aliases and :meth:`~SourceFile.dotted`
  name resolution, parent links on demand;
- :func:`iter_files` — the file walk and what it prunes;
- :class:`Baseline` / :func:`load_baseline` — the one committed file of
  grandfathered findings (:data:`DEFAULT_BASELINE`);
- :class:`Pass` — a rule table bound to its scan, with the pragma
  filter and the one sort order applied to whatever it finds;
- :func:`main` — the command-line driver: ``repro lint`` runs it over
  all four passes, ``python -m repro.devtools.lockset`` (and the other
  two deep analyzers) over one.

See ``docs/devtools.md`` for the workflow and what a new pass supplies.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

__all__ = [
    "Finding",
    "SourceFile",
    "Baseline",
    "Pass",
    "DEFAULT_BASELINE",
    "EXCLUDED_DIR_NAMES",
    "SKIPPED_TREE_PARTS",
    "iter_files",
    "kept",
    "key_path",
    "load_baseline",
    "main",
]

#: the committed baseline, resolved against the working directory (the
#: repo root for ``make``/CI invocations)
DEFAULT_BASELINE = "lint_baseline.json"

#: directory names never walked (the fixture corpus deliberately
#: violates every rule)
EXCLUDED_DIR_NAMES = frozenset(
    {"lint_fixtures", "__pycache__", ".git", ".pytest_cache"}
)

#: directory names the deep analyzers (DT7xx-DT9xx) also prune:
#: test/bench/example code spawns threads and opens sockets
#: deliberately and is exercised under the *runtime* tracer instead
SKIPPED_TREE_PARTS = EXCLUDED_DIR_NAMES | {"tests", "benchmarks", "examples"}

_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")
_KEY_RULE_RE = re.compile(r":(DT\d{3}):")


def key_path(path: str) -> str:
    """Stable path form for baseline keys: relative to the package root
    when possible, so absolute vs relative invocations agree."""
    posix = Path(path).as_posix()
    idx = posix.rfind("src/repro/")
    if idx >= 0:
        return posix[idx + len("src/"):]
    return posix


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``key`` is the line-independent baseline key
    (``repro/<module>:RULE:Class.field``, so unrelated edits do not
    churn the baseline); the DT1xx-DT6xx rules are never grandfathered
    and leave it empty.
    """

    path: str
    line: int
    rule: str
    message: str
    key: str = ""

    def __str__(self) -> str:  # "path:line: DTxxx message" (editor-clickable)
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    @classmethod
    def keyed(cls, path: str, line: int, rule: str, message: str,
              context: str) -> "Finding":
        """A finding whose baseline key is ``<key_path>:<rule>:<context>``."""
        return cls(path, line, rule, message,
                   key=f"{key_path(path)}:{rule}:{context}")


class SourceFile:
    """One source file, parsed and tokenized once and shared by every
    pass of a run.  Raises :class:`SyntaxError` if it does not parse."""

    def __init__(self, text: str, path: str = "<string>"):
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)
        #: line -> text of the comment on it (real comment tokens only:
        #: docstrings and string literals never match an annotation)
        self.comments: dict[int, str] = {}
        try:
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type == tokenize.COMMENT:
                    self.comments[tok.start[0]] = tok.string
        except tokenize.TokenError:
            pass  # the file parsed; keep the comments seen so far
        #: line -> upper-cased rule ids (or ``ALL``) a pragma disables there
        self.disabled: dict[int, set[str]] = {
            line: {part.strip().upper() for part in m.group(1).split(",")}
            for line, m in self.annotations(_PRAGMA_RE).items()
        }

    @classmethod
    def read(cls, path: str | Path) -> "SourceFile":
        """The file at ``path``, read and parsed."""
        return cls(Path(path).read_text(), str(path))

    def annotations(self, regex: re.Pattern) -> dict[int, re.Match]:
        """line -> match, for every comment ``regex`` is found in."""
        found = {}
        for line, text in self.comments.items():
            m = regex.search(text)
            if m:
                found[line] = m
        return found

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Local name -> canonical dotted name, from the import
        statements anywhere in the file."""
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:  # `import x.y` binds the root name `x`
                        root = a.name.split(".")[0]
                        aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                for a in node.names:
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        # conventional alias even without an import statement in scope
        aliases.setdefault("np", "numpy")
        return aliases

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child node -> parent node, for the whole tree."""
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return parents

    def dotted(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain (``st.pack``
        -> ``struct.pack`` through the import aliases), or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))


def iter_files(paths, skip: frozenset[str]):
    """Every ``.py`` file under ``paths``, sorted within each root.

    A directory is pruned when its own name — the named root's last
    component, or any directory below it — is in ``skip``; the root's
    *ancestors* never prune (a checkout under ``~/examples/`` is still
    walked).  Explicitly named files are always yielded.  A path that
    does not exist raises :class:`FileNotFoundError`.
    """
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            if root.name in skip:
                continue
            for sub in sorted(root.rglob("*.py")):
                if not skip.intersection(sub.relative_to(root).parts):
                    yield sub
        elif not root.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        elif root.suffix == ".py":
            yield root


@dataclass
class Baseline:
    """Grandfathered findings: baseline key -> written justification."""

    entries: dict[str, str]

    def filter(self, findings: list[Finding]
               ) -> tuple[list[Finding], list[str]]:
        """Split findings into (new, baselined-keys-that-matched)."""
        matched = [f.key for f in findings if f.key in self.entries]
        fresh = [f for f in findings if f.key not in self.entries]
        return fresh, matched

    def stale_keys(self, findings: list[Finding]) -> list[str]:
        """Baseline entries that no longer fire (candidates to drop)."""
        live = {f.key for f in findings}
        return sorted(k for k in self.entries if k not in live)

    @staticmethod
    def write(path: Path, findings: list[Finding],
              previous: "Baseline | None" = None,
              rules=None) -> int:
        """Rewrite ``path`` to grandfather exactly ``findings``; returns
        the number of entries written.

        Justifications of surviving ``previous`` entries are kept.
        ``rules`` names the rule ids that were checked: ``previous``
        entries for any *other* rule are carried over untouched, so a
        run that skipped a pass does not drop that pass's entries.
        """
        prev = previous.entries if previous is not None else {}
        grandfathered = {
            f.key: prev.get(f.key, "TODO: justify this entry or fix the bug")
            for f in findings
        }
        if rules is not None:
            grandfathered.update(
                (k, v) for k, v in prev.items() if _key_rule(k) not in rules)
        payload = {
            "comment": (
                "Grandfathered DT7xx-DT9xx analyzer findings; every entry "
                "needs a written justification. Regenerate with "
                "`repro lint --update-baseline` (see docs/devtools.md)."
            ),
            "grandfathered": dict(sorted(grandfathered.items())),
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return len(grandfathered)


def _key_rule(key: str) -> str | None:
    """The rule id inside a baseline key (``path:RULE:context``)."""
    m = _KEY_RULE_RE.search(key)
    return m.group(1) if m else None


def load_baseline(path: str | Path | None,
                  disabled: bool = False) -> Baseline:
    """The baseline to apply: empty when disabled or the file is absent."""
    p = Path(path if path is not None else DEFAULT_BASELINE)
    if disabled or not p.is_file():
        return Baseline(entries={})
    data = json.loads(p.read_text())
    return Baseline(entries=dict(data.get("grandfathered", {})))


def kept(findings: list[Finding],
         sources: list[SourceFile]) -> list[Finding]:
    """``findings`` minus the pragma-disabled ones, in report order
    ``(path, line, rule, key)``.  A pragma is looked up in the
    *finding's* file: a cross-file check may report on a file other
    than the one whose scan produced the fact."""
    disabled = {sf.path: sf.disabled for sf in sources}
    out = []
    for f in findings:
        ids = disabled.get(f.path, {}).get(f.line, ())
        if f.rule not in ids and "ALL" not in ids:
            out.append(f)
    out.sort(key=_report_order)
    return out


def _report_order(f: Finding):
    return (f.path, f.line, f.rule, f.key)


def _concat(lists) -> list:
    return [item for items in lists for item in items]


@dataclass(frozen=True)
class Pass:
    """One static pass: a rule table plus its scan.

    ``scan(SourceFile)`` returns that file's findings — or, for a
    whole-program pass, its facts, which ``finish(list of facts)``
    turns into findings once every file has been scanned.
    """

    label: str
    rules: dict[str, str]
    scan: Callable[[SourceFile], list]
    #: directory names pruned from this pass's tree walk
    skip: frozenset[str] = SKIPPED_TREE_PARTS
    finish: Callable[[list], list[Finding]] = _concat
    #: whether findings carry keys and go through the baseline
    baselined: bool = True
    #: renders the pass's committed model as Graphviz DOT (protoflow)
    render_dot: Callable[[], str] | None = None

    def run(self, sources: list[SourceFile]) -> list[Finding]:
        """Findings over ``sources`` (one program), pragma-filtered and
        in report order."""
        return kept(self.finish([self.scan(sf) for sf in sources]), sources)

    def analyze_source(self, source: str,
                       path: str = "<string>") -> list[Finding]:
        """Analyze one source string as a self-contained program;
        returns findings not pragma-disabled."""
        return self.run([SourceFile(source, path)])

    def analyze_paths(self, paths) -> list[Finding]:
        """Analyze every ``.py`` under ``paths`` as one program.
        Directories named in :attr:`skip` are pruned from the tree walk
        (see :func:`iter_files`); explicitly named files are always
        analyzed."""
        return self.run(
            [SourceFile.read(p) for p in iter_files(paths, self.skip)])

    def main(self, argv: list[str] | None = None) -> int:
        """The command-line driver over this pass alone."""
        return main([self], argv)


def _sarif_report(findings, catalogue) -> dict:
    """The findings as a SARIF 2.1.0 log for code scanning."""
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "rules": [
                    {"id": rule_id,
                     "shortDescription": {"text": catalogue[rule_id]}}
                    for rule_id in sorted(catalogue)
                ],
            }},
            "results": [
                {
                    "ruleId": f.rule,
                    "level": "warning",
                    "message": {"text": f.message},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": Path(f.path).as_posix(),
                            },
                            "region": {"startLine": f.line},
                        },
                    }],
                }
                for f in findings
            ],
        }],
    }


def main(passes: list[Pass], argv: list[str] | None = None) -> int:
    """Run ``passes`` over the paths in ``argv`` and report.

    Exit status: 0 clean, 1 findings remain (or, under
    ``--fail-on-stale``, the baseline has entries that no longer
    fire), 2 a path does not exist or a file does not parse.
    """
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific static analysis: the DT1xx-DT6xx "
                    "concurrency/protocol lint rules, the DT7xx lockset "
                    "race analyzer, the DT8xx resource-lifecycle "
                    "analyzer, and the DT9xx protocol-conformance "
                    "analyzer (the per-analyzer entry points take the "
                    "same flags and run their own pass only)",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to analyze (default: "
                             "src tests; the DT7xx-DT9xx passes prune "
                             "tests/benchmarks/examples directories)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--no-lockset", action="store_true",
                        help="skip the DT7xx lockset analysis pass")
    parser.add_argument("--no-resourceflow", action="store_true",
                        help="skip the DT8xx resource-lifecycle pass")
    parser.add_argument("--no-protoflow", action="store_true",
                        help="skip the DT9xx protocol-conformance pass")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline file of grandfathered DT7xx-DT9xx "
                             f"findings (default: {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline and report everything")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from current findings "
                             "and exit (justifications of surviving "
                             "entries, and the entries of any skipped "
                             "pass, are kept)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as machine-readable JSON")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write the findings as SARIF 2.1.0 to "
                             "FILE (for code-scanning upload)")
    parser.add_argument("--emit-proto-dot", "--emit-dot", metavar="FILE",
                        help="write the protocol spec automata as Graphviz "
                             "DOT to FILE and exit")
    parser.add_argument("--fail-on-stale", action="store_true",
                        help="exit non-zero when the baseline contains "
                             "entries that no longer fire")
    args = parser.parse_args(argv)

    catalogue = {rule: text for p in passes for rule, text in p.rules.items()}
    if args.list_rules:
        for rule_id in sorted(catalogue):
            print(f"{rule_id}  {catalogue[rule_id]}")
        return 0
    if args.emit_proto_dot:
        renderers = [p.render_dot for p in passes if p.render_dot is not None]
        if not renderers:
            parser.error("--emit-proto-dot needs the protoflow pass")
        Path(args.emit_proto_dot).write_text(renderers[0]())
        print(f"wrote {args.emit_proto_dot}")
        return 0
    # a pass is skipped by the --no-<label> flag, where one exists
    running = [p for p in passes
               if not getattr(args, f"no_{p.label}", False)
               and (p.baselined or not args.update_baseline)]
    if args.update_baseline and not running:
        parser.error("--update-baseline requires at least one analyzer "
                     "pass (drop --no-lockset / --no-resourceflow / "
                     "--no-protoflow)")

    sources: dict[Path, SourceFile] = {}  # each file parsed once per run
    try:
        files = {p.label: list(iter_files(args.paths, p.skip))
                 for p in running}
        for path in _concat(files.values()):
            if path not in sources:
                sources[path] = SourceFile.read(path)
    except OSError as err:
        print(f"{parser.prog}: {err}", file=sys.stderr)
        return 2
    except SyntaxError as err:
        print(f"{err.filename}:{err.lineno}: syntax error: {err.msg}",
              file=sys.stderr)
        return 2
    raw = {p.label: p.run([sources[path] for path in files[p.label]])
           for p in running}

    baseline = load_baseline(args.baseline, disabled=args.no_baseline)
    if args.update_baseline:
        n = Baseline.write(Path(args.baseline), _concat(raw.values()),
                           previous=baseline,
                           rules={r for p in running for r in p.rules})
        print(f"wrote {args.baseline}: {n} grandfathered finding(s)")
        return 0

    findings: list[Finding] = []
    baselined: dict[str, int] = {}
    stale: dict[str, list[str]] = {}
    for p in running:
        if not p.baselined:
            findings.extend(raw[p.label])
            continue
        fresh, matched = baseline.filter(raw[p.label])
        findings.extend(fresh)
        baselined[p.label] = len(matched)
        gone = [k for k in baseline.stale_keys(raw[p.label])
                if _key_rule(k) in p.rules]
        if gone:
            stale[p.label] = gone
    findings.sort(key=_report_order)
    stale_fails = bool(stale) and args.fail_on_stale

    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(_sarif_report(findings, catalogue), indent=2) + "\n")

    if args.json:
        counts: dict[str, int] = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        print(json.dumps({
            "findings": [
                {"file": f.path, "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in findings
            ],
            "counts": counts,
            "files": len(sources),
            "baselined": baselined,
            "stale": stale,
        }, indent=2))
        return 1 if findings or stale_fails else 0

    for f in findings:
        print(f)
    all_stale = sorted(k for keys in stale.values() for k in keys)
    if all_stale:
        print(f"note: {len(all_stale)} stale baseline entrie(s) no longer "
              f"fire: " + ", ".join(all_stale))
    # a run of baselined passes only reports what is *new* against it
    new = "new " if all(p.baselined for p in running) else ""
    who = f"{passes[0].label} " if len(passes) == 1 else ""
    total = sum(baselined.values())
    suffix = f", {total} baselined" if total else ""
    if findings:
        print(f"\n{len(findings)} {new}finding(s) in {len(sources)} "
              f"file(s){suffix}")
        return 1
    if stale_fails:
        print("stale baseline entries present (see the note above); "
              "regenerate with --update-baseline")
        return 1
    print(f"{who}clean: {len(sources)} file(s), 0 {new}findings{suffix}")
    return 0
