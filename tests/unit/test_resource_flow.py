"""The DT80x resource-flow analyzer is itself under test: every rule
is pinned to a fixture that violates it exactly once, the annotation
and pragma escape hatches are exercised, the baseline workflow
round-trips, and HEAD of ``src/`` is asserted clean with no baseline
help inside the runtime bound `repro lint` pays on every run."""

import json
import time
from pathlib import Path

import pytest

from repro.devtools.lockset import Baseline
from repro.devtools.resource_flow import (
    DEFAULT_BASELINE,
    RESOURCE_RULES,
    analyze_paths,
    analyze_source,
    load_baseline,
    main as resource_flow_main,
)

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent.parent / "lint_fixtures"
REPO = Path(__file__).parent.parent.parent

#: fixture file -> (rule id, line of the single expected violation)
EXPECTED = {
    "dt801_exception_leak.py": ("DT801", 6),
    "dt801_overwrite.py": ("DT801", 12),
    "dt802_double_unlink.py": ("DT802", 13),
    "dt803_use_after_close.py": ("DT803", 6),
    "dt804_close_incomplete.py": ("DT804", 12),
}


def _analyze_fixture(name):
    path = FIXTURES / name
    return analyze_source(path.read_text(), str(path))


class TestRuleCorpus:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED.items()),
                             ids=sorted(EXPECTED))
    def test_fixture_violates_exactly_its_rule(self, name, expected):
        rule, line = expected
        findings = _analyze_fixture(name)
        assert [(f.rule, f.line) for f in findings] == [(rule, line)], (
            f"{name}: expected exactly one {rule} at line {line}, "
            f"got {findings}"
        )

    def test_corpus_covers_every_rule(self):
        assert {rule for rule, _ in EXPECTED.values()} == set(RESOURCE_RULES)

    def test_negative_fixture_is_clean(self):
        findings = _analyze_fixture("dt80x_clean.py")
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_finding_renders_path_line_rule(self):
        (f,) = _analyze_fixture("dt801_exception_leak.py")
        assert str(f).startswith(
            str(FIXTURES / "dt801_exception_leak.py") + ":6: DT801"
        )
        assert f.key.endswith(":DT801:read_header.fh")


class TestAnnotations:
    OWNS = (
        "class Holder:\n"
        "    # owns: _handle\n"
        "    def __init__(self, factory):\n"
        "        self._handle = factory()\n"
        "    def close(self):\n"
        "        pass\n"
    )

    def test_owns_annotation_enters_the_close_graph(self):
        findings = analyze_source(self.OWNS)
        assert [f.rule for f in findings] == ["DT804"]
        assert "_handle" in findings[0].message

    def test_owns_is_satisfied_by_a_release_on_the_close_graph(self):
        src = self.OWNS.replace("        pass\n",
                                "        self._handle.close()\n")
        assert analyze_source(src) == []

    def test_borrows_annotation_silences_field_tracking(self):
        src = (
            "import socket\n"
            "class Wrapper:\n"
            "    # borrows: sock -- the registry owns it\n"
            "    def __init__(self, addr, registry):\n"
            "        self.sock = socket.create_connection(addr)\n"
            "        registry.adopt(self.sock)\n"
            "    def close(self):\n"
            "        pass\n"
        )
        assert analyze_source(src) == []


class TestPragma:
    def test_disable_pragma_silences_the_line(self):
        src = (FIXTURES / "dt801_exception_leak.py").read_text()
        src = src.replace("fh = open(path, \"rb\")",
                          "fh = open(path, \"rb\")  # lint: disable=DT801")
        assert analyze_source(src) == []

    def test_disable_all_silences_the_line(self):
        src = (FIXTURES / "dt803_use_after_close.py").read_text()
        src = src.replace("conn.send(b\"bye\")",
                          "conn.send(b\"bye\")  # lint: disable=all")
        assert analyze_source(src) == []


class TestBaseline:
    def _fixture_findings(self):
        return analyze_paths([FIXTURES / "dt801_exception_leak.py"])

    def test_write_filter_roundtrip(self, tmp_path):
        findings = self._fixture_findings()
        path = tmp_path / "baseline.json"
        Baseline.write(path, findings)
        loaded = load_baseline(path)
        fresh, matched = loaded.filter(findings)
        assert fresh == [] and matched == [findings[0].key]
        data = json.loads(path.read_text())
        assert "justify" in data["grandfathered"][findings[0].key]

    def test_stale_entries_are_reported(self):
        baseline = Baseline(entries={"repro/gone.py:DT801:Gone.x": "old"})
        assert baseline.stale_keys(self._fixture_findings()) == [
            "repro/gone.py:DT801:Gone.x"
        ]

    def test_disabled_and_missing_baselines_are_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json").entries == {}
        assert load_baseline(None, disabled=True).entries == {}

    def test_committed_baseline_has_no_unjustified_entries(self):
        data = json.loads((REPO / DEFAULT_BASELINE).read_text())
        entries = data["grandfathered"]
        assert len(entries) <= 5
        assert not any("TODO" in just for just in entries.values())


@pytest.fixture(scope="session")
def src_run():
    """One analysis of all of ``src/``: ``(findings, seconds)``."""
    start = time.monotonic()
    findings = analyze_paths([REPO / "src"])
    return findings, time.monotonic() - start


class TestTreeIsClean:
    def test_src_has_zero_nonbaselined_findings_at_head(self, src_run):
        findings, _ = src_run
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_analyzer_is_fast_enough_for_every_lint_run(self, src_run):
        _, elapsed = src_run
        assert elapsed < 10.0, f"resource-flow took {elapsed:.1f}s over src/"

    def test_fixture_corpus_is_excluded_from_tree_analysis(self):
        findings = analyze_paths([FIXTURES.parent])
        assert findings == []


class TestCli:
    def test_exit_nonzero_on_violation(self, capsys):
        rc = resource_flow_main([str(FIXTURES / "dt802_double_unlink.py"),
                                 "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DT802" in out and "dt802_double_unlink.py:13" in out

    def test_exit_zero_on_clean_file(self, capsys):
        rc = resource_flow_main([str(FIXTURES / "dt80x_clean.py"),
                                 "--no-baseline"])
        assert rc == 0
        assert "0 new findings" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        rc = resource_flow_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule_id in RESOURCE_RULES:
            assert rule_id in out
