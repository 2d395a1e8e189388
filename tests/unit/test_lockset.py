"""The DT7xx lockset analyzer is itself under test: every rule is
pinned to a fixture that violates it exactly once, the annotation and
pragma escape hatches are exercised, the baseline workflow round-trips,
and HEAD of ``src/`` is asserted clean with no baseline help."""

import json
import time
from pathlib import Path

import pytest

from repro.devtools.lint import main as lint_main
from repro.devtools.lockset import (
    DEFAULT_BASELINE,
    LOCKSET_RULES,
    Baseline,
    analyze_paths,
    analyze_source,
    guarded_by,
    load_baseline,
    main as lockset_main,
)

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent.parent / "lint_fixtures"
REPO = Path(__file__).parent.parent.parent

#: fixture file -> (rule id, line of the single expected violation)
EXPECTED = {
    "dt701_inconsistent_lockset.py": ("DT701", 16),
    "dt702_bare_write.py": ("DT702", 16),
    "dt703_unannotated_shared.py": ("DT703", 17),
    "dt704_scope_leak.py": ("DT704", 12),
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
        assert {rule for rule, _ in EXPECTED.values()} == set(LOCKSET_RULES)

    def test_negative_fixture_is_clean(self):
        findings = _analyze_fixture("dt70x_guarded_clean.py")
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_finding_renders_path_line_rule(self):
        (f,) = _analyze_fixture("dt701_inconsistent_lockset.py")
        assert str(f).startswith(
            str(FIXTURES / "dt701_inconsistent_lockset.py") + ":16: DT701"
        )
        assert f.key.endswith(":DT701:Counter._count")


class TestPragma:
    def test_disable_pragma_silences_the_line(self):
        src = (FIXTURES / "dt701_inconsistent_lockset.py").read_text()
        src = src.replace("return self._count",
                          "return self._count  # lint: disable=DT701")
        assert analyze_source(src) == []

    def test_disable_all_silences_the_line(self):
        src = (FIXTURES / "dt702_bare_write.py").read_text()
        src = src.replace("self._total = 0\n",
                          "self._total = 0  # lint: disable=all\n")
        assert analyze_source(src) == []


class TestGuardedByDecorator:
    def test_records_lock_names(self):
        @guarded_by("_lock", "_cond")
        def helper(self):
            pass

        assert helper.__guarded_by__ == ("_lock", "_cond")

    def test_is_a_runtime_noop(self):
        calls = []

        @guarded_by("_lock")
        def helper():
            calls.append(1)
            return 7

        assert helper() == 7 and calls == [1]

    def test_rejects_missing_or_nonstring_locks(self):
        with pytest.raises(TypeError):
            guarded_by()
        with pytest.raises(TypeError):
            guarded_by(42)

    def test_analyzer_checks_decorated_call_sites(self):
        src = (
            "import threading\n"
            "from repro.devtools.lockset import guarded_by\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    @guarded_by('_lock')\n"
            "    def _bump(self):\n"
            "        self._n += 1\n"
            "    def outside(self):\n"
            "        self._bump()\n"
        )
        findings = analyze_source(src)
        assert [f.rule for f in findings] == ["DT701"]
        assert "without self._lock" in findings[0].message


class TestBaseline:
    def _fixture_findings(self):
        return analyze_paths([FIXTURES / "dt701_inconsistent_lockset.py"])

    def test_write_filter_roundtrip(self, tmp_path):
        findings = self._fixture_findings()
        path = tmp_path / "baseline.json"
        Baseline.write(path, findings)
        loaded = load_baseline(path)
        fresh, matched = loaded.filter(findings)
        assert fresh == [] and matched == [findings[0].key]
        data = json.loads(path.read_text())
        assert "justify" in data["grandfathered"][findings[0].key]

    def test_write_keeps_existing_justifications(self, tmp_path):
        findings = self._fixture_findings()
        path = tmp_path / "baseline.json"
        prev = Baseline(entries={findings[0].key: "known benign: test-only"})
        Baseline.write(path, findings, previous=prev)
        assert (json.loads(path.read_text())["grandfathered"][findings[0].key]
                == "known benign: test-only")

    def test_stale_entries_are_reported(self):
        baseline = Baseline(entries={"repro/gone.py:DT701:Gone._x": "old"})
        assert baseline.stale_keys(self._fixture_findings()) == [
            "repro/gone.py:DT701:Gone._x"
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
        assert elapsed < 5.0, f"lockset pass took {elapsed:.1f}s over src/"

    def test_fixture_corpus_is_excluded_from_tree_analysis(self):
        findings = analyze_paths([FIXTURES.parent])
        assert findings == []


class TestCli:
    def test_exit_nonzero_on_violation(self, capsys):
        rc = lockset_main([str(FIXTURES / "dt704_scope_leak.py"),
                           "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DT704" in out and "dt704_scope_leak.py:12" in out

    def test_exit_zero_on_clean_file(self, capsys):
        rc = lockset_main([str(FIXTURES / "dt70x_guarded_clean.py"),
                           "--no-baseline"])
        assert rc == 0
        assert "0 new findings" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        rc = lockset_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule_id in LOCKSET_RULES:
            assert rule_id in out

    def test_update_baseline_writes_and_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        rc = lockset_main([str(FIXTURES / "dt701_inconsistent_lockset.py"),
                           "--baseline", str(path), "--update-baseline"])
        assert rc == 0
        assert len(json.loads(path.read_text())["grandfathered"]) == 1
        # with the baseline applied, the same run is now clean
        rc = lockset_main([str(FIXTURES / "dt701_inconsistent_lockset.py"),
                           "--baseline", str(path)])
        assert rc == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_lint_cli_runs_the_lockset_pass(self, capsys):
        rc = lint_main([str(FIXTURES / "dt701_inconsistent_lockset.py"),
                        "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DT701" in out

    def test_lint_cli_no_lockset_skips_the_pass(self, capsys):
        rc = lint_main([str(FIXTURES / "dt701_inconsistent_lockset.py"),
                        "--no-lockset"])
        assert rc == 0
        assert "DT701" not in capsys.readouterr().out

    def test_lint_list_rules_includes_lockset_catalogue(self, capsys):
        rc = lint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule_id in LOCKSET_RULES:
            assert rule_id in out

    def test_repro_cli_forwards_baseline_flags(self, capsys):
        from repro.cli import main as repro_main

        rc = repro_main(["lint",
                         str(FIXTURES / "dt702_bare_write.py"),
                         "--no-baseline"])
        assert rc == 1
        assert "DT702" in capsys.readouterr().out
