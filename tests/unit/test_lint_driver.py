"""The driver under ``repro lint`` and the three per-pass ``main``s:
the report formats CI reads (``--json``, ``--sarif``), the baseline
gates (``--fail-on-stale``, ``--update-baseline`` with a pass skipped),
the file walk (what it prunes, what it refuses), every file parsed
once per run, and the serving layer staying clear of the analyzers."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import lint, lockset, protoflow, resource_flow

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent.parent / "lint_fixtures"
REPO = Path(__file__).parent.parent.parent

DT701 = FIXTURES / "dt701_inconsistent_lockset.py"
DT801 = FIXTURES / "dt801_exception_leak.py"


def _write_baseline(path, entries):
    path.write_text(json.dumps({"comment": "test", "grandfathered": entries}))


class TestJsonReport:
    def test_shape_and_failing_exit_status(self, capsys):
        rc = lint.main([str(DT701), "--no-baseline", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert set(report) == {"findings", "counts", "files", "baselined",
                               "stale"}
        (finding,) = report["findings"]
        assert set(finding) == {"file", "line", "rule", "message"}
        assert (finding["file"], finding["line"], finding["rule"]) == (
            str(DT701), 16, "DT701")
        assert report["counts"] == {"DT701": 1}
        assert report["files"] == 1
        assert report["stale"] == {}

    def test_clean_file_exits_zero(self, capsys):
        rc = lint.main([str(FIXTURES / "dt70x_guarded_clean.py"),
                        "--no-baseline", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["findings"] == [] and report["counts"] == {}

    def test_baselined_findings_are_counted_per_pass(self, tmp_path, capsys):
        (finding,) = lockset.analyze_paths([DT701])
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {finding.key: "known"})
        rc = lint.main([str(DT701), "--baseline", str(baseline), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["findings"] == []
        assert report["baselined"]["lockset"] == 1


class TestSarifReport:
    def test_one_result_per_finding_and_the_whole_catalogue(self, tmp_path,
                                                            capsys):
        target = tmp_path / "out.sarif"
        rc = lint.main([str(DT701), str(DT801), "--no-baseline",
                        "--sarif", str(target)])
        assert rc == 1
        assert "2 finding(s)" in capsys.readouterr().out
        log = json.loads(target.read_text())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert sorted(
            (r["ruleId"],
             r["locations"][0]["physicalLocation"]["region"]["startLine"])
            for r in run["results"]
        ) == [("DT701", 16), ("DT801", 6)]
        catalogue = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert catalogue == (set(lint.RULES) | set(lockset.LOCKSET_RULES)
                             | set(resource_flow.RESOURCE_RULES)
                             | set(protoflow.PROTOFLOW_RULES))


class TestStaleGate:
    STALE = "repro/gone.py:DT701:Gone._x"

    def _run(self, tmp_path, *flags):
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {self.STALE: "old"})
        return lint.main([str(FIXTURES / "dt70x_guarded_clean.py"),
                          "--baseline", str(baseline), *flags])

    def test_stale_entry_is_a_note_by_default(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        assert self.STALE in capsys.readouterr().out

    def test_fail_on_stale_exits_one_and_names_the_entry(self, tmp_path,
                                                         capsys):
        assert self._run(tmp_path, "--fail-on-stale") == 1
        assert self.STALE in capsys.readouterr().out

    def test_fail_on_stale_is_ignored_without_a_baseline(self, tmp_path,
                                                         capsys):
        assert self._run(tmp_path, "--fail-on-stale", "--no-baseline") == 0
        assert self.STALE not in capsys.readouterr().out


class TestUpdateBaseline:
    def test_a_skipped_pass_keeps_its_entries(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)  # default baseline paths resolve here
        (dt7,) = lockset.analyze_paths([DT701])
        (dt8,) = resource_flow.analyze_paths([DT801])
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {dt7.key: "benign: single writer",
                                   dt8.key: "benign: test helper"})
        rc = lint.main([str(DT701), str(DT801), "--baseline", str(baseline),
                        "--update-baseline", "--no-lockset"])
        assert rc == 0
        entries = json.loads(baseline.read_text())["grandfathered"]
        assert entries[dt7.key] == "benign: single writer"
        assert entries[dt8.key] == "benign: test helper"
        capsys.readouterr()
        # and with every pass back on, the file is clean against it
        assert lint.main([str(DT701), str(DT801),
                          "--baseline", str(baseline)]) == 0


#: pass label -> (its path-level entry point, a violating fixture, the rule)
VIOLATORS = {
    "lint": (lint.lint_paths, "dt601_mutable_default.py", "DT601"),
    "lockset": (lockset.analyze_paths, "dt704_scope_leak.py", "DT704"),
    "resourceflow": (resource_flow.analyze_paths,
                     "dt802_double_unlink.py", "DT802"),
    "protoflow": (protoflow.analyze_paths,
                  "dt901_schema_mismatch.py", "DT901"),
}


class TestFileWalk:
    @pytest.mark.parametrize("label", sorted(VIOLATORS))
    def test_ancestor_directory_names_do_not_prune(self, label, tmp_path):
        # a checkout that happens to live under .../examples/ is still
        # analyzed: only the named root and what is below it can prune
        analyze, fixture, rule = VIOLATORS[label]
        pkg = tmp_path / "examples" / "pkg"
        pkg.mkdir(parents=True)
        shutil.copy(FIXTURES / fixture, pkg / "m.py")
        assert [f.rule for f in analyze([pkg])] == [rule]

    @pytest.mark.parametrize("label", sorted(set(VIOLATORS) - {"lint"}))
    def test_a_root_named_examples_is_still_pruned(self, label, tmp_path):
        analyze, fixture, _ = VIOLATORS[label]
        root = tmp_path / "pkg" / "examples"
        root.mkdir(parents=True)
        shutil.copy(FIXTURES / fixture, root / "m.py")
        assert analyze([root]) == []
        assert analyze([root.parent]) == []

    @pytest.mark.parametrize("main", [lint.main, lockset.main],
                             ids=["lint", "lockset"])
    def test_missing_path_is_a_usage_error(self, main, tmp_path, capsys):
        rc = main([str(tmp_path / "no_such_dir")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no_such_dir" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "clean" not in captured.out

    @pytest.mark.parametrize("main", [lint.main, resource_flow.main],
                             ids=["lint", "resourceflow"])
    def test_unparsable_file_is_reported_without_a_traceback(self, main,
                                                             tmp_path,
                                                             capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\ndef f(:\n    pass\n")
        rc = main([str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{bad}:2: syntax error" in captured.err
        assert "Traceback" not in captured.err
        assert "clean" not in captured.out


class TestParseOnce:
    def test_each_file_is_parsed_exactly_once_per_run(self, monkeypatch,
                                                      capsys):
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        rc = lint.main([str(REPO / "src")])
        out = capsys.readouterr().out
        assert rc == 0, out
        walked = sorted(str(p) for p in (REPO / "src").rglob("*.py"))
        assert sorted(parsed) == walked


class TestLayering:
    def test_runtime_packages_do_not_import_the_analyzers(self):
        probe = (
            "import sys\n"
            "import repro.serve, repro.relay, repro.scenario, repro.core\n"
            "mods = ['core', 'lint', 'lockset', 'resource_flow',\n"
            "        'protoflow', 'locktrace']\n"
            "print([m for m in mods if 'repro.devtools.' + m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_guarded_by_is_one_object_under_both_names(self):
        from repro.devtools.guards import guarded_by

        assert lockset.guarded_by is guarded_by
