"""Smoke test of the benchmark itself: ``python -m pytest e2ebench/tests``.

Not tier-1 (``testpaths = ["tests"]``).  Every workload runs for one
second of measured time, traced, in its own process — the traced run's
result file carries the end-to-end metrics too, so one run per workload
exercises every name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import subprocess
import time

import pytest

from e2ebench import OUT_DIR, ROOT, workload_command
from e2ebench.workloads import NAMES

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def runs():
    """All four workloads traced plus one untraced.  Every run confines
    itself to the first processor it is allowed, so each is started with
    one processor of its own to choose from and they run side by side."""
    started = time.perf_counter()
    jobs = [(w, 1) for w in NAMES] + [("fanout_live", 0)]
    cpus = sorted(os.sched_getaffinity(0))
    procs = [
        subprocess.Popen(
            workload_command(w, seed=7, seconds=1, trace=trace),
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=functools.partial(os.sched_setaffinity, 0, {cpus[i % len(cpus)]}),
        )
        for i, (w, trace) in enumerate(jobs)
    ]
    results = {}
    for (w, trace), proc in zip(jobs, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{w} trace={trace} failed:\n{err}"
        results[w, trace] = json.loads(out.strip().splitlines()[-1])
    results["elapsed_s"] = time.perf_counter() - started
    return results


def test_runs_fit_the_smoke_budget(runs):
    assert runs["elapsed_s"] < 30.0


def test_contract_names_are_well_formed():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(NAMES)


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_reported(runs, workload):
    line = runs[workload, 1]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    result = json.loads((OUT_DIR / f"result-{workload}-traced.json").read_text())
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        got = (result["metrics"] if m in CONTRACT["end_to_end"] else line["metrics"])[m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    for m in CONTRACT["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    for key in ("nproc", "loadavg1", "noisy", "calib_ms", "python", "numpy", "git_sha"):
        assert key in result["host"]
    assert result["seed"] == 7 and result["samples"]


def test_untraced_line_carries_the_end_to_end_metrics(runs):
    line = runs["fanout_live", 0]
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_trace_is_a_forest(runs, workload):
    spans = [
        json.loads(row)
        for row in (OUT_DIR / f"trace-{workload}.jsonl").read_text().splitlines()
    ]
    assert spans
    by_id = {s["id"]: s for s in spans}
    from e2ebench.trace import self_times_ms

    own = self_times_ms(spans)
    slack = 1e-6
    for s in spans:
        assert s["workload"] == workload and s["end"] >= s["start"]
        assert own[s["id"]] >= -1e-3
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]  # every parent exists
        assert parent["trace_id"] == s["trace_id"]  # one trace id per tree
        if parent["name"] != "machine.run_spmd":
            assert parent["thread"] == s["thread"]
        assert parent["start"] - slack <= s["start"] and s["end"] <= parent["end"] + slack
    frames = {s["trace_id"] for s in spans if s["trace_id"] is not None}
    assert len(frames) > 1


def test_substitution_is_fully_undone():
    import repro.core.remote_viz as remote_viz
    import repro.render
    from repro.compress import get_codec
    from repro.serve import SessionRouter, ViewerHandle

    from e2ebench.trace import Tracer

    def snapshot():
        return (
            repro.render.render_volume, remote_viz.render_volume,
            remote_viz.run_spmd, vars(SessionRouter)["publish"],
            vars(ViewerHandle)["next_frame"],
            type(get_codec("jpeg")).encode_image, type(get_codec("lzo")).encode_image,
        )

    before = snapshot()
    tracer = Tracer("test")
    tracer.install()
    assert tracer.installed
    assert all(a is not b for a, b in zip(before, snapshot()))
    tracer.uninstall()
    assert not tracer.installed
    assert all(a is b for a, b in zip(before, snapshot()))


def test_failed_output_check_exits_nonzero_without_a_summary(monkeypatch, capsys):
    """Corrupt the one frame ``render_stream`` expects (its local
    reference render): the run must fail and print no result line."""
    import e2ebench.workloads.render_stream as workload
    from e2ebench.__main__ import run_one

    honest = workload.to_display_rgb

    def corrupted(rgba, **kwargs):
        image = honest(rgba, **kwargs).copy()
        image[100:140, 100:140] ^= 0xFF
        return image

    monkeypatch.setattr(workload, "to_display_rgb", corrupted)
    allowed = os.sched_getaffinity(0)  # run_one confines the process it runs in
    try:
        assert run_one("render_stream", seed=7, seconds=0.5, traced=False) == 1
    finally:
        os.sched_setaffinity(0, allowed)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output check failed" in captured.err


def _suite_file(path, scale: dict[str, float], jitter: float = 0.01, failed: int = 0):
    """A synthetic suite file: every metric 100 (times ``scale[name]``),
    ten runs spread evenly by ``jitter`` either side."""
    from e2ebench.compare import _summary

    def summary(m):
        centre = 100.0 * scale.get(m["name"], 1.0)
        values = [centre * (1 + jitter * (i - 4.5) / 4.5) for i in range(10)]
        return _summary(values, m["unit"])

    suite = {"workloads": {
        w: {"attempted": 1000, "failed": failed,
            "end_to_end": {m["name"]: summary(m) for m in CONTRACT["end_to_end"]}}
        for w in NAMES
    }}
    path.write_text(json.dumps(suite))
    return str(path)


def test_compare_gates_on_each_metrics_own_bound(tmp_path, capsys):
    from e2ebench.compare import compare_files

    parent = _suite_file(tmp_path / "parent.json", {})
    same = _suite_file(tmp_path / "same.json", {"frame_ms_p50": 1.02})
    assert compare_files(parent, same, CONTRACT) == 0
    assert "worse" not in capsys.readouterr().out

    # lower is better for frame_ms_p50, higher for frames_per_s
    slower = _suite_file(tmp_path / "slower.json", {"frame_ms_p50": 1.5})
    assert compare_files(parent, slower, CONTRACT) == 1
    rows = [r for r in capsys.readouterr().out.splitlines() if "frame_ms_p50" in r]
    assert rows and all(r.endswith("worse") for r in rows)
    faster = _suite_file(tmp_path / "faster.json", {"frames_per_s": 1.5, "frame_ms_p50": 0.5})
    assert compare_files(parent, faster, CONTRACT) == 0
    out = capsys.readouterr().out
    assert all(r.endswith("better") for r in out.splitlines()
               if "frames_per_s" in r or "frame_ms_p50" in r)

    # overlapping runs noisier than the bound cannot be judged by medians
    noisy = _suite_file(tmp_path / "noisy.json", {"frame_ms_p50": 1.1}, jitter=0.6)
    assert compare_files(parent, noisy, CONTRACT) == 0
    assert "unresolved" in capsys.readouterr().out

    failing = _suite_file(tmp_path / "failing.json", {}, failed=3)
    assert compare_files(parent, failing, CONTRACT) == 1
