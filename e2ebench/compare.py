"""Repeated runs (``suite``) and the gate between two of them (``compare``).

A suite file holds, per workload and end-to-end metric, every run's value
with the median, the quartiles and their distance as a share of the median
(the spread), plus one traced run's per-layer metrics.  ``compare`` judges a
change against a parent by each metric's own bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from e2ebench import OUT_DIR, ROOT, workload_command
from e2ebench.workloads import NAMES

__all__ = ["run_suite", "compare_files"]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    done = subprocess.run(
        workload_command(workload, seed, seconds, trace),
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list[float], unit: str) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "unit": unit, "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def run_suite(out: str, runs: int, seed: int, seconds: float, contract: dict) -> int:
    """``runs`` untraced runs per workload on seeds ``seed, seed+1, ...``
    (fresh process each) and one traced run on ``seed``."""
    suite = {"runs": runs, "seed": seed, "seconds": seconds, "workloads": {}}
    for workload in NAMES:
        results = []
        for i in range(runs):
            result = _run(workload, seed + i, seconds, 0)
            if result is None:
                return 1
            results.append(result)
            print(f"{workload} seed {seed + i}: done", file=sys.stderr)
        traced = _run(workload, seed, seconds, 1)
        if traced is None:
            return 1
        provenance = json.loads((OUT_DIR / f"result-{workload}-traced.json").read_text())
        suite["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "host": provenance["host"],
            "samples": provenance["samples"],
            "end_to_end": {
                m["name"]: _summary(
                    [r["metrics"][m["name"]]["value"] for r in results], m["unit"])
                for m in contract["end_to_end"]
            },
            "per_layer": traced["metrics"],
        }
    with open(out, "w") as handle:
        handle.write(json.dumps(suite, indent=1) + "\n")
    return 0


def _verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[float, str]:
    """Relative change (positive = worse) and its verdict."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - parent["median"]) / parent["median"]
    if max(parent["spread"], change["spread"]) > bound:
        # too noisy to judge by medians: only a clean separation counts
        was = [sign * v for v in parent["values"]]
        now = [sign * v for v in change["values"]]
        if min(now) > max(was):
            return worse_by, "worse"
        if max(now) < min(was):
            return worse_by, "better"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if -worse_by > max(parent["spread"], 1e-12):
        return worse_by, "better"
    return worse_by, "within"


def compare_files(parent_path: str, change_path: str, contract: dict) -> int:
    """Print parent, change, delta, bound and verdict for every workload
    and end-to-end metric; 1 if anything is worse or fails more often."""
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    exit_code = 0
    print(f"{'workload':14s} {'metric':22s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    for workload in NAMES:
        a, b = parent["workloads"][workload], change["workloads"][workload]
        for m in contract["end_to_end"]:
            pa, ch = a["end_to_end"][m["name"]], b["end_to_end"][m["name"]]
            worse_by, verdict = _verdict(pa, ch, m["better"], m["bound"])
            delta = (ch["median"] - pa["median"]) / pa["median"]
            print(f"{workload:14s} {m['name']:22s} {pa['median']:12.4f} {ch['median']:12.4f} "
                  f"{delta * 100:+7.2f}% {m['bound'] * 100:5.0f}%  {verdict}")
            if verdict == "worse":
                exit_code = 1
        if b["failed"] / b["attempted"] > a["failed"] / a["attempted"]:
            print(f"{workload:14s} failed {a['failed']}/{a['attempted']} -> "
                  f"{b['failed']}/{b['attempted']}  worse")
            exit_code = 1
    return exit_code
