"""``python -m e2ebench run|suite|compare`` — see README.md in this directory."""

from __future__ import annotations

import argparse
import importlib
import json
import math
import subprocess
import sys

from e2ebench import OUT_DIR, ROOT, workload_command
from e2ebench.workloads import NAMES


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    """Run one workload in this process and print its result line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    from e2ebench.harness import CheckFailed, Run, host_info, peak_rss_mb, pin_to_one_cpu

    pin_to_one_cpu()
    contract = load_contract()
    host = host_info()
    if host["noisy"]:
        print(
            f"e2ebench: load average {host['loadavg1']:.2f} exceeds "
            f"{host['nproc']} processors; this run is marked noisy",
            file=sys.stderr,
        )
    module = importlib.import_module(f"e2ebench.workloads.{workload}")
    run = Run(workload, seed, seconds, traced)
    if run.tracer is not None:
        run.tracer.install()
    try:
        outcome = module.run(run)
    except CheckFailed as exc:
        print(f"e2ebench: {workload}: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()

    metrics = dict(outcome.metrics)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["failed_ratio"] = outcome.failed / outcome.attempted
    metrics["host.nproc"] = host["nproc"]
    metrics["host.loadavg1"] = host["loadavg1"]
    metrics["host.calib_ms"] = host["calib_ms"]
    if run.tracer is not None:
        metrics["trace.spans"] = len(run.tracer.spans)
        run.tracer.write(OUT_DIR / f"trace-{workload}.jsonl")

    units = {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise SystemExit(f"e2ebench: metrics missing from BENCHMARK.json: {unknown}")
    section = contract["per_layer"] if traced else contract["end_to_end"]
    reported = {}
    for m in section:
        # a layer this workload never enters reports 0 for its metrics,
        # which is the prediction; an end-to-end metric must exist
        value = metrics[m["name"]] if not traced else metrics.get(m["name"], 0.0)
        if not math.isfinite(value):
            raise SystemExit(f"e2ebench: {m['name']} is not finite")
        reported[m["name"]] = {"value": value, "unit": m["unit"]}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    mode = "traced" if traced else "untraced"
    (OUT_DIR / f"result-{workload}-{mode}.json").write_text(json.dumps({
        "workload": workload,
        "why": next(w["why"] for w in contract["workloads"] if w["name"] == workload),
        "mode": mode,
        "seed": seed,
        "seconds": seconds,
        "host": host,
        "transport": "viewer links are in-process FramedConnection pairs; "
                     "codec_wire crosses loopback TCP, not a real link",
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "samples": outcome.samples,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reported,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, one result line each."""
    worst = 0
    for workload in NAMES:
        done = subprocess.run(workload_command(workload, seed, seconds, trace), cwd=ROOT)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2ebench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload (or all four)")
    run.add_argument("--workload", choices=NAMES)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured time per run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: traced run, prints the per-layer metrics")

    suite = commands.add_parser(
        "suite", help="repeat every workload and write medians and spreads")
    suite.add_argument("--out", required=True)
    suite.add_argument("--runs", type=int, default=5)
    suite.add_argument("--seed", type=int, default=1)
    suite.add_argument("--seconds", type=float, default=None)

    compare = commands.add_parser("compare", help="compare two suite files")
    compare.add_argument("parent")
    compare.add_argument("change")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from e2ebench.compare import compare_files

        return compare_files(args.parent, args.change, load_contract())
    seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
    if args.command == "suite":
        from e2ebench.compare import run_suite

        return run_suite(args.out, args.runs, args.seed, seconds, load_contract())
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace)
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
