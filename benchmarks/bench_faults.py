"""Fault-resilience sweep: delivered-frame ratio under WAN impairments.

The resilience layer's claim is that a lossy, jittery wide-area link
degrades the stream (to cheaper tiers and, at the limit, frame
skipping) instead of breaking it.  This bench sweeps a loss × jitter
grid over :func:`~repro.scenario.run_with_faults` and records the
delivered-frame ratio (acked + deliberately stride-skipped, over
published) plus the tier-degradation each cell provoked, and one
disconnect scenario exercising reconnect-with-resume.

Run under pytest (quick sanity rows) or as a script for the tracked
machine-readable trajectory::

    PYTHONPATH=src python benchmarks/bench_faults.py --json

writes/updates ``BENCH_faults.json`` at the repo root under ``--label``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _util import emit, fast_mode, fmt_row  # noqa: E402

from repro.net.faults import FaultPlan  # noqa: E402
from repro.scenario import run_with_faults  # noqa: E402

LOSS_GRID = (0.0, 0.05, 0.1)
JITTER_GRID = (0.0, 0.05, 0.1)
SEED = 1234


def _grids():
    if fast_mode():
        return (0.0, 0.05), (0.0, 0.1)
    return LOSS_GRID, JITTER_GRID


@pytest.mark.parametrize("loss", (0.0, 0.05))
def test_lossy_link_still_delivers(benchmark, loss):
    """Sanity under the benchmark harness: a clean and a 5%-loss link
    both deliver ≥95% with no client-observed duplicates."""
    plan = FaultPlan(seed=SEED, loss_ratio=loss, jitter_s=0.05)
    report = benchmark.pedantic(
        run_with_faults, args=(plan,),
        kwargs={"n_frames": 48, "n_viewers": 2, "pace_s": 0.02},
        rounds=1, iterations=1,
    )
    assert report["delivered_ratio"] >= 0.95
    for session in report["sessions"].values():
        assert session["observed_duplicates"] == 0


def test_faults_sweep_table():
    """The loss × jitter grid as a persisted artifact table."""
    losses, jitters = _grids()
    lines = [
        fmt_row("loss/jitter", ["ratio", "acks", "skips", "drops", "trans"])
    ]
    for loss in losses:
        for jitter in jitters:
            plan = FaultPlan(seed=SEED, loss_ratio=loss, jitter_s=jitter)
            r = run_with_faults(plan, n_frames=48, n_viewers=2, pace_s=0.02)
            sessions = r["sessions"].values()
            lines.append(
                fmt_row(
                    f"{loss:.2f}/{jitter:.2f}",
                    [
                        r["delivered_ratio"],
                        sum(s["acks"] for s in sessions),
                        sum(s["skipped"] for s in sessions),
                        sum(s["dropped"] for s in sessions),
                        sum(s["transitions"] for s in sessions),
                    ],
                )
            )
    emit("faults", lines)


# -- machine-readable mode (resilience trajectory across PRs) -----------------


def _cell_summary(report: dict) -> dict:
    sessions = report["sessions"].values()
    return {
        "delivered_ratio": report["delivered_ratio"],
        "mean_delivered_ratio": report["mean_delivered_ratio"],
        "acks": sum(s["acks"] for s in sessions),
        "skipped": sum(s["skipped"] for s in sessions),
        "dropped": sum(s["dropped"] for s in sessions),
        "tier_transitions": sum(s["transitions"] for s in sessions),
        "final_tiers": sorted(s["tier"] for s in sessions),
        "duplicates": sum(s["observed_duplicates"] for s in sessions),
        "elapsed_s": report["elapsed_s"],
    }


def measure_grid(n_frames: int = 96, n_viewers: int = 2) -> dict:
    cells = {}
    for loss in LOSS_GRID:
        for jitter in JITTER_GRID:
            plan = FaultPlan(seed=SEED, loss_ratio=loss, jitter_s=jitter)
            report = run_with_faults(
                plan, n_frames=n_frames, n_viewers=n_viewers
            )
            cells[f"loss{loss:.2f}_jitter{jitter:.2f}"] = _cell_summary(report)
    # the reconnect scenario: a mid-stream cut at 5% loss / 100 ms jitter
    plan = FaultPlan(
        seed=SEED, loss_ratio=0.05, jitter_s=0.1, disconnect_after=24
    )
    report = run_with_faults(plan, n_frames=n_frames, n_viewers=n_viewers)
    cell = _cell_summary(report)
    cell["resumes"] = report["resumes"]
    cells["disconnect_resume"] = cell
    # the relay-hop cell: same 5% loss / 100 ms jitter weather, but on
    # the relay→viewer link of an origin → relay → viewers topology —
    # the relay waits on credits instead of dropping, so this cell
    # documents what interposing the edge tier does to delivery
    plan = FaultPlan(seed=SEED, loss_ratio=0.05, jitter_s=0.1)
    report = run_with_faults(
        plan, n_frames=n_frames, n_viewers=n_viewers, relays=1
    )
    cell = _cell_summary(report)
    cell["relays"] = report["relays"]
    cells["relay_hop"] = cell
    return {
        "n_frames": n_frames,
        "n_viewers": n_viewers,
        "seed": SEED,
        "cells": cells,
    }


def write_json(path, label: str, n_frames: int, n_viewers: int) -> dict:
    import json

    path = Path(path)
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    doc[label] = measure_grid(n_frames=n_frames, n_viewers=n_viewers)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def main(argv=None) -> None:
    import argparse

    repo_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="write BENCH_faults.json")
    ap.add_argument("--out", default=str(repo_root / "BENCH_faults.json"))
    ap.add_argument("--label", default="current")
    ap.add_argument("--frames", type=int, default=96)
    ap.add_argument("--viewers", type=int, default=2)
    args = ap.parse_args(argv)
    if not args.json:
        ap.error("nothing to do: pass --json")
    doc = write_json(args.out, args.label, args.frames, args.viewers)
    for key, cell in sorted(doc[args.label]["cells"].items()):
        extra = f"  resumes {cell['resumes']}" if "resumes" in cell else ""
        print(
            f"{key:>24}: ratio {cell['delivered_ratio']:.4f}  "
            f"acks {cell['acks']:>4}  skips {cell['skipped']:>3}  "
            f"drops {cell['dropped']:>3}  tiers {cell['final_tiers']}{extra}"
        )


if __name__ == "__main__":
    main()
