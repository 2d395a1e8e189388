"""Relay-tier bench: origin offload and delivered-ratio parity.

The edge relay tier's claim is twofold.  First, a replay-heavy
workload (viewers looping over the same timeline) is served almost
entirely from relay stores: origin traffic stays ~``n_frames`` per
relay while viewer traffic is ``n_viewers x loops x n_frames``, so
origin offload approaches ``1 - relays/(viewers x loops)``.  Second,
putting a relay on the path costs nothing in delivery: under identical
WAN weather (5% loss, 100 ms jitter on viewer links) the relayed
topology's delivered-frame ratio matches the direct-origin baseline
within 0.02.  A third cell kills a relay mid-playback and records
whether its viewers failed over with the exact frame sequence.

Run under pytest (quick sanity rows) or as a script for the tracked
machine-readable trajectory::

    PYTHONPATH=src python benchmarks/bench_relay.py --json

writes/updates ``BENCH_relay.json`` at the repo root under ``--label``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _util import emit, fast_mode, fmt_row  # noqa: E402

from repro.net.faults import FaultPlan  # noqa: E402
from repro.scenario import run_relay_topology  # noqa: E402

SEED = 1234
PARITY_PLAN = FaultPlan(seed=SEED, loss_ratio=0.05, jitter_s=0.1)


def _workload():
    if fast_mode():
        return {"n_viewers": 4, "n_frames": 32, "loops": 2}
    return {"n_viewers": 8, "n_frames": 64, "loops": 3}


@pytest.mark.parametrize("n_relays", (1, 2))
def test_replay_workload_offloads_origin(benchmark, n_relays):
    """Sanity under the benchmark harness: looping viewers are served
    from relay stores, keeping origin traffic near one pass per relay."""
    report = benchmark.pedantic(
        run_relay_topology,
        kwargs={
            "n_relays": n_relays,
            "n_viewers": 6,
            "n_frames": 32,
            "loops": 3,
            "size": 24,
            "pace_s": 0.002,
        },
        rounds=1,
        iterations=1,
    )
    assert report["completed"], report
    assert report["delivered_ratio"] == 1.0
    assert report["duplicates"] == 0 and report["skips"] == 0
    # 6 viewers x 3 loops = 18 passes; origin pays ~1 per relay
    assert report["offload_ratio"] >= 1.0 - (n_relays + 0.5) / 18


def test_relay_sweep_table():
    """Offload vs relay count as a persisted artifact table."""
    kw = _workload()
    lines = [
        fmt_row(
            "relays",
            ["ratio", "offload", "origin", "viewer", "dups", "skips"],
        )
    ]
    for n_relays in (0, 1, 2):
        r = run_relay_topology(
            n_relays=n_relays, size=24, pace_s=0.002, **kw
        )
        lines.append(
            fmt_row(
                str(n_relays),
                [
                    r["delivered_ratio"],
                    r["offload_ratio"],
                    r["origin_frames"],
                    r["viewer_frames"],
                    r["duplicates"],
                    r["skips"],
                ],
            )
        )
    emit("relay", lines)


# -- machine-readable mode (relay-tier trajectory across PRs) -----------------


def _cell(report: dict) -> dict:
    return {
        "delivered_ratio": report["delivered_ratio"],
        "mean_delivered_ratio": report["mean_delivered_ratio"],
        "completed": report["completed"],
        "offload_ratio": report["offload_ratio"],
        "origin_frames": report["origin_frames"],
        "viewer_frames": report["viewer_frames"],
        "duplicates": report["duplicates"],
        "skips": report["skips"],
        "failovers": report["failovers"],
        "elapsed_s": report["elapsed_s"],
        "relays": report["relays"],
    }


def measure(n_viewers: int = 8, n_frames: int = 64, loops: int = 3) -> dict:
    cells = {}
    # the headline replay-heavy workload on a clean link: 2 relays,
    # every loop after the first served without touching the origin
    report = run_relay_topology(
        n_relays=2,
        n_viewers=n_viewers,
        n_frames=n_frames,
        loops=loops,
        size=24,
        pace_s=0.002,
    )
    cells["offload_replay"] = _cell(report)
    # parity under WAN weather: the same faulty viewer links, with and
    # without a relay in the path — delta is the cost of the hop
    direct = run_relay_topology(
        n_relays=0,
        n_viewers=n_viewers,
        n_frames=n_frames,
        loops=loops,
        size=24,
        pace_s=0.002,
        viewer_plan=PARITY_PLAN,
    )
    relayed = run_relay_topology(
        n_relays=2,
        n_viewers=n_viewers,
        n_frames=n_frames,
        loops=loops,
        size=24,
        pace_s=0.002,
        viewer_plan=PARITY_PLAN,
    )
    cells["parity_loss05_jitter100ms"] = {
        "direct": _cell(direct),
        "relayed": _cell(relayed),
        "delta": round(
            relayed["delivered_ratio"] - direct["delivered_ratio"], 4
        ),
    }
    # failover: kill relay0 mid-playback, viewers resume from the peer
    report = run_relay_topology(
        n_relays=2,
        n_viewers=n_viewers,
        n_frames=n_frames,
        loops=loops,
        size=24,
        pace_s=0.002,
        kill_relay_after=n_frames + n_frames // 2,
    )
    cells["failover_kill"] = _cell(report)
    cells["failover_kill"]["killed"] = report["topology"]["killed"]
    return {
        "n_viewers": n_viewers,
        "n_frames": n_frames,
        "loops": loops,
        "seed": SEED,
        "cells": cells,
    }


def write_json(path, label: str, n_viewers: int, n_frames: int,
               loops: int) -> dict:
    import json

    path = Path(path)
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    doc[label] = measure(
        n_viewers=n_viewers, n_frames=n_frames, loops=loops
    )
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def main(argv=None) -> None:
    import argparse

    repo_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="write BENCH_relay.json")
    ap.add_argument("--out", default=str(repo_root / "BENCH_relay.json"))
    ap.add_argument("--label", default="current")
    ap.add_argument("--viewers", type=int, default=8)
    ap.add_argument("--frames", type=int, default=64)
    ap.add_argument("--loops", type=int, default=3)
    args = ap.parse_args(argv)
    if not args.json:
        ap.error("nothing to do: pass --json")
    doc = write_json(
        args.out, args.label, args.viewers, args.frames, args.loops
    )
    cells = doc[args.label]["cells"]
    c = cells["offload_replay"]
    print(
        f"          offload_replay: offload {c['offload_ratio']:.4f}  "
        f"ratio {c['delivered_ratio']:.4f}  origin {c['origin_frames']}  "
        f"viewer {c['viewer_frames']}"
    )
    p = cells["parity_loss05_jitter100ms"]
    print(
        f"  parity_loss05_jitter100ms: direct "
        f"{p['direct']['delivered_ratio']:.4f}  relayed "
        f"{p['relayed']['delivered_ratio']:.4f}  delta {p['delta']:+.4f}"
    )
    c = cells["failover_kill"]
    print(
        f"           failover_kill: killed {c['killed']}  "
        f"failovers {c['failovers']}  dups {c['duplicates']}  "
        f"skips {c['skips']}  ratio {c['delivered_ratio']:.4f}"
    )


if __name__ == "__main__":
    main()
