"""Serving-layer fan-out: delivered frames/sec vs. viewer and shard count.

The north-star workload is many viewers on one rendered stream.  This
bench publishes one synthetic animated sequence through the serving
layer and records delivered-frames/sec for a *cold* cache (every
(frame, tier) encoded once) and a *warm* cache (the same frame ids
republished, pure cache hits).  Two sweeps:

- the legacy **viewers** sweep (1/4/16/64 viewers, one shard, every
  viewer decoding) — the trajectory tracked since the broker landed;
- the **shards** sweep (1/2/4 shards x 4..256 viewers), where brokers
  run behind the :class:`~repro.serve.shard.SessionRouter` with a
  2-worker encode pool at >1 shard, and only ``AUDIT_VIEWERS`` viewers
  decode (the rest ack without decompressing, so the numbers measure
  serving capacity rather than this one process's decode CPU — see
  ``repro.scenario``).  Warm fps should be flat-or-rising with
  viewer count at >=2 shards; its rows also carry warm delivery-latency
  percentiles (publish->receipt).

Run under pytest (quick sanity rows) or as a script for the tracked
machine-readable trajectory::

    PYTHONPATH=src python benchmarks/bench_serve_fanout.py --json

writes/updates ``BENCH_serve.json`` at the repo root under ``--label``.
``--shard-delta`` prints a small markdown table (warm fps at 4 vs 64
viewers, 1 vs 2 shards) for CI job summaries.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _util import emit, fast_mode, fmt_row  # noqa: E402

from repro.scenario import run_fanout, synthetic_frames  # noqa: E402

VIEWER_COUNTS = (1, 4, 16, 64)
SHARD_COUNTS = (1, 2, 4)
SHARD_VIEWER_COUNTS = (4, 16, 64, 256)
#: decoding viewers per run in the shards sweep; the rest are ack-only
AUDIT_VIEWERS = 2
#: pool size used whenever the shards sweep runs more than one shard
SHARD_ENCODE_WORKERS = 2


def _counts():
    return VIEWER_COUNTS[:3] if fast_mode() else VIEWER_COUNTS


@pytest.mark.parametrize("n_viewers", (1, 4))
def test_fanout_delivers_everything(benchmark, n_viewers):
    """Small-scale correctness under the benchmark harness: every viewer
    gets every frame when nobody is slow."""
    frames = synthetic_frames(16, size=64)
    result = benchmark.pedantic(
        run_fanout, args=(n_viewers, frames), kwargs={"credit_limit": 32},
        rounds=1, iterations=1,
    )
    assert result["cold"]["delivered_frames"] == n_viewers * len(frames)
    assert result["cold"]["encodes"] == len(frames)


def test_fanout_sweep_table():
    """The full sweep as a persisted artifact table."""
    frames = synthetic_frames(16, size=64)
    lines = [fmt_row("viewers", ["cold fps", "warm fps", "encodes", "hit%"])]
    for n in _counts():
        r = run_fanout(n, frames, credit_limit=32)
        lines.append(
            fmt_row(
                str(n),
                [
                    r["cold"]["delivered_fps"],
                    r["warm"]["delivered_fps"],
                    r["cold"]["encodes"] + r["warm"]["encodes"],
                    100.0 * r["warm"]["cache_hit_ratio"],
                ],
            )
        )
    emit("serve_fanout", lines)


# -- machine-readable mode (perf trajectory across PRs) -----------------------


def _row(r: dict) -> dict:
    return {
        "cold_fps": round(r["cold"]["delivered_fps"], 1),
        "warm_fps": round(r["warm"]["delivered_fps"], 1),
        "cold_encodes": r["cold"]["encodes"],
        "warm_encodes": r["warm"]["encodes"],
        "warm_hit_ratio": round(r["warm"]["cache_hit_ratio"], 4),
        "warm_p50_ms": r["warm"]["latency_p50_ms"],
        "warm_p99_ms": r["warm"]["latency_p99_ms"],
        "warm_viewer_p99_ms_max": r["warm"]["viewer_p99_ms_max"],
        "dropped": r["dropped_frames"],
        "transitions": r["tier_transitions"],
    }


def measure_sweep(n_frames: int = 32, size: int = 96) -> dict:
    frames = synthetic_frames(n_frames, size=size)
    # legacy single-shard sweep: every viewer decodes, directly
    # comparable with the trajectory recorded before sharding existed
    rows = {}
    for n in VIEWER_COUNTS:
        rows[str(n)] = _row(run_fanout(n, frames, credit_limit=32))
    # shards axis: serving capacity at scale (audited decode sampling)
    shard_rows = {}
    for shards in SHARD_COUNTS:
        per_viewers = {}
        for n in SHARD_VIEWER_COUNTS:
            r = run_fanout(
                n,
                frames,
                credit_limit=32,
                shards=shards,
                encode_workers=SHARD_ENCODE_WORKERS if shards > 1 else 0,
                audit_viewers=AUDIT_VIEWERS,
            )
            per_viewers[str(n)] = _row(r)
        shard_rows[str(shards)] = {
            "encode_workers": SHARD_ENCODE_WORKERS if shards > 1 else 0,
            "viewers": per_viewers,
        }
    return {
        "n_frames": n_frames,
        "image_size": size,
        "viewers": rows,
        "audit_viewers": AUDIT_VIEWERS,
        "shards": shard_rows,
    }


def write_json(path, label: str, n_frames: int, size: int) -> dict:
    import json

    path = Path(path)
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    doc[label] = measure_sweep(n_frames=n_frames, size=size)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def shard_delta_table(n_frames: int = 16, size: int = 64) -> list[str]:
    """Quick warm-fps comparison (markdown rows) for CI job summaries:
    4 vs 64 viewers at 1 and 2 shards, decode audited on 2 viewers."""
    frames = synthetic_frames(n_frames, size=size)
    lines = [
        "| shards | warm f/s @4 viewers | warm f/s @64 viewers | delta |",
        "|---|---|---|---|",
    ]
    for shards in (1, 2):
        warm = {}
        for n in (4, 64):
            r = run_fanout(
                n,
                frames,
                credit_limit=32,
                shards=shards,
                encode_workers=SHARD_ENCODE_WORKERS if shards > 1 else 0,
                audit_viewers=AUDIT_VIEWERS,
            )
            warm[n] = r["warm"]["delivered_fps"]
        ratio = warm[64] / warm[4] if warm[4] else 0.0
        lines.append(
            f"| {shards} | {warm[4]:.1f} | {warm[64]:.1f} | {ratio:.2f}x |"
        )
    return lines


def main(argv=None) -> None:
    import argparse

    repo_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="write BENCH_serve.json")
    ap.add_argument(
        "--shard-delta",
        action="store_true",
        help="print the warm-fps shard scaling table (markdown) and exit",
    )
    ap.add_argument("--out", default=str(repo_root / "BENCH_serve.json"))
    ap.add_argument("--label", default="current")
    ap.add_argument("--frames", type=int, default=32)
    ap.add_argument("--size", type=int, default=96)
    args = ap.parse_args(argv)
    if args.shard_delta:
        for line in shard_delta_table():
            print(line)
        return
    if not args.json:
        ap.error("nothing to do: pass --json or --shard-delta")
    doc = write_json(args.out, args.label, args.frames, args.size)
    for n, row in sorted(doc[args.label]["viewers"].items(), key=lambda kv: int(kv[0])):
        print(
            f"{n:>3} viewers: cold {row['cold_fps']:>8.1f} f/s  "
            f"warm {row['warm_fps']:>8.1f} f/s  "
            f"encodes {row['cold_encodes']}+{row['warm_encodes']}  "
            f"warm hit {row['warm_hit_ratio'] * 100:.1f}%"
        )
    for shards, block in sorted(
        doc[args.label].get("shards", {}).items(), key=lambda kv: int(kv[0])
    ):
        for n, row in sorted(
            block["viewers"].items(), key=lambda kv: int(kv[0])
        ):
            print(
                f"{shards} shard(s) x {n:>3} viewers: "
                f"cold {row['cold_fps']:>8.1f} f/s  "
                f"warm {row['warm_fps']:>8.1f} f/s  "
                f"warm p99 {row['warm_p99_ms']:.1f} ms"
            )


if __name__ == "__main__":
    main()
