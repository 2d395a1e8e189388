"""Sharded-serving smoke guardrail (``make serve-shard-smoke``).

The fan-out harness through a 2-shard router with a 2-worker encode
pool, at 4 and 64 viewers.  Asserts the structural properties of the
scale-out layer — complete delivery through the shard pumps, one pool
encode per (frame, tier) per shard cache, warm passes that never
re-encode — and the scaling property the sharding exists for: warm
delivered-fps must not collapse as the viewer count grows 16x.

Viewer counts beyond the audit handful ack without decoding (see
``run_fanout``'s ``audit_viewers``): every viewer shares this one
process, so a decode-everything crowd would measure its own CPU, not
the router's.
"""

import pytest

from repro.scenario import run_fanout, synthetic_frames

pytestmark = pytest.mark.perf_smoke

SMOKE_SHARDS = 2
SMOKE_ENCODE_WORKERS = 2
SMOKE_FRAMES = 16
SMOKE_AUDIT_VIEWERS = 2
#: the growth step the guardrail checks: 4 -> 64 viewers
SMOKE_VIEWERS_LOW = 4
SMOKE_VIEWERS_HIGH = 64
#: warm fps at 64 viewers must stay within this factor of 4 viewers —
#: measured headroom is ~8x *above* 1.0, so only a real scaling
#: collapse (per-viewer work back on one lock, O(V^2) drains) trips it
SCALE_TOLERANCE = 0.9
#: absolute floor, far below a laptop-class core's measured rate
FPS_FLOOR = 20.0


def _run(n_viewers, frames):
    return run_fanout(
        n_viewers,
        frames,
        credit_limit=32,
        shards=SMOKE_SHARDS,
        encode_workers=SMOKE_ENCODE_WORKERS,
        audit_viewers=SMOKE_AUDIT_VIEWERS,
    )


def test_shard_fanout_smoke():
    frames = synthetic_frames(SMOKE_FRAMES, size=64)
    results = {
        n: _run(n, frames)
        for n in (SMOKE_VIEWERS_LOW, SMOKE_VIEWERS_HIGH)
    }

    for n, r in results.items():
        # complete delivery through the shard pumps, nobody dropped
        assert r["cold"]["delivered_frames"] == n * SMOKE_FRAMES
        assert r["dropped_frames"] == 0
        # each shard fills its own cache exactly once per frame ...
        assert r["cold"]["encodes"] == SMOKE_SHARDS * SMOKE_FRAMES
        # ... but the pool never encodes more than the shards requested,
        # and coalescing means concurrent shard misses can share work
        assert SMOKE_FRAMES <= r["pool"]["encodes"] <= (
            SMOKE_SHARDS * SMOKE_FRAMES
        )
        # the warm pass re-serves from the shard caches, no re-encode
        assert r["warm"]["encodes"] == 0
        assert r["warm"]["cache_hit_ratio"] == 1.0
        for label in ("cold", "warm"):
            fps = r[label]["delivered_fps"]
            assert fps >= FPS_FLOOR, (
                f"{n} viewers {label}: {fps:.1f} f/s below {FPS_FLOOR}"
            )

    # the scaling guardrail: 16x the viewers must not collapse warm
    # throughput (the single-broker curve this layer replaced did)
    warm_low = results[SMOKE_VIEWERS_LOW]["warm"]["delivered_fps"]
    warm_high = results[SMOKE_VIEWERS_HIGH]["warm"]["delivered_fps"]
    assert warm_high >= SCALE_TOLERANCE * warm_low, (
        f"warm fps collapsed under fan-out: {warm_high:.1f} f/s @"
        f"{SMOKE_VIEWERS_HIGH} viewers vs {warm_low:.1f} f/s @"
        f"{SMOKE_VIEWERS_LOW} (tolerance {SCALE_TOLERANCE})"
    )
