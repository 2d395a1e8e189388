"""Serving-layer smoke guardrail (``make serve-smoke``).

The fan-out benchmark at tiny scale — 4 viewers, 16 frames — asserting
the structural properties that must survive any broker change: complete
delivery to healthy viewers, encode-once sharing, a warm cache that
actually hits, and a delivered rate floor far below what the broker
really does (so only a structural regression trips it).
"""

import pytest

from repro.scenario import run_fanout, synthetic_frames

pytestmark = pytest.mark.perf_smoke

SMOKE_VIEWERS = 4
SMOKE_FRAMES = 16
#: delivered frames/sec floor, ~10x below a laptop-class core's measured rate
FPS_FLOOR = 20.0


def test_serve_fanout_smoke():
    frames = synthetic_frames(SMOKE_FRAMES, size=64)
    result = run_fanout(SMOKE_VIEWERS, frames, credit_limit=32)

    # every healthy viewer got every frame, encoded exactly once each
    assert result["cold"]["delivered_frames"] == SMOKE_VIEWERS * SMOKE_FRAMES
    assert result["cold"]["encodes"] == SMOKE_FRAMES
    assert result["dropped_frames"] == 0

    # the warm pass re-serves from the cache without re-encoding
    assert result["warm"]["encodes"] == 0
    assert result["warm"]["cache_hit_ratio"] == 1.0

    for label in ("cold", "warm"):
        fps = result[label]["delivered_fps"]
        assert fps >= FPS_FLOOR, f"{label}: {fps:.1f} f/s below {FPS_FLOOR} floor"
