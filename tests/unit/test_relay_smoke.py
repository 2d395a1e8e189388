"""Relay-tier smoke guardrail (``make relay-smoke``).

The replay-heavy workload at small scale — viewers looping a published
timeline through edge relays — asserting the structural properties any
relay change must preserve: complete in-order delivery, the ≥90%
origin-offload contract (each timeline crosses the WAN once per relay,
not once per viewer pass), and a store that serves replays without
re-fetching.
"""

import pytest

from repro.scenario import run_relay_topology

pytestmark = pytest.mark.perf_smoke

SMOKE_RELAYS = 2
SMOKE_VIEWERS = 8
SMOKE_FRAMES = 32
SMOKE_LOOPS = 3


def test_relay_replay_offload_smoke():
    report = run_relay_topology(
        n_relays=SMOKE_RELAYS,
        n_viewers=SMOKE_VIEWERS,
        n_frames=SMOKE_FRAMES,
        loops=SMOKE_LOOPS,
        size=24,
        pace_s=0.002,
        timeout_s=60.0,
    )
    assert report["completed"], report
    # every viewer played every loop completely, in order
    assert report["delivered_ratio"] == 1.0
    assert report["duplicates"] == 0
    assert report["skips"] == 0
    # the offload contract: N viewers × loops cost ~one WAN pass per
    # relay.  Exact floor would be 1 - 2/(8·3) ≈ 0.9167; the ≥0.90 gate
    # leaves room for a few duplicate WAN frames from seek/live races.
    assert report["offload_ratio"] >= 0.90, report["offload_ratio"]
    # replays were store hits, not upstream waits
    for name, relay in report["relays"].items():
        assert relay["frames_unavailable"] == 0, (name, relay)
        assert relay["store_hits"] >= relay["store_waits"], (name, relay)
