"""Fault-resilience smoke guardrail (``make faults-smoke``).

One tiny WAN cell — 2 viewers, 32 frames, 5% loss with 50 ms jitter —
asserting the structural properties any resilience change must keep:
every viewer handles (acks or deliberately stride-skips) nearly all of
the stream, no client ever observes a duplicate frame, and loss never
surfaces to the application as an error.
"""

import pytest

from repro.net.faults import FaultPlan
from repro.scenario import run_with_faults

pytestmark = pytest.mark.perf_smoke

#: floor well under the ~0.97+ a healthy stack delivers at this cell, so
#: only a structural regression (credit leak, dead retry, resume dup)
#: trips it
RATIO_FLOOR = 0.90


def test_faults_delivery_smoke():
    plan = FaultPlan(seed=99, loss_ratio=0.05, jitter_s=0.05)
    report = run_with_faults(plan, n_frames=32, n_viewers=2, pace_s=0.02)

    assert report["delivered_ratio"] >= RATIO_FLOOR
    for name, session in report["sessions"].items():
        assert session["observed_duplicates"] == 0, name
        assert session["decode_errors"] == 0, name
        assert session["acks"] > 0, name
