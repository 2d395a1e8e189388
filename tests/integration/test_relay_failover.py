"""Relay failover end to end: kill a relay mid-playback, nobody notices.

These run under the autouse locktrace fixture (see ``conftest.py``), so
beyond the delivery assertions every scenario also proves the relay
tier is free of lock-order inversions and leaked threads under real
concurrent schedules.
"""

import threading
import time

from repro.net.faults import FaultPlan
from repro.relay import FrameRelay, PrefetchPolicy, RelayRing
from repro.scenario import run_relay_topology, run_with_faults, synthetic_frames
from repro.serve.broker import SessionBroker


class TestRelayKillFailover:
    def test_viewers_resume_from_peer_with_no_dup_no_skip(self):
        """The headline scenario: one relay of two is killed abruptly
        while its viewers are mid-playback; they must fail over to the
        surviving peer and end with the exact frame sequence."""
        report = run_relay_topology(
            n_relays=2,
            n_viewers=4,
            n_frames=32,
            loops=3,
            size=24,
            pace_s=0.002,
            kill_relay_after=40,
            timeout_s=60.0,
        )
        assert report["completed"], report
        assert report["topology"]["killed"] == "relay0"
        assert report["failovers"] >= 1  # relay0's viewers moved
        assert report["duplicates"] == 0
        assert report["skips"] == 0
        assert report["delivered_ratio"] == 1.0
        # the survivor served the orphaned viewers to completion
        assert report["relays"]["relay1"]["frames_served"] > 0

    def test_killed_relay_drops_out_of_the_ownership_ring(self):
        ring = RelayRing(["relay0", "relay1"], chunk_frames=4)
        with SessionBroker(history_frames=64) as broker:
            r0 = FrameRelay("relay0", broker, ring=ring)
            r1 = FrameRelay("relay1", broker, ring=ring)
            r0.connect_peer(r1)
            r1.connect_peer(r0)
            for fid, image in enumerate(synthetic_frames(8, size=16)):
                broker.publish(image, time_step=fid, frame_id=fid)
            r0.kill()
            # r1's peer ingest notices the cut and removes the corpse
            poll = threading.Event()
            deadline = time.monotonic() + 5.0
            while "relay0" in ring and time.monotonic() < deadline:
                poll.wait(0.01)
            assert "relay0" not in ring
            assert ring.owner(0) == "relay1"  # survivor owns everything
            r1.close()


class TestUpstreamReconnect:
    def test_relay_survives_wan_cut_to_origin(self):
        """The relay→origin link dies mid-stream; the relay reconnects
        with resume and the viewer still sees every frame exactly once."""
        plan = FaultPlan(seed=11, disconnect_after=10)
        n = 32
        with SessionBroker(history_frames=n) as broker:
            relay = FrameRelay(
                "edge", broker, fault_plan=plan, upstream_credits=n + 8
            )
            handle = relay.join("viewer")
            ids = []
            for fid, image in enumerate(synthetic_frames(n, size=16)):
                broker.publish(image, time_step=fid, frame_id=fid)
                time.sleep(0.002)
            deadline = time.monotonic() + 20.0
            while len(ids) < n and time.monotonic() < deadline:
                try:
                    ids.append(relay_frame_id(handle))
                except TimeoutError:
                    continue
            assert ids == list(range(n))
            assert relay.stats_snapshot().upstream_reconnects >= 1
            handle.leave()
            relay.close()


def relay_frame_id(handle) -> int:
    return handle.next_frame(timeout=0.25).frame_id


class TestRelayUnderFaultGrid:
    def test_faultrun_cell_through_a_relay_hop(self):
        """The fault grid's relay cell: 5% loss + jitter on the
        relay→viewer hop, full delivery because the relay waits on
        credits instead of dropping."""
        report = run_with_faults(
            FaultPlan(seed=42, loss_ratio=0.05, jitter_s=0.01),
            n_frames=32,
            n_viewers=2,
            pace_s=0.01,
            relays=1,
        )
        assert report["relays"] == 1
        assert report["delivered_ratio"] >= 0.99, report
        for session in report["sessions"].values():
            assert session["observed_duplicates"] == 0
            assert session["dropped"] == 0

    def test_viewer_disconnect_rejoins_relay_and_resumes(self):
        report = run_with_faults(
            FaultPlan(seed=5, loss_ratio=0.02, disconnect_after=12),
            n_frames=32,
            n_viewers=2,
            pace_s=0.01,
            relays=2,
        )
        assert report["delivered_ratio"] >= 0.99, report
        assert any(
            s["reconnects"] >= 1 for s in report["sessions"].values()
        )
        for session in report["sessions"].values():
            assert session["observed_duplicates"] == 0


class TestPrefetchUnderPressure:
    def test_tiny_store_stays_correct_with_prefetch_and_eviction(self):
        """A store far smaller than the timeline forces constant
        eviction + refetch; delivery must stay exact and the prefetcher
        must never push out pinned in-flight frames."""
        report = run_relay_topology(
            n_relays=1,
            n_viewers=2,
            n_frames=24,
            loops=2,
            size=24,
            pace_s=0.002,
            store_bytes=4 << 10,  # a handful of encoded frames
            prefetch=PrefetchPolicy(lookahead=4, interval_s=0.01),
            timeout_s=60.0,
        )
        assert report["completed"], report
        assert report["delivered_ratio"] == 1.0
        assert report["duplicates"] == 0
        assert report["skips"] == 0
