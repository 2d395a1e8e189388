"""Reconnect-with-resume over a faulty WAN link.

The acceptance scenario for the resilience layer: under an injected
lossy/jittery fault plan with a scheduled mid-stream disconnect, a
viewer that rejoins under its own name resumes from the frame after the
last one it consumed — the full stream arrives with no duplicate and no
skipped frame ids.
"""

import time

import numpy as np
import pytest

from join_surfaces import SURFACES, host_of, join_surface, surface_stats
from repro.devtools.waiting import wait_until
from repro.net.faults import FaultPlan
from repro.net.transport import ChannelClosed, RetryPolicy
from repro.daemon.protocol import ControlMessage, FrameMessage
from repro.serve import QualityTier, SessionBroker, TierLadder

RETRY = RetryPolicy(max_attempts=8, backoff_s=0.001, max_backoff_s=0.01)

#: lossless, stride-free ladder so every published frame must arrive
#: bit-exact — any resume bug shows up as a wrong frame id, not noise
LOSSLESS = TierLadder(
    (QualityTier("full", "lzo"), QualityTier("low", "rle"))
)


def _frames(n, size=24):
    rng = np.random.default_rng(7)
    return [rng.integers(0, 255, (size, size, 3), dtype=np.uint8)
            for _ in range(n)]


def _rejoin(broker, name, plan, resume_from, deadline_s=5.0):
    """Rejoin under the same name, waiting out the pump-reap race."""

    def try_join():
        try:
            return broker.join(
                name,
                fault_plan=plan.reconnected(),
                retry=RETRY,
                resume_from=resume_from,
            )
        except ValueError:  # the pump has not reaped the dead session yet
            return None

    return wait_until(try_join, timeout=deadline_s, interval=0.005,
                      message=f"could not rejoin {name!r}")


class TestReconnectResume:
    def test_resume_after_midstream_disconnect_no_dup_no_skip(self):
        plan = FaultPlan(
            seed=5, loss_ratio=0.05, jitter_s=0.1, disconnect_after=8
        )
        broker = SessionBroker(
            ladder=LOSSLESS, credit_limit=32, history_frames=64
        )
        frames = _frames(24)
        got = []
        try:
            handle = broker.join("wan", fault_plan=plan, retry=RETRY)
            assert not handle.resumed
            for fid, image in enumerate(frames):
                broker.publish(image, time_step=fid, frame_id=fid)
                while len(got) <= fid:
                    try:
                        served = handle.next_frame(timeout=2.0)
                    except ConnectionError:
                        handle = _rejoin(broker, "wan", plan, len(got))
                        assert handle.resumed
                        continue
                    got.append(served.frame_id)
                    np.testing.assert_array_equal(
                        served.image, frames[served.frame_id]
                    )
        finally:
            handle.leave()
            stats = broker.stats()
            broker.close()

        assert got == list(range(24))  # no duplicates, no gaps
        assert stats.resumes == 1
        session = stats.sessions.get("wan") or next(
            s for s in stats.departed if s.name == "wan"
        )
        assert session.reconnects == 1

    def test_clean_leave_then_rejoin_is_a_fresh_session(self):
        broker = SessionBroker(ladder=LOSSLESS, credit_limit=8)
        try:
            first = broker.join("polite")
            broker.publish(_frames(1)[0], frame_id=0)
            assert first.next_frame(timeout=2.0).frame_id == 0
            first.leave()
            broker.drain(timeout=2.0, names=[])

            # a polite leave parks nothing: the rejoin starts over
            def try_rejoin():
                try:
                    return broker.join("polite")
                except ValueError:
                    return None

            second = wait_until(try_rejoin, timeout=2.0, interval=0.005)
            assert second is not None
            assert not second.resumed
            assert broker.stats().resumes == 0
            second.leave()
        finally:
            broker.close()


class TestMalformedControls:
    def test_bad_acks_are_counted_and_do_not_kill_the_pump(self):
        for kind in SURFACES:
            with join_surface(kind, credit_limit=8) as (target, origin):
                self._hostile_viewer(target, origin)

    def _hostile_viewer(self, target, origin):
        handle = target.join("hostile")
        raw = handle.conn
        # undecodable bytes, acks/seeks without or with junk frame ids,
        # and a frame message where only control traffic is legal
        raw.send(b"\x00\xffnot a protocol frame")
        raw.send(ControlMessage(tag="ack", params={}).encode())
        raw.send(ControlMessage(tag="ack", params={"frame_id": "nan"}).encode())
        raw.send(ControlMessage(tag="ack", params={"frame_id": -3}).encode())
        raw.send(ControlMessage(tag="ack", params={"frame_id": True}).encode())
        raw.send(ControlMessage(tag="seek", params={"frame_id": True}).encode())
        raw.send(ControlMessage(tag="seek", params={"frame_id": -1}).encode())
        raw.send(
            FrameMessage(
                frame_id=0, time_step=0, codec="raw", payload=b"x"
            ).encode()
        )
        # and one well-formed control with a tag nobody registered
        raw.send(ControlMessage(tag="renderer_status", params={}).encode())
        wait_until(lambda: surface_stats(target).unknown == 1, timeout=2.0,
                   message="unknown control counted")
        assert surface_stats(target).malformed == 8

        # none of it reached the credit machinery
        (session,) = [
            s for s in host_of(target, "hostile").live()
            if s.name == "hostile"
        ]
        assert session.in_flight == 0
        assert surface_stats(target).sessions["hostile"].acks == 0

        # the pump survived: real traffic still flows and acks count
        origin.publish(_frames(1)[0], frame_id=0)
        assert handle.next_frame(timeout=2.0).frame_id == 0
        assert target.drain(timeout=2.0)
        assert surface_stats(target).sessions["hostile"].acks == 1
        handle.leave()
