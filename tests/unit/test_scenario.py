"""The one rejoin policy (``repro.serve.session.rejoin``) under its two
callers: ``repro.scenario.Viewer`` with a pool of targets, and a
``FrameRelay`` redialling its one upstream.

A cut link makes the client rejoin under its own name, rotating through
its targets when one is closed.  The policy must never spin: a client
whose *only* target is closed has nowhere to go and gives up at once;
otherwise every retry waits on the caller's stop event, which
interrupts it.
"""

import threading
import time

from repro.devtools.waiting import wait_until
from repro.relay import FrameRelay
from repro.scenario import Viewer, synthetic_frames
from repro.serve.broker import SessionBroker


class _CountingTarget:
    """Forwards ``join`` to a real broker, counting the attempts.
    ``wedged`` makes every join after the first find the dead session
    still registered (``ValueError``), as if it were never reaped."""

    def __init__(self, broker, wedged=False):
        self.broker = broker
        self.wedged = wedged
        self.joins = 0

    def join(self, name, **kwargs):
        self.joins += 1
        if self.wedged and self.joins > 1:
            raise ValueError(f"session {name!r} already joined")
        return self.broker.join(name, **kwargs)


def _ingest_thread(relay):
    (thread,) = [t for t in threading.enumerate()
                 if t.name == f"{relay.name}-origin-ingest"]
    return thread


def _served_viewer(targets):
    """A viewer that has consumed one frame from ``targets[0]``."""
    viewer = Viewer(targets, "v0")
    targets[0].broker.publish(synthetic_frames(1, size=16)[0], frame_id=0)
    wait_until(lambda: viewer.consumed == 1, message="first frame")
    return viewer


class TestRejoinPolicy:
    def test_single_closed_target_gives_up_at_once(self):
        """Regression: the pool viewer's failover loop rotated a closed
        single target back onto itself and, skipping the wait meant for
        multi-target pools, busy-spun on ``join`` for its whole 5 s
        deadline."""
        target = _CountingTarget(SessionBroker())
        viewer = _served_viewer([target])
        try:
            t0 = time.monotonic()
            target.broker.close()
            viewer.thread.join(timeout=4.0)
            gave_up_after = time.monotonic() - t0
            assert not viewer.thread.is_alive()
            assert gave_up_after < 1.0
            # the first join, plus the one rejoin that found it closed
            assert target.joins == 2
        finally:
            viewer.stop()

        # the same policy under a relay's upstream redial
        upstream = _CountingTarget(SessionBroker())
        relay = FrameRelay("edge", upstream)
        try:
            ingest = _ingest_thread(relay)
            t0 = time.monotonic()
            upstream.broker.close()
            ingest.join(timeout=4.0)
            assert not ingest.is_alive()
            assert time.monotonic() - t0 < 1.0
            assert upstream.joins == 2
        finally:
            relay.close()

    def test_all_targets_closed_waits_once_per_rotation(self):
        targets = [_CountingTarget(SessionBroker()) for _ in range(2)]
        viewer = _served_viewer(targets)
        try:
            for t in targets:
                t.broker.close()
            threading.Event().wait(0.3)
            t0 = time.monotonic()
            viewer.stop()
            assert time.monotonic() - t0 < 1.0  # the wait is interruptible
            assert not viewer.thread.is_alive()
            # ~0.01 s per rotation of two: tens of attempts, not a spin
            assert sum(t.joins for t in targets) < 200
        finally:
            for t in targets:
                t.broker.close()

        # a relay whose upstream never reaps the dead session: the retry
        # waits on the relay's closing event
        upstream = _CountingTarget(SessionBroker(), wedged=True)
        relay = FrameRelay("edge", upstream)
        try:
            upstream.broker.leave("relay:edge", resumable=True)  # the cut
            threading.Event().wait(0.3)
            t0 = time.monotonic()
            relay.close()
            assert time.monotonic() - t0 < 1.0  # the wait is interruptible
            # ~0.005 s per attempt: tens of attempts, not a spin
            assert 2 <= upstream.joins < 200
        finally:
            relay.close()
            upstream.broker.close()
