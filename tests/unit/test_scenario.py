"""The one viewer client's rejoin policy (``repro.scenario.Viewer``).

A cut link makes the viewer rejoin under its own name, rotating through
its targets when one is closed.  The policy must never spin: a viewer
whose *only* target is closed has nowhere to go and gives up at once;
with several targets it waits on its stop event once per full rotation.
"""

import threading
import time

from repro.devtools.waiting import wait_until
from repro.scenario import Viewer, synthetic_frames
from repro.serve.broker import SessionBroker


class _CountingTarget:
    """Forwards ``join`` to a real broker, counting the attempts."""

    def __init__(self, broker):
        self.broker = broker
        self.joins = 0

    def join(self, name, **kwargs):
        self.joins += 1
        return self.broker.join(name, **kwargs)


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
