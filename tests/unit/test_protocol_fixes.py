"""Pinning tests for the DT90x protocol-conformance fixes.

The protoflow analyzer (docs/devtools.md has the triage log) found four
real conformance holes when it was introduced; each test here drives
the *actual* send/receive path of one fix so the behaviour cannot
silently regress:

- the relay's ingest dispatches upstream ``gap`` announcements and its
  players fast-skip the declared range instead of burning a fetch
  timeout per missing frame;
- ``ViewerHandle`` counts well-formed controls it has no handler for;
- the renderer applies the §4.1 ``start_renderer`` daemon command;
- ``DisplayInterface`` counts renderer-originated controls it cannot
  dispatch.
"""

import threading
import time

import numpy as np

from repro.compress import get_codec
from repro.core import RemoteVisualizationSession
from repro.daemon import DisplayDaemon, DisplayInterface
from repro.daemon.protocol import ControlMessage, FrameMessage, decode_message
from repro.data import turbulent_jet
from repro.devtools.waiting import wait_until
from repro.net.transport import FramedConnection
from repro.relay import FrameRelay
from repro.render import Camera
from repro.scenario import synthetic_frames
from repro.serve.broker import SessionBroker
from repro.serve.session import ViewerHandle


def consume(handle, n, timeout=10.0):
    """Read ``n`` frames; returns their ids in arrival order."""
    ids = []
    deadline = time.monotonic() + timeout
    while len(ids) < n and time.monotonic() < deadline:
        try:
            frame = handle.next_frame(timeout=0.25)
        except TimeoutError:
            continue
        ids.append(frame.frame_id)
    return ids


class GatedUpstream:
    """Broker wrapper that holds a relay's *rejoin* open — a WAN cut
    whose reconnect completes only when the test releases it, so frames
    published during the outage deterministically outrun the broker's
    retained history window."""

    def __init__(self, broker):
        self.broker = broker
        self.gate = threading.Event()
        self.gate.set()  # the construction-time join passes untouched
        self._joins = 0

    def join(self, name=None, **kwargs):
        self._joins += 1
        if self._joins > 1 and not self.gate.wait(timeout=10.0):
            raise RuntimeError("reconnect gate never opened")
        return self.broker.join(name, **kwargs)


class TestRelayGapFastSkip:
    def test_upstream_gap_is_dispatched_and_players_jump_it(self):
        """Broker loses history past the relay's resume point, declares
        [3, 6) unrecoverable; the relay must record the gap, re-announce
        it downstream, and serve frame 6 without waiting out the fetch
        timeout once per missing frame."""
        frames = synthetic_frames(10, size=16)
        with SessionBroker(history_frames=4) as broker:
            upstream = GatedUpstream(broker)
            relay = FrameRelay("edge", upstream, fetch_timeout=5.0)
            try:
                upstream.gate.clear()
                viewer = relay.join("v")
                for fid in range(3):
                    broker.publish(frames[fid], time_step=fid, frame_id=fid)
                assert consume(viewer, 3) == [0, 1, 2]
                wait_until(lambda: relay.max_seen() == 2,
                           message="relay ingested frames 0-2")
                # unclean WAN cut: the relay reconnects with
                # resume_from=3, but the gate holds the rejoin while the
                # stream moves on past the broker's 4-frame window
                broker.leave("relay:edge", resumable=True)
                for fid in range(3, 10):
                    broker.publish(frames[fid], time_step=fid, frame_id=fid)
                start = time.monotonic()
                upstream.gate.set()
                assert consume(viewer, 4, timeout=6.0) == [6, 7, 8, 9]
                elapsed = time.monotonic() - start
                # without the gap fast-skip this path burns one
                # fetch_timeout (5s) per missing frame id 3, 4, 5
                assert elapsed < 5.0, f"gap skip took {elapsed:.1f}s"
                assert viewer.gaps == [(3, 6)]
                snap = relay.stats_snapshot()
                assert snap.upstream_gaps == 1
                assert snap.upstream_reconnects == 1
                assert snap.unknown_controls == 0  # gap is dispatched
                viewer.leave()
            finally:
                relay.close()


class TestViewerHandleUnknownControls:
    def test_unhandled_controls_are_counted_not_dropped(self):
        broker_side, viewer_side = FramedConnection.pair("b", "v")
        handle = ViewerHandle("v", viewer_side)
        image = np.arange(8 * 8 * 3, dtype=np.uint8).reshape(8, 8, 3)
        payload = get_codec("raw").encode_image(image)
        broker_side.send(
            ControlMessage(tag="renderer_status", params={"fps": 24}).encode()
        )
        broker_side.send(
            ControlMessage(tag="gap", params={"from": 3, "to": 6}).encode()
        )
        broker_side.send(
            FrameMessage(
                frame_id=0, time_step=0, codec="raw", payload=payload,
                image_shape=(8, 8),
            ).encode()
        )
        frame = handle.next_frame(timeout=5.0)
        assert frame.frame_id == 0
        assert np.array_equal(frame.image, image)
        # the unknown control was counted, the known one dispatched
        assert handle.unknown_controls == 1
        assert handle.gaps == [(3, 6)]
        # and the frame was acked on the real wire
        ack = decode_message(broker_side.recv(timeout=5.0))
        assert ack.tag == "ack" and ack.params["frame_id"] == 0
        handle.close()
        broker_side.close()


class TestStartRendererCommand:
    def test_start_renderer_seeds_the_next_frames_parameters(self):
        dataset = turbulent_jet(scale=0.25, n_steps=2)
        with RemoteVisualizationSession(
            dataset, group_size=1, camera=Camera(image_size=(24, 24)),
            codec="raw",
        ) as sess:
            sess.step(0)
            az, el = sess.camera.azimuth, sess.camera.elevation
            sess.display.start_renderer(
                azimuth=az + 30.0, elevation=el - 10.0, zoom=1.5
            )
            wait_until(lambda: sess.renderer._controls,
                       message="start_renderer control buffered")
            sess.step(1)
            assert sess.renderer_starts == 1
            assert sess.camera.azimuth == az + 30.0
            assert sess.camera.elevation == el - 10.0
            assert sess.camera.zoom == 1.5
            assert sess.unknown_controls == 0


class TestDisplayInterfaceUnknownControls:
    def test_renderer_originated_controls_are_counted(self):
        with DisplayDaemon() as daemon:
            display = DisplayInterface(daemon)
            local, remote = FramedConnection.pair("fake-renderer", "daemon")
            daemon.connect(remote, role="renderer")
            image = np.zeros((8, 8, 3), dtype=np.uint8)
            payload = get_codec("raw").encode_image(image)
            # the renderer pump broadcasts the control to the display
            # port synchronously before it processes the frame, so the
            # display sees them in this order
            local.send(
                ControlMessage(
                    tag="renderer_status", params={"fps": 24}
                ).encode()
            )
            local.send(
                FrameMessage(
                    frame_id=0, time_step=0, codec="raw", payload=payload,
                    image_shape=(8, 8),
                ).encode()
            )
            frame = display.next_frame(timeout=5.0)
            assert frame.frame_id == 0
            assert display.unknown_controls == 1
            local.close()
            display.close()
