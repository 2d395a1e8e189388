"""Unit tests for the display daemon and its two interfaces."""

import time

import numpy as np
import pytest

from repro.daemon import DisplayDaemon, DisplayInterface, RendererInterface
from repro.devtools.waiting import wait_until


@pytest.fixture
def system():
    daemon = DisplayDaemon(buffer_frames=8)
    renderer = RendererInterface(daemon, codec="lzo")
    display = DisplayInterface(daemon)
    yield daemon, renderer, display
    renderer.close()
    display.close()
    daemon.close()


class TestFramePath:
    def test_single_frame_lossless(self, system, gradient_image):
        _, renderer, display = system
        renderer.send_frame(gradient_image, time_step=3)
        frame = display.next_frame(timeout=5)
        assert frame.time_step == 3
        assert np.array_equal(frame.image, gradient_image)

    def test_frames_arrive_in_order(self, system, gradient_image):
        _, renderer, display = system
        for t in range(5):
            renderer.send_frame(gradient_image, time_step=t)
        steps = [display.next_frame(timeout=5).time_step for _ in range(5)]
        assert steps == list(range(5))

    def test_pieces_reassembled(self, system, gradient_image):
        _, renderer, display = system
        sizes = renderer.send_frame_pieces(gradient_image, time_step=0, n_pieces=4)
        assert len(sizes) == 4
        frame = display.next_frame(timeout=5)
        assert frame.n_pieces == 4
        assert np.array_equal(frame.image, gradient_image)

    def test_manual_piece_sending(self, system, gradient_image):
        _, renderer, display = system
        h = gradient_image.shape[0]
        mid = h // 2
        shape = (h, gradient_image.shape[1])
        renderer.send_piece(
            gradient_image[:mid], 0, frame_id=9, piece_index=0, n_pieces=2,
            row_range=(0, mid), image_shape=shape,
        )
        renderer.send_piece(
            gradient_image[mid:], 0, frame_id=9, piece_index=1, n_pieces=2,
            row_range=(mid, h), image_shape=shape,
        )
        frame = display.next_frame(timeout=5)
        assert frame.frame_id == 9
        assert np.array_equal(frame.image, gradient_image)

    def test_jpeg_codec_through_daemon(self, gradient_image):
        with DisplayDaemon() as daemon:
            renderer = RendererInterface(daemon, codec="jpeg+lzo")
            display = DisplayInterface(daemon)
            payload = renderer.send_frame(gradient_image, time_step=0)
            frame = display.next_frame(timeout=5)
            assert frame.payload_bytes == payload
            assert payload < gradient_image.nbytes / 5
            mse = ((frame.image.astype(float) - gradient_image) ** 2).mean()
            assert mse < 200

    def test_payload_sizes_reported(self, system, rendered_rgb):
        _, renderer, display = system
        n = renderer.send_frame(rendered_rgb, time_step=0)
        frame = display.next_frame(timeout=5)
        assert frame.payload_bytes == n

    def test_multiple_displays_both_receive(self, gradient_image):
        with DisplayDaemon() as daemon:
            renderer = RendererInterface(daemon, codec="raw")
            d1 = DisplayInterface(daemon, name="d1")
            d2 = DisplayInterface(daemon, name="d2")
            renderer.send_frame(gradient_image, time_step=0)
            f1 = d1.next_frame(timeout=5)
            f2 = d2.next_frame(timeout=5)
            assert np.array_equal(f1.image, f2.image)


class TestBuffering:
    def test_buffer_drops_oldest_whole_frames(self, gradient_image):
        daemon = DisplayDaemon(buffer_frames=2)
        renderer = RendererInterface(daemon, codec="raw")
        display = DisplayInterface(daemon)
        # hold the drain pump busy by flooding before reading
        for t in range(30):
            renderer.send_frame(gradient_image, time_step=t, frame_id=t)
        time.sleep(0.5)
        got = []
        try:
            while True:
                got.append(display.next_frame(timeout=0.5).time_step)
        except TimeoutError:
            pass
        assert got, "expected at least one frame delivered"
        assert got == sorted(got)
        assert got[-1] == 29  # newest survives
        daemon.close()

    def test_unbounded_buffer_keeps_everything(self, gradient_image):
        daemon = DisplayDaemon(buffer_frames=0)
        renderer = RendererInterface(daemon, codec="raw")
        display = DisplayInterface(daemon)
        for t in range(10):
            renderer.send_frame(gradient_image, time_step=t)
        steps = [display.next_frame(timeout=5).time_step for _ in range(10)]
        assert steps == list(range(10))
        assert daemon.dropped_frames == 0
        daemon.close()


class TestControlPath:
    def test_view_callback_buffered(self, system):
        _, renderer, display = system
        display.set_view(azimuth=120, elevation=-15)
        pending = wait_until(renderer.pending_view, timeout=3,
                             message="view control never arrived")
        assert pending == {"azimuth": 120, "elevation": -15}

    def test_controls_drain_once(self, system):
        _, renderer, display = system
        display.send_control("custom", value=1)
        drained = wait_until(renderer.drain_controls, timeout=3,
                             message="control never arrived")
        assert [m.tag for m in drained] == ["custom"]
        assert renderer.drain_controls() == []

    def test_set_codec_switches_renderer(self, system):
        _, renderer, display = system
        assert renderer.codec.name == "lzo"
        display.set_codec("jpeg+bzip", quality=85)
        wait_until(lambda: renderer.codec.name == "jpeg+bzip", timeout=3,
                   message="codec switch never applied")
        assert renderer.codec.name == "jpeg+bzip"
        assert renderer.codec.first.quality == 85

    def test_colormap_message(self, system):
        _, renderer, display = system
        display.set_colormap([0.0, 1.0], [[0, 0, 0, 0], [1, 1, 1, 1]])
        msgs = wait_until(renderer.drain_controls, timeout=3,
                          message="colormap control never arrived")
        assert msgs[0].tag == "colormap"
        assert msgs[0].params["positions"] == [0.0, 1.0]

    def test_control_reaches_all_renderers(self, gradient_image):
        with DisplayDaemon() as daemon:
            r1 = RendererInterface(daemon, codec="raw", name="r1")
            r2 = RendererInterface(daemon, codec="raw", name="r2")
            display = DisplayInterface(daemon)
            display.set_view(azimuth=1, elevation=2)
            wait_until(
                lambda: r1.pending_view() is not None
                and r2.pending_view() is not None,
                timeout=3, message="view control never reached both renderers",
            )
            assert r1.pending_view() == {"azimuth": 1, "elevation": 2}
            assert r2.pending_view() == {"azimuth": 1, "elevation": 2}


class TestLifecycle:
    def test_daemon_context_manager(self):
        with DisplayDaemon() as daemon:
            assert daemon.dropped_frames == 0

    def test_unknown_role_rejected(self):
        from repro.net.transport import FramedConnection

        with DisplayDaemon() as daemon:
            conn, _ = FramedConnection.pair()
            with pytest.raises(ValueError):
                daemon.connect(conn, role="spectator")


class TestSlowConsumer:
    """A display that never drains must not stall anyone else."""

    def _bounded_display(self, daemon, maxsize=2):
        from repro.net.transport import FramedConnection

        local, remote = FramedConnection.pair("slow-local", "slow-daemon",
                                              maxsize=maxsize)
        daemon.connect(remote, role="display", name="slow")
        return local

    def test_never_draining_display_triggers_whole_frame_drops(
        self, gradient_image
    ):
        from repro.daemon import DisplayDaemon, DisplayInterface, RendererInterface

        n_frames, buffer_frames = 30, 2
        daemon = DisplayDaemon(buffer_frames=buffer_frames)
        renderer = RendererInterface(daemon, codec="raw")
        fast = DisplayInterface(daemon, name="fast")
        self._bounded_display(daemon)  # never recv'd from
        # paced stream: the fast display consumes each frame as it lands,
        # so any drop can only come from the wedged slow display
        steps = []
        for t in range(n_frames):
            renderer.send_frame(gradient_image, time_step=t, frame_id=t)
            steps.append(fast.next_frame(timeout=5).time_step)
        assert steps == list(range(n_frames))
        wait_until(lambda: daemon.dropped_frames > 0, timeout=5,
                   message="slow display never triggered a drop")
        # accounting: everything beyond the slow port's pipe + buffer
        # capacity was dropped whole, and only from the slow display
        assert daemon.dropped_frames > 0
        assert daemon.dropped_frames <= n_frames - buffer_frames
        daemon.close()

    def test_close_mid_stream_joins_all_pump_threads(self, gradient_image):
        from repro.daemon import DisplayDaemon, DisplayInterface, RendererInterface

        daemon = DisplayDaemon(buffer_frames=2)
        renderer = RendererInterface(daemon, codec="raw")
        DisplayInterface(daemon, name="fast")
        self._bounded_display(daemon)  # its frame pump blocks in send()
        for t in range(20):
            renderer.send_frame(gradient_image, time_step=t, frame_id=t)
        time.sleep(0.2)  # let pumps wedge against the full pipe
        daemon.close()
        for thread in daemon._threads:
            thread.join(timeout=1.0)
        assert all(not t.is_alive() for t in daemon._threads)


class TestLifecycleGuards:
    def test_connect_after_close_raises(self):
        from repro.daemon import DisplayDaemon
        from repro.net.transport import FramedConnection

        daemon = DisplayDaemon()
        daemon.close()
        conn, _ = FramedConnection.pair()
        with pytest.raises(RuntimeError):
            daemon.connect(conn, role="display")
        with pytest.raises(RuntimeError):
            daemon.connect(conn, role="renderer")

