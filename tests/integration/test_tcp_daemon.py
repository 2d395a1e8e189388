"""Integration tests: the daemon framework over real TCP sockets.

The paper's deployment shape — renderer, daemon and display as separate
programs — exercised over localhost sockets with the same interfaces the
in-process tests use.
"""

import time

import numpy as np
import pytest

from repro.daemon import DisplayInterface, RendererInterface
from repro.daemon.tcp import TcpConnection, TcpDaemonServer, connect_daemon
from repro.devtools.waiting import wait_until
from repro.net.transport import ChannelClosed


@pytest.fixture
def server():
    with TcpDaemonServer() as srv:
        yield srv


class TestTcpTransport:
    def test_frame_roundtrip_over_sockets(self, server, gradient_image):
        renderer = RendererInterface(
            connection=connect_daemon(server.address, "renderer"), codec="lzo"
        )
        display = DisplayInterface(
            connection=connect_daemon(server.address, "display")
        )
        renderer.send_frame(gradient_image, time_step=5)
        frame = display.next_frame(timeout=10)
        assert frame.time_step == 5
        assert np.array_equal(frame.image, gradient_image)
        renderer.close()
        display.close()

    def test_jpeg_frames_and_pieces(self, server, gradient_image):
        renderer = RendererInterface(
            connection=connect_daemon(server.address, "renderer"),
            codec="jpeg+lzo",
        )
        display = DisplayInterface(
            connection=connect_daemon(server.address, "display")
        )
        renderer.send_frame_pieces(gradient_image, time_step=0, n_pieces=4)
        frame = display.next_frame(timeout=10)
        assert frame.n_pieces == 4
        mse = ((frame.image.astype(float) - gradient_image) ** 2).mean()
        assert mse < 200
        renderer.close()
        display.close()

    def test_control_path_over_sockets(self, server, gradient_image):
        renderer = RendererInterface(
            connection=connect_daemon(server.address, "renderer"), codec="raw"
        )
        display = DisplayInterface(
            connection=connect_daemon(server.address, "display")
        )
        display.set_view(azimuth=77, elevation=-5)
        wait_until(lambda: renderer.pending_view() is not None, timeout=5,
                   interval=0.02, message="view control never arrived")
        assert renderer.pending_view() == {"azimuth": 77, "elevation": -5}
        renderer.close()
        display.close()

    def test_multiple_renderers_one_display(self, server, gradient_image):
        r1 = RendererInterface(
            connection=connect_daemon(server.address, "renderer"), codec="raw"
        )
        r2 = RendererInterface(
            connection=connect_daemon(server.address, "renderer"), codec="raw"
        )
        display = DisplayInterface(
            connection=connect_daemon(server.address, "display")
        )
        r1.send_frame(gradient_image, time_step=0, frame_id=0)
        r2.send_frame(gradient_image, time_step=1, frame_id=1)
        steps = sorted(display.next_frame(timeout=10).time_step for _ in range(2))
        assert steps == [0, 1]
        for c in (r1, r2, display):
            c.close()

    def test_bad_role_rejected(self, server):
        with pytest.raises(ValueError):
            connect_daemon(server.address, "spectator")

    def test_traffic_logged(self, server, gradient_image):
        conn = connect_daemon(server.address, "renderer")
        renderer = RendererInterface(connection=conn, codec="raw")
        renderer.send_frame(gradient_image, time_step=0)
        assert conn.traffic.bytes_sent > gradient_image.nbytes
        renderer.close()

    def test_server_close_disconnects_peers(self, gradient_image):
        srv = TcpDaemonServer()
        conn = connect_daemon(srv.address, "display")
        srv.close()
        time.sleep(0.1)
        with pytest.raises((ChannelClosed, TimeoutError)):
            conn.recv(timeout=0.5)
            conn.recv(timeout=0.5)


class TestHandshakeRejects:
    """Broken or hostile peers are dropped and counted, never crash the
    accept loop, and never register with the daemon."""

    def _wait_reject(self, server, reason, n=1, deadline_s=5.0):
        try:
            wait_until(lambda: server.reject_reasons.get(reason, 0) >= n,
                       timeout=deadline_s, interval=0.02)
            return True
        except TimeoutError:
            return False

    def test_malformed_hello_counted(self, server):
        import socket as socket_mod

        sock = socket_mod.create_connection(server.address, timeout=5)
        conn = TcpConnection(sock)
        conn.send(b"this is not a protocol message")
        assert self._wait_reject(server, "malformed_hello")
        conn.close()

    def test_non_hello_first_message_counted(self, server):
        import socket as socket_mod

        from repro.daemon.protocol import ControlMessage

        sock = socket_mod.create_connection(server.address, timeout=5)
        conn = TcpConnection(sock)
        conn.send(ControlMessage(tag="view", params={}).encode())
        assert self._wait_reject(server, "not_a_hello")
        conn.close()

    def test_unknown_role_counted(self, server):
        import socket as socket_mod

        from repro.daemon.protocol import HelloMessage

        sock = socket_mod.create_connection(server.address, timeout=5)
        conn = TcpConnection(sock)
        conn.send(HelloMessage(role="spectator", name="x").encode())
        assert self._wait_reject(server, "bad_role")
        conn.close()

    def test_silent_peer_times_out(self):
        import socket as socket_mod

        with TcpDaemonServer(handshake_timeout_s=0.2) as srv:
            sock = socket_mod.create_connection(srv.address, timeout=5)
            assert self._wait_reject(srv, "hello_timeout")
            sock.close()

    def test_peer_that_hangs_up_counted(self, server):
        import socket as socket_mod

        sock = socket_mod.create_connection(server.address, timeout=5)
        sock.close()
        assert self._wait_reject(server, "peer_closed")

    def test_good_peer_still_admitted_after_rejects(self, server):
        import socket as socket_mod

        sock = socket_mod.create_connection(server.address, timeout=5)
        conn = TcpConnection(sock)
        conn.send(b"garbage")
        assert self._wait_reject(server, "malformed_hello")
        good = connect_daemon(server.address, "display")
        assert server.handshake_rejects == 1
        good.close()
        conn.close()

    def test_close_joins_accept_thread(self):
        srv = TcpDaemonServer()
        accept_thread = srv._accept_thread
        srv.close()
        assert not accept_thread.is_alive()


class TestFraming:
    def test_interface_requires_exactly_one_attachment(self):
        with pytest.raises(ValueError):
            RendererInterface()
        with pytest.raises(ValueError):
            DisplayInterface()

    def test_length_prefixed_frames(self, server):
        import socket as socket_mod

        sock = socket_mod.create_connection(server.address, timeout=5)
        conn = TcpConnection(sock)
        conn.send(b"\x00" * 10)
        sent = conn.traffic.sent
        assert sent == [10]
        conn.close()

    def test_oversized_frame_rejected(self):
        import socket as socket_mod

        a, b = socket_mod.socketpair()
        conn = TcpConnection(b)
        a.sendall((1 << 30).to_bytes(4, "big"))
        with pytest.raises(ChannelClosed):
            conn.recv(timeout=2)
        a.close()
        conn.close()

    def test_pair_sends_both_ways(self):
        a, b = TcpConnection.pair("a", "b")
        try:
            a.send(b"ping", timeout=2)
            assert b.recv(timeout=2) == b"ping"
            b.send(b"pong" * 1000, timeout=2)
            assert a.recv(timeout=2) == b"pong" * 1000
            assert a.traffic.sent == [4] and b.traffic.sent == [4000]
            assert (a.name, b.name) == ("a", "b")
        finally:
            a.close()
            b.close()
