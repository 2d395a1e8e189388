"""TCP transport for the display-daemon framework.

In the paper the renderer, display daemon and display run as separate
programs on different machines — the daemon "can accept any number of
connections from renderer interface and display interface".  This module
provides that deployment shape over real sockets: a
:class:`TcpDaemonServer` listens on a host/port, peers connect with
:func:`connect_daemon`, and each connection speaks the same framed
protocol as the in-process channels (4-byte big-endian length prefix per
frame), introduced by a ``HelloMessage`` declaring the peer's role.

A :class:`TcpConnection` is a :class:`~repro.net.transport.FramedConnection`
whose raw ops are socket reads and writes, so it inherits the one
``send``/``recv`` (the ``op_timeout`` default and the traffic log), and
:class:`~repro.daemon.renderer_interface.RendererInterface` and
:class:`~repro.daemon.display_interface.DisplayInterface` work over TCP
unchanged via their ``connection=`` hook.  A socket never loses a frame,
so nothing here retransmits; a WAN-shaped link wraps the endpoint in a
:class:`~repro.net.faults.FaultyConnection`, which does.
"""

from __future__ import annotations

import socket
import struct
import threading

from repro.daemon.display_daemon import DisplayDaemon
from repro.daemon.protocol import HelloMessage, decode_message
from repro.net.transport import ChannelClosed, FramedConnection, TrafficLog

__all__ = ["TcpConnection", "TcpDaemonServer", "connect_daemon"]

_LEN = struct.Struct(">I")
_MAX_FRAME = 256 * 1024 * 1024


class TcpConnection(FramedConnection):
    """A framed byte connection over a TCP socket.

    Wire format: ``u32be length | payload`` per frame.  Thread-safe for
    one sender + one receiver.  ``op_timeout`` (seconds) bounds any
    ``send``/``recv`` that does not pass an explicit timeout.
    """

    def __init__(
        self,
        sock: socket.socket,
        name: str = "",
        op_timeout: float | None = None,
    ):
        self._sock = sock
        self.name = name
        self.op_timeout = op_timeout
        self.traffic = TrafficLog()
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False

    @classmethod
    def pair(
        cls, a_name: str = "a", b_name: str = "b"
    ) -> tuple["TcpConnection", "TcpConnection"]:
        """Two endpoints joined by ``socket.socketpair()``."""
        a_sock, b_sock = socket.socketpair()
        return cls(a_sock, a_name), cls(b_sock, b_name)

    def _send_raw(self, frame: bytes, timeout: float | None) -> None:
        header = _LEN.pack(len(frame))
        try:
            with self._send_lock:
                if timeout is None:
                    self._sock.sendall(header + frame)
                else:
                    # scoped socket timeout; restored so a concurrent
                    # receiver's settimeout is the steady state
                    self._sock.settimeout(timeout)
                    try:
                        self._sock.sendall(header + frame)
                    finally:
                        self._sock.settimeout(None)
        except socket.timeout:
            raise TimeoutError("tcp send timed out") from None
        except OSError as exc:
            raise ChannelClosed(f"tcp send failed: {exc}") from exc

    def _recv_exact(self, n: int, timeout: float | None) -> bytes:
        chunks = []
        remaining = n
        try:
            self._sock.settimeout(timeout)
        except OSError as exc:  # socket already torn down
            raise ChannelClosed(f"tcp socket closed: {exc}") from exc
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                raise TimeoutError("tcp recv timed out") from None
            except OSError as exc:
                raise ChannelClosed(f"tcp recv failed: {exc}") from exc
            if not chunk:
                raise ChannelClosed("peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _recv_raw(self, timeout: float | None) -> bytes:
        with self._recv_lock:
            header = self._recv_exact(_LEN.size, timeout)
            (length,) = _LEN.unpack(header)
            if length > _MAX_FRAME:
                raise ChannelClosed(f"tcp frame too large: {length}")
            return self._recv_exact(length, timeout)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class TcpDaemonServer:
    """A display daemon listening for TCP peers.

    Every accepted connection must open with a ``HelloMessage``; the
    daemon then attaches it with the declared role exactly as it does
    for in-process connections.  Handshakes that fail — dead peers,
    malformed frames, a non-hello first message, or a rejected role —
    are dropped and *counted* (``handshake_rejects`` /
    ``reject_reasons``) instead of silently swallowed, so operator
    stats distinguish "nobody connects" from "everybody is rejected".
    """

    #: default grace period for a connecting peer to present its hello
    HANDSHAKE_TIMEOUT_S = 10.0

    def __init__(
        self,
        daemon: DisplayDaemon | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        handshake_timeout_s: float | None = None,
    ):
        self.daemon = daemon if daemon is not None else DisplayDaemon()
        self.handshake_timeout_s = (
            self.HANDSHAKE_TIMEOUT_S
            if handshake_timeout_s is None
            else handshake_timeout_s
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen()
            self.address: tuple[str, int] = self._listener.getsockname()
            self._closed = False  # guarded-by: none -- one-way flag, set only by close()
            self._lock = threading.Lock()
            #: peers dropped during the handshake, by failure class
            self.reject_reasons: dict[str, int] = {}  # guarded-by: _lock
            self._handshake_threads: list[threading.Thread] = []  # guarded-by: _lock
            self._accept_thread = threading.Thread(
                target=self._accept_loop, daemon=True)
            self._accept_thread.start()
        except BaseException:
            # bind/listen failure (port in use) must not leak the fd
            self._listener.close()
            raise

    @property
    def handshake_rejects(self) -> int:
        with self._lock:
            return sum(self.reject_reasons.values())

    def _count_reject(self, reason: str) -> None:
        with self._lock:
            self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(
                target=self._handshake, args=(sock, peer), daemon=True
            )
            t.start()
            with self._lock:
                self._handshake_threads.append(t)
                # drop finished handshakes so the list stays bounded
                self._handshake_threads = [
                    ht for ht in self._handshake_threads if ht.is_alive()
                ]

    def _handshake(self, sock: socket.socket, peer) -> None:
        conn = TcpConnection(sock, name=f"peer-{peer[1]}")
        # Only the failure modes a hostile/broken peer can cause are
        # handled; anything else is a daemon bug and must surface.
        try:
            hello = decode_message(conn.recv(timeout=self.handshake_timeout_s))
        except TimeoutError:
            self._count_reject("hello_timeout")
            conn.close()
            return
        except ChannelClosed:
            self._count_reject("peer_closed")
            conn.close()
            return
        except ValueError:  # ProtocolError and friends: malformed hello
            self._count_reject("malformed_hello")
            conn.close()
            return
        if not isinstance(hello, HelloMessage):
            self._count_reject("not_a_hello")
            conn.close()
            return
        try:
            self.daemon.connect(conn, role=hello.role, name=hello.name)
        except (ValueError, RuntimeError):  # unknown role / daemon closed
            self._count_reject("bad_role")
            conn.close()
            return
        # Ack after registration so the peer knows frames/controls sent
        # from now on will be routed (not dropped in the joining race).
        try:
            conn.send(HelloMessage(role="daemon", name="ack").encode())
        except ChannelClosed:
            pass

    def close(self, join_timeout: float = 5.0) -> None:
        self._closed = True
        try:
            # shutdown, not just close: closing the fd does not wake a
            # thread already blocked in accept(2); shutdown does
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self.daemon.close()
        # bounded joins so tests never leak accept/handshake threads
        self._accept_thread.join(timeout=join_timeout)
        with self._lock:
            pending = list(self._handshake_threads)
            self._handshake_threads = []
        for t in pending:
            t.join(timeout=join_timeout)

    def __enter__(self) -> "TcpDaemonServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect_daemon(
    address: tuple[str, int], role: str, name: str = "", timeout: float = 10.0
) -> TcpConnection:
    """Dial a :class:`TcpDaemonServer` and register with ``role``."""
    if role not in ("renderer", "display"):
        raise ValueError(f"unknown role {role!r}")
    sock = socket.create_connection(address, timeout=timeout)
    try:
        sock.settimeout(None)
        conn = TcpConnection(sock, name=name or role)
    except BaseException:
        sock.close()
        raise
    try:
        conn.send(HelloMessage(role=role, name=name).encode())
        # Wait for the server's registration ack (and keep it out of the
        # interface's stream).
        ack = decode_message(conn.recv(timeout=timeout))
        if not isinstance(ack, HelloMessage) or ack.role != "daemon":
            raise ChannelClosed("daemon did not acknowledge registration")
        # the ack is connection bookkeeping, not traffic the caller sent for
        conn.traffic.unlog_received()
    except BaseException:
        conn.close()
        raise
    return conn
