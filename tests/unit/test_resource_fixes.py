"""Regression tests for the leaks the DT80x resource-flow analyzer found.

Each test drives the once-leaky path — a failed submit, a constructor
that dies halfway, a dead upstream session, a bogus daemon handshake —
and asserts the resource actually came back: slots recycled, sockets
closed, worker processes reaped.  Where threads are involved the scope
runs under the runtime tracer (:func:`repro.devtools.locktrace.checked`)
so a stranded non-daemon thread fails the test that leaked it.
"""

import socket
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.daemon import tcp
from repro.daemon.protocol import HelloMessage
from repro.devtools.locktrace import checked
from repro.net.transport import ChannelClosed
from repro.relay.daemon import FrameRelay
from repro.scenario import Topology, Viewer, _teardown
from repro.serve import encode_pool as encode_pool_mod
from repro.serve.encode_pool import EncodePool


class TestEncodePoolSubmit:
    def test_bad_image_recycles_the_slot(self):
        """A submit that dies copying the image must return its
        shared-memory slot to the free list, not strand it: before the
        fix every failed submit grew a fresh segment."""
        lying = SimpleNamespace(nbytes=16, shape=(1 << 20,), dtype=np.uint8)
        with checked(patch_channel=False):
            pool = EncodePool(workers=1)
            try:
                with pool._lock:
                    with pytest.raises(TypeError):
                        # slot sized for 16 bytes, copy wants 1 MiB
                        pool._submit_locked(lying, "rle", None, None, None)
                    assert pool._slot_of == {}
                    assert pool._pending == {}
                    assert len(pool._all_slots) == 1
                    assert pool._free_slots == pool._all_slots
                    # the recycled slot satisfies the next submit
                    slot = pool._acquire_slot_locked(16)
                    assert slot is pool._all_slots[0]
                    pool._free_slots.append(slot)
            finally:
                pool.close()

    def test_failed_spawn_reaps_already_forked_workers(self, monkeypatch):
        """When worker N fails to spawn, workers 0..N-1 are already live
        processes; the constructor must tear them down before raising."""
        survivors = []
        real_worker = encode_pool_mod._Worker

        class FlakyWorker(real_worker):
            def __init__(self, ctx, worker_id, results, shared_tracker):
                if worker_id == 1:
                    raise RuntimeError("spawn failed")
                super().__init__(ctx, worker_id, results, shared_tracker)
                survivors.append(self)

        monkeypatch.setattr(encode_pool_mod, "_Worker", FlakyWorker)
        with checked(patch_channel=False):
            with pytest.raises(RuntimeError, match="spawn failed"):
                EncodePool(workers=2)
        assert len(survivors) == 1
        assert not survivors[0].process.is_alive()


class TestConnectDaemon:
    def test_bogus_ack_closes_the_connection(self):
        """A peer that answers the hello with a non-daemon message gets
        a ChannelClosed — and the half-registered socket must be closed,
        not left dangling on the rejected dial."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        outcome: list[str] = []

        def serve():
            sock, _ = listener.accept()
            conn = tcp.TcpConnection(sock, name="impostor")
            try:
                conn.recv(timeout=5.0)  # the client's hello
                conn.send(HelloMessage(role="renderer", name="nope").encode())
                try:
                    conn.recv(timeout=5.0)
                    outcome.append("still-open")
                except TimeoutError:
                    outcome.append("still-open")
                except Exception:  # EOF: the client hung up
                    outcome.append("closed")
            finally:
                conn.close()

        with checked(patch_channel=False):
            server = threading.Thread(target=serve, daemon=True)
            server.start()
            try:
                with pytest.raises(ChannelClosed,
                                   match="did not acknowledge"):
                    tcp.connect_daemon(listener.getsockname(), "display",
                                       timeout=5.0)
                server.join(timeout=10.0)
            finally:
                listener.close()
        assert outcome == ["closed"]


class TestTcpServerInit:
    def test_listener_closed_when_bind_fails(self, monkeypatch):
        """A bind failure (port in use, bad interface) must not leak the
        listening fd the constructor already created."""
        created = []
        real_socket = socket.socket

        class RecordingSocket(real_socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(tcp.socket, "socket", RecordingSocket)
        with pytest.raises(OSError):
            # TEST-NET-3 address: never a local interface, bind fails
            tcp.TcpDaemonServer(host="203.0.113.1", port=1)
        assert len(created) == 1
        assert created[0].fileno() == -1  # closed


class _CloseRecorder:
    def __init__(self, fail: bool = False, name: str = ""):
        self.fail = fail
        self.name = name
        self.stops = 0
        self.closes = 0
        self.leaves = 0

    def stop(self):
        self.stops += 1
        if self.fail:
            raise RuntimeError(f"stop({self.name}) failed")

    def close(self):
        self.closes += 1
        if self.fail:
            raise RuntimeError(f"close({self.name}) failed")

    def leave(self):
        self.leaves += 1


class TestViewerConstruction:
    def test_thread_start_failure_returns_the_session(self, monkeypatch):
        """If the consumer thread never starts, the freshly joined
        session must be handed back (leave), not parked broker-side
        forever."""
        handle = _CloseRecorder()
        broker = SimpleNamespace(join=lambda name, **kwargs: handle)

        def explode(*args, **kwargs):
            raise RuntimeError("no threads left")

        monkeypatch.setattr("repro.scenario.threading.Thread", explode)
        with pytest.raises(RuntimeError, match="no threads left"):
            Viewer([broker], "v0")
        assert handle.leaves == 1


class TestRelayReconnect:
    def test_stale_upstream_conn_is_closed_before_redial(self):
        """The dead session's viewer-side fd survives the cut; the
        reconnect path must close it before dialing again."""
        stale_conn = _CloseRecorder()
        stub = SimpleNamespace(
            fault_plan=None,
            upstream=None,  # never dialled: closed mid-reconnect
            _lock=threading.Lock(),
            _upstream_handle=SimpleNamespace(conn=stale_conn),
            _closing=threading.Event(),
            reconnect_timeout=0.01,
        )
        stub._closing.set()  # skip the redial loop: closed mid-reconnect
        assert FrameRelay._reconnect_upstream(stub) is None
        assert stale_conn.closes == 1


class TestTeardownHelpers:
    """All through the one ``repro.scenario._teardown`` (the fault and
    topology harnesses each had a private copy when these were named)."""

    def test_faultrun_teardown_releases_every_tier_on_failure(self):
        """One viewer blowing up on stop() must not strand the relays or
        the broker behind it; the first failure propagates afterwards."""
        bad_viewer = _CloseRecorder(fail=True, name="v0")
        good_viewer = _CloseRecorder()
        relay = _CloseRecorder()
        broker = _CloseRecorder()
        with pytest.raises(RuntimeError, match=r"stop\(v0\)"):
            _teardown([bad_viewer, good_viewer], [relay], None, broker)
        assert good_viewer.stops == 1
        assert relay.closes == 1
        assert broker.closes == 1

    def test_faultrun_teardown_tolerates_unbuilt_broker(self):
        _teardown([], [], None, None)  # construction died before tier 1

    def test_topology_teardown_skips_the_killed_relay(self):
        """kill_relay_after already tore one relay down mid-scenario;
        closing it again would be the DT802 double-close the analyzer
        flags."""
        killed = _CloseRecorder(name="relay-0")
        alive = _CloseRecorder(name="relay-1")
        broker = _CloseRecorder()
        _teardown([], [killed, alive], "relay-0", broker)
        assert killed.closes == 0
        assert alive.closes == 1
        assert broker.closes == 1

    def test_topology_closes_earlier_tiers_when_a_later_one_fails(
            self, monkeypatch):
        """A relay constructor that dies must not strand the origin the
        topology already built: the context manager's build is the one
        place every scenario gets its teardown from."""
        built = []

        class RecordingBroker(_CloseRecorder):
            def __init__(self, **kwargs):
                super().__init__()
                built.append(self)

        def no_relay(*args, **kwargs):
            raise RuntimeError("relay refused to start")

        monkeypatch.setattr("repro.scenario.SessionBroker", RecordingBroker)
        monkeypatch.setattr("repro.scenario.FrameRelay", no_relay)
        with pytest.raises(RuntimeError, match="refused to start"):
            Topology(n_relays=1)
        assert [b.closes for b in built] == [1]
