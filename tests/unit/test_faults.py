"""Unit tests for WAN fault injection and the transport resilience layer.

Fault plans are seeded and deterministic: the same plan over the same
operation sequence must yield the identical delivery trace, so failure
scenarios are reproducible fixtures, never flaky luck.
"""

import time

import pytest

from repro.daemon.tcp import TcpConnection
from repro.net.faults import (
    FaultInjector,
    FaultPlan,
    FaultyConnection,
)
from repro.net.transport import (
    Channel,
    ChannelClosed,
    FramedConnection,
    RetryPolicy,
)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_ratio=1.0)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_ratio=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(latency_s=-1)
        with pytest.raises(ValueError):
            FaultPlan(bandwidth_Bps=0)
        with pytest.raises(ValueError):
            FaultPlan(disconnect_after=-1)
        with pytest.raises(ValueError):
            FaultPlan(delay_on="middle")

    def test_reconnected_plan_drops_disconnect(self):
        plan = FaultPlan(seed=3, loss_ratio=0.1, disconnect_after=5)
        again = plan.reconnected()
        assert again.disconnect_after is None
        assert again.loss_ratio == plan.loss_ratio
        assert again.seed != plan.seed


class TestDeterminism:
    def _trace(self, seed):
        injector = FaultInjector(
            FaultPlan(seed=seed, loss_ratio=0.3, corrupt_ratio=0.1)
        )
        return tuple(injector.send_verdict(i) for i in range(200))

    def test_same_seed_same_trace(self):
        assert self._trace(42) == self._trace(42)

    def test_different_seed_different_trace(self):
        assert self._trace(42) != self._trace(43)

    def test_connection_trace_reproducible(self):
        """The full send path (retries included) replays identically."""

        def run():
            plan = FaultPlan(seed=9, loss_ratio=0.25)
            a, b = FaultyConnection.pair(
                plan, retry=RetryPolicy(max_attempts=8, backoff_s=0.0)
            )
            for i in range(50):
                a.send(bytes([i]) * 8)
            got = [b.recv(timeout=1.0) for _ in range(50)]
            return a.delivery_trace(), got

        trace1, got1 = run()
        trace2, got2 = run()
        assert trace1 == trace2
        assert got1 == got2
        assert any(event == "lost" for event, _ in trace1)


class TestLossAndRetry:
    def test_lossy_link_delivers_via_retransmit(self):
        plan = FaultPlan(seed=1, loss_ratio=0.3)
        a, b = FaultyConnection.pair(
            plan, retry=RetryPolicy(max_attempts=10, backoff_s=0.0)
        )
        for i in range(40):
            a.send(f"frame{i}".encode())
        frames = [b.recv(timeout=1.0) for _ in range(40)]
        assert frames == [f"frame{i}".encode() for i in range(40)]
        assert a.traffic.retransmits > 0
        assert a.injector.lost == a.traffic.retransmits

    def test_retry_exhaustion_raises_channel_closed(self):
        # seed 0 loses the first three attempts at 90% loss, so a
        # 3-attempt policy deterministically gives up
        plan = FaultPlan(seed=0, loss_ratio=0.9)
        a, _b = FaultyConnection.pair(
            plan, retry=RetryPolicy(max_attempts=3, backoff_s=0.0)
        )
        with pytest.raises(ChannelClosed):
            a.send(b"doomed")
        assert a.traffic.retransmits == 2

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        policy = RetryPolicy(backoff_s=0.01, multiplier=2.0, max_backoff_s=0.05)
        assert policy.delay_before(1) == pytest.approx(0.01)
        assert policy.delay_before(2) == pytest.approx(0.02)
        assert policy.delay_before(10) == pytest.approx(0.05)  # capped
        assert RetryPolicy.none().max_attempts == 1


    def test_lossy_link_over_tcp_logs_each_frame_once(self):
        """The one retransmit loop works over a real socket: frames
        arrive in order, every lost attempt is one retransmit, and the
        endpoint logs each delivered frame once."""
        a_tcp, b = TcpConnection.pair()
        a = FaultyConnection(
            a_tcp,
            FaultPlan(seed=5, loss_ratio=0.3),
            retry=RetryPolicy(max_attempts=10, backoff_s=0.0),
        )
        try:
            frames = [f"frame{i}".encode() for i in range(40)]
            for frame in frames:
                a.send(frame)
            assert [b.recv(timeout=1.0) for _ in frames] == frames
            assert a.injector.lost > 0
            assert a.traffic.retransmits == a.injector.lost
            assert a.traffic.frames_sent == len(frames)
            assert a.traffic.bytes_sent == sum(map(len, frames))
        finally:
            a.close()
            b.close()


class TestCorruption:
    def test_corruption_flips_exactly_one_byte(self):
        plan = FaultPlan(seed=2, corrupt_ratio=0.99)
        a, b = FaultyConnection.pair(plan)
        original = bytes(range(200))
        a.send(original)
        got = b.recv(timeout=1.0)
        assert len(got) == len(original)
        diffs = [i for i, (x, y) in enumerate(zip(original, got)) if x != y]
        assert len(diffs) == 1
        assert a.injector.corrupted == 1


class TestDisconnect:
    def test_disconnect_after_n_frames_cuts_both_directions(self):
        plan = FaultPlan(seed=0, disconnect_after=3)
        a, b = FaultyConnection.pair(plan)
        for i in range(3):
            a.send(bytes([i]))
        with pytest.raises(ChannelClosed):
            a.send(b"cut")
        # delivered frames are still readable, then the cut surfaces
        for i in range(3):
            assert b.recv(timeout=1.0) == bytes([i])
        with pytest.raises(ChannelClosed):
            b.recv(timeout=1.0)
        with pytest.raises(ChannelClosed):
            a.send(b"still down")


class TestDelays:
    def test_recv_side_latency_applied(self):
        plan = FaultPlan(seed=0, latency_s=0.05)
        a, b = FaultyConnection.pair(plan)
        # a is the fault-wrapped side: its sends are not delayed
        # (delay_on="recv"), its recvs are.
        t0 = time.perf_counter()
        a.send(b"payload")
        send_elapsed = time.perf_counter() - t0
        assert send_elapsed < 0.04
        assert b.recv(timeout=1.0) == b"payload"
        b.send(b"reply")
        t0 = time.perf_counter()
        assert a.recv(timeout=1.0) == b"reply"
        assert time.perf_counter() - t0 >= 0.04

    def test_bandwidth_cap_scales_with_size(self):
        plan = FaultPlan(seed=0, bandwidth_Bps=100_000, delay_on="send")
        a, b = FaultyConnection.pair(plan)
        t0 = time.perf_counter()
        a.send(b"x" * 10_000)  # 0.1 s at 100 kB/s
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.08
        assert b.recv(timeout=1.0) == b"x" * 10_000


class TestTransportResilience:
    def test_channel_send_timeout_on_full_pipe(self):
        ch = Channel(maxsize=1)
        ch.send(b"fill")
        with pytest.raises(TimeoutError):
            ch.send(b"blocked", timeout=0.05)

    def test_op_timeout_default_applies_to_recv(self):
        a, b = FramedConnection.pair()
        b.op_timeout = 0.05
        with pytest.raises(TimeoutError):
            b.recv()

    def test_explicit_timeout_overrides_op_timeout(self):
        a, b = FramedConnection.pair()
        b.op_timeout = 10.0
        with pytest.raises(TimeoutError):
            b.recv(timeout=0.05)
