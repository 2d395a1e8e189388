"""WAN fault injection: deterministic latency, loss, corruption, drops.

The paper's claim is that compressed image transport makes remote
visualization viable *over a real wide-area network* — so the transport
stack must be exercised under WAN behaviour, not just perfect
in-process links.  This module wraps any framed endpoint in a
:class:`FaultyConnection` that injects the failure modes a WAN exhibits:

- fixed one-way **latency** plus uniform **jitter**;
- a **bandwidth** cap (delay proportional to frame size);
- **packet loss** — a send attempt vanishes and
  :meth:`FaultyConnection.send` retransmits it under a
  :class:`~repro.net.transport.RetryPolicy` with backoff, so a lossy
  link degrades to a slower link instead of a broken one.  This is the
  one retransmit loop of the stack: the endpoints underneath never
  lose a frame, so they never retry;
- **corruption** — payload bytes flipped in flight (decoders must
  surface this as typed errors, never silent wrong images);
- a **mid-stream disconnect** after a configured number of delivered
  frames (drives the reconnect/resume path in the serving layer).

Everything is driven by a :class:`FaultPlan` and a seeded RNG: the same
plan and the same sequence of operations produce the same
:meth:`delivery trace <FaultInjector.trace>`, so failure scenarios are
reproducible test fixtures rather than flaky luck.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace

from repro.net.transport import ChannelClosed, FramedConnection, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultyConnection",
]


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible WAN behaviour profile.

    Ratios are per send *attempt* (a retransmitted frame rolls again).
    ``latency_s``/``jitter_s``/``bandwidth_Bps`` model one-way delivery
    delay and are applied on the configured side (``delay_on``):
    ``"recv"`` (default) charges the delay to the receiving thread so a
    publisher is never blocked by a slow link, ``"send"`` charges the
    sender.  ``disconnect_after`` forcibly closes the link after that
    many successfully delivered frames — the mid-stream cut that a
    resilient viewer must survive by reconnecting.
    """

    seed: int = 0
    latency_s: float = 0.0
    jitter_s: float = 0.0
    bandwidth_Bps: float | None = None
    loss_ratio: float = 0.0
    corrupt_ratio: float = 0.0
    disconnect_after: int | None = None
    delay_on: str = "recv"

    def __post_init__(self) -> None:
        for name in ("loss_ratio", "corrupt_ratio"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency_s and jitter_s must be >= 0")
        if self.bandwidth_Bps is not None and self.bandwidth_Bps <= 0:
            raise ValueError("bandwidth_Bps must be positive")
        if self.disconnect_after is not None and self.disconnect_after < 0:
            raise ValueError("disconnect_after must be >= 0")
        if self.delay_on not in ("send", "recv"):
            raise ValueError("delay_on must be 'send' or 'recv'")

    def reconnected(self) -> "FaultPlan":
        """The plan for a re-established link: same WAN character, no
        scheduled disconnect, fresh seed stream."""
        return replace(self, seed=self.seed + 1, disconnect_after=None)


class FaultInjector:
    """Seeded per-link decision engine of a :class:`FaultyConnection`.

    Draws verdicts for each send attempt in a fixed order, so the
    decision sequence — and therefore the delivery trace — depends only
    on the plan's seed and the sequence of operations, never on wall
    clock or thread scheduling.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self.delivered = 0
        self.lost = 0
        self.corrupted = 0
        self.disconnected = False
        self._trace: list[tuple[str, int]] = []

    # -- verdicts ------------------------------------------------------------

    def send_verdict(self, op_index: int | None = None) -> str:
        """``"deliver"``, ``"corrupt"``, ``"lose"`` or ``"disconnect"``
        for send attempt number ``op_index`` (0-based; by default the
        next one, numbered under the same lock as the draw)."""
        with self._lock:
            if op_index is None:
                # every earlier attempt was lost or delivered
                op_index = self.lost + self.delivered
            if self.disconnected:
                return "disconnect"
            if (
                self.plan.disconnect_after is not None
                and self.delivered >= self.plan.disconnect_after
            ):
                self.disconnected = True
                self._trace.append(("disconnect", op_index))
                return "disconnect"
            # fixed draw order keeps the stream deterministic
            lose = self._rng.random() < self.plan.loss_ratio
            corrupt = self._rng.random() < self.plan.corrupt_ratio
            if lose:
                self.lost += 1
                self._trace.append(("lost", op_index))
                return "lose"
            if corrupt:
                self.corrupted += 1
                self.delivered += 1
                self._trace.append(("corrupt", op_index))
                return "corrupt"
            self.delivered += 1
            self._trace.append(("sent", op_index))
            return "deliver"

    def delay_s(self, nbytes: int) -> float:
        """One-way delivery delay for a frame of ``nbytes``."""
        plan = self.plan
        delay = plan.latency_s
        if plan.jitter_s:
            with self._lock:
                delay += self._rng.random() * plan.jitter_s
        if plan.bandwidth_Bps:
            delay += nbytes / plan.bandwidth_Bps
        return delay

    def corrupt_payload(self, frame: bytes) -> bytes:
        """Flip one byte somewhere in the back half of the frame (past
        typical headers, into payload territory)."""
        if not frame:
            return frame
        data = bytearray(frame)
        with self._lock:
            pos = self._rng.randrange(len(data) // 2, len(data))
        data[pos] ^= 0xFF
        return bytes(data)

    def trace(self) -> tuple[tuple[str, int], ...]:
        """The delivery trace so far: ``(event, op_index)`` tuples."""
        with self._lock:
            return tuple(self._trace)


class FaultyConnection:
    """A framed endpoint wrapper that makes the link WAN-shaped.

    Wraps anything with the ``send``/``recv``/``close``/``traffic``
    surface (``FramedConnection``, ``TcpConnection``, …).  Outbound
    frames pass through the fault plan: lost attempts are retransmitted
    under ``retry`` with exponential backoff (counted in
    ``traffic.retransmits``; after the last attempt the send fails with
    :class:`ChannelClosed`), corrupted attempts are delivered mangled,
    and a scheduled disconnect closes the underlying connection so both
    directions fail with :class:`ChannelClosed`.  Inbound frames are
    delayed by latency/jitter/bandwidth when ``plan.delay_on == "recv"``.
    """

    def __init__(self, conn, plan: FaultPlan,
                 retry: RetryPolicy | None = None):
        self._conn = conn
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.retry = retry or RetryPolicy()

    @classmethod
    def pair(cls, plan: FaultPlan, a_name: str = "a", b_name: str = "b",
             maxsize: int = 0, retry: RetryPolicy | None = None):
        """A connected endpoint pair with side ``a`` fault-wrapped."""
        a, b = FramedConnection.pair(a_name, b_name, maxsize=maxsize)
        return cls(a, plan, retry=retry), b

    # -- framed-connection surface ------------------------------------------

    @property
    def name(self) -> str:
        return self._conn.name

    @property
    def traffic(self):
        return self._conn.traffic

    def delivery_trace(self) -> tuple[tuple[str, int], ...]:
        return self.injector.trace()

    def send(self, frame: bytes, timeout: float | None = None) -> None:
        attempts = self.retry.max_attempts
        for attempt in range(1, attempts + 1):
            verdict = self.injector.send_verdict()
            if verdict == "disconnect":
                self._conn.close()
                raise ChannelClosed("link disconnected by fault plan")
            if verdict == "lose":
                if attempt >= attempts:
                    raise ChannelClosed(
                        f"frame lost {attempts} times, giving up"
                    )
                self.traffic.note_retransmit()
                time.sleep(self.retry.delay_before(attempt))
                continue
            data = frame
            if verdict == "corrupt":
                data = self.injector.corrupt_payload(frame)
            if self.plan.delay_on == "send":
                time.sleep(self.injector.delay_s(len(data)))
            self._conn.send(data, timeout=timeout)
            return

    def recv(self, timeout: float | None = None) -> bytes:
        frame = self._conn.recv(timeout=timeout)
        if self.plan.delay_on == "recv":
            time.sleep(self.injector.delay_s(len(frame)))
        return frame

    def close(self) -> None:
        self._conn.close()
