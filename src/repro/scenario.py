"""The one scenario runner: origin → optional relay mesh → viewers.

The paper's system is one renderer → WAN → viewer pipeline; every
serve-tier and relay-tier scenario in the repo is that pipeline with a
different number of boxes in the middle.  This module sits above both
tiers and owns the shared parts once — :func:`synthetic_frames`,
:func:`percentile`, the thread-backed :class:`Viewer` client, and the
:class:`Topology` build/teardown — so each scenario is a publish loop
plus a report:

- :func:`run_fanout` / :func:`measure_fanout` — delivered frames/sec vs.
  viewer count (``benchmarks/bench_serve_fanout.py``, ``make
  serve-smoke`` / ``serve-shard-smoke``);
- :func:`run_with_faults` / :func:`sweep_faults` — delivery over
  WAN-shaped links (``benchmarks/bench_faults.py``, ``repro faults``);
- :func:`run_relay_topology` — a replay-heavy viewer pool behind a relay
  mesh (``benchmarks/bench_relay.py``, ``repro relay`` /
  ``relay-topology``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import fields

import numpy as np

from repro.devtools.waiting import wait_until
from repro.net.faults import FaultPlan
from repro.relay.daemon import RELAY_RETRY, FrameRelay
from repro.relay.prefetch import PrefetchPolicy
from repro.relay.ring import RelayRing
from repro.relay.stats import RelayCounters
from repro.serve.broker import SessionBroker
from repro.serve.session import FrameDecodeError, rejoin
from repro.serve.shard import SessionRouter
from repro.serve.tiers import TierLadder

__all__ = [
    "synthetic_frames",
    "percentile",
    "Viewer",
    "Topology",
    "run_fanout",
    "measure_fanout",
    "run_with_faults",
    "sweep_faults",
    "run_relay_topology",
]


def synthetic_frames(n_frames: int, size: int = 96) -> list[np.ndarray]:
    """A smooth animated RGB sequence (JPEG-friendly, codec-realistic)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    frames = []
    for t in range(n_frames):
        phase = 2 * np.pi * t / max(n_frames, 1)
        img = np.stack(
            [
                128 + 100 * np.sin(xx / 11.0 + phase),
                128 + 100 * np.cos(yy / 7.0 - phase),
                (xx + yy + 8 * t) % 256,
            ],
            axis=-1,
        )
        frames.append(np.clip(img, 0, 255).astype(np.uint8))
    return frames


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 on empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


class Viewer:
    """A viewer on its own thread, consuming and acking as fast as it can.

    ``targets`` is the pool this viewer may be served by — relays, or
    ``[origin]`` — anything with the broker ``join`` surface; it starts
    on ``targets[at]``.  Every link it joins over obeys ``plan``; when
    one is cut the viewer rejoins under its own name with
    ``resume_from`` = the next id it needs, rotating to the next target
    when one is closed (:func:`repro.serve.session.rejoin`).

    ``decode=False`` makes it a pure load generator: it acks every
    delivery but never decompresses.  Scenarios keep a fixed handful of
    viewers decoding (payload integrity) — decoding on all of them makes
    consumer CPU scale with viewers × frames, and with hundreds of
    viewers in this one process that, not the server, is what the
    numbers would measure.

    The delivered ids are checked against an exact cursor: ``expected``
    is the next id needed, an id below it is a ``duplicate`` (a stale
    in-flight delivery from before a seek or a rejoin), an id above it
    adds the jumped-over ids to ``skips``.  With ``n_frames`` set the
    timeline is ``0..n_frames-1`` played ``loops`` times — the viewer
    seeks to 0 after each pass and is ``done`` after the last; without
    it the stream is open-ended and the viewer runs until stopped.
    """

    def __init__(
        self,
        targets,
        name: str,
        *,
        at: int = 0,
        decode: bool = True,
        n_frames: int | None = None,
        loops: int = 1,
        plan: FaultPlan | None = None,
        reconnect: bool = True,
        credit_limit: int | None = None,
    ):
        self.targets = targets
        self.at = at % len(targets)
        self.name = name
        self.decode = decode
        self.n_frames = n_frames
        self.loops = loops
        self.plan = plan
        self.reconnect = reconnect
        self.credit_limit = credit_limit
        self.expected = 0
        self.consumed = 0
        self.duplicates = 0
        self.skips = 0
        self.loops_done = 0
        self.failovers = 0
        self.decode_errors = 0
        #: gap ranges accumulated across the handles this viewer used up
        self.gap_ranges: list[tuple[int, int]] = []
        self._lock = threading.Lock()
        self._receipts: list[tuple[int, float]] = []  # guarded-by: _lock
        #: finished rejoins; -1 from a cut link until the next one
        self._rejoins = 0  # guarded-by: _lock
        self._stop = threading.Event()
        self.handle = self._join(self.targets[self.at], plan, None)
        try:
            self.thread = threading.Thread(
                target=self._run, daemon=True, name=f"{name}-viewer"
            )
            self.thread.start()
        except BaseException:
            # no consumer thread ever ran: give the session back instead
            # of stranding it on the target
            self.handle.leave()
            raise

    @property
    def done(self) -> bool:
        return self.n_frames is not None and self.loops_done >= self.loops

    def _join(self, target, plan: FaultPlan | None, resume_from: int | None):
        return target.join(
            self.name,
            fault_plan=plan,
            retry=RELAY_RETRY,
            resume_from=resume_from,
            credit_limit=self.credit_limit,
        )

    def _rejoin(self) -> bool:
        """Re-establish the session somewhere, resuming at exactly the
        next needed id; returns False when giving up."""
        self.gap_ranges.extend(self.handle.gaps)
        plan = self.plan.reconnected() if self.plan else None
        joined = rejoin(
            self.handle,
            self.targets,
            self.at,
            self._stop,
            lambda target: self._join(target, plan, self.expected),
        )
        if joined is None:
            return False
        self.handle, at = joined
        if at != self.at:
            self.failovers += 1
            self.at = at
        return True

    def _on_frame(self, frame_id: int) -> None:
        if frame_id < self.expected:
            self.duplicates += 1
            return
        self.skips += frame_id - self.expected
        self.expected = frame_id + 1
        self.consumed += 1
        if self.n_frames is not None and self.expected >= self.n_frames:
            self.loops_done += 1
            if self.loops_done < self.loops:
                self.expected = 0
                try:
                    self.handle.seek(0)
                except ConnectionError:
                    pass  # the reader loop will rejoin and resume

    def _run(self) -> None:
        while not self._stop.is_set() and not self.done:
            try:
                frame = self.handle.next_frame(
                    timeout=0.25, decode=self.decode
                )
            except TimeoutError:
                continue
            except ConnectionError:
                if not self.reconnect:
                    return
                with self._lock:
                    rejoins, self._rejoins = self._rejoins, -1
                rejoined = self._rejoin()
                with self._lock:
                    self._rejoins = rejoins + 1
                if not rejoined:
                    return
                continue
            except FrameDecodeError:  # corrupted payload, typed + counted
                self.decode_errors += 1
                continue
            now = time.perf_counter()
            with self._lock:
                self._receipts.append((frame.frame_id, now))
            self._on_frame(frame.frame_id)

    def rejoin_count(self) -> int | None:
        """Rejoins finished so far; ``None`` while this viewer is
        between a cut link and its next one."""
        with self._lock:
            return None if self._rejoins < 0 else self._rejoins

    def receipt_count(self) -> int:
        with self._lock:
            return len(self._receipts)

    def take(self) -> list[tuple[int, float]]:
        """Drain and return the ``(frame_id, perf_counter)`` receipts
        recorded since the last take."""
        with self._lock:
            receipts = self._receipts
            self._receipts = []
        return receipts

    def stop(self) -> None:
        self._stop.set()
        self.thread.join(timeout=5.0)
        self.gap_ranges.extend(self.handle.gaps)
        self.handle.leave()


def _teardown(viewers, relays, killed, origin) -> None:
    """Close every tier even when one close raises; the first failure
    propagates only after the rest have been released."""
    closers = [v.stop for v in viewers]
    # kill() already tore the killed relay down mid-scenario
    closers += [r.close for r in relays if r.name != killed]
    if origin is not None:
        closers.append(origin.close)
    failures: list[BaseException] = []
    for close in closers:
        try:
            close()
        except BaseException as exc:
            failures.append(exc)
    if failures:
        raise failures[0]


class Topology:
    """One origin, ``n_relays`` edge relays, and the viewers behind them.

    ``shards`` > 1 or ``encode_workers`` > 0 makes the origin a
    :class:`SessionRouter` (session names route to their owning shard,
    so a rejoin lands on the shard holding the parked resume state);
    otherwise it is a single :class:`SessionBroker`.  ``origin_kwargs``
    go to either.  With two or more relays they share a
    :class:`RelayRing` cut into ``chunk_frames`` chunks and every pair
    is peered; ``relay_kwargs`` go to each :class:`FrameRelay`.

    Use as a context manager: every tier built so far — also when a
    later constructor fails — is closed on the way out.
    """

    def __init__(
        self,
        *,
        shards: int = 1,
        encode_workers: int = 0,
        n_relays: int = 0,
        chunk_frames: int = 16,
        relay_kwargs: dict | None = None,
        **origin_kwargs,
    ):
        self.origin = None
        self.relays: list[FrameRelay] = []
        self.viewers: list[Viewer] = []
        #: name of the relay :meth:`kill_relay` took down, if any
        self.killed: str | None = None
        try:
            if shards > 1 or encode_workers > 0:
                self.origin = SessionRouter(
                    shards=shards,
                    encode_workers=encode_workers,
                    **origin_kwargs,
                )
            else:
                self.origin = SessionBroker(**origin_kwargs)
            ring = (
                RelayRing(chunk_frames=chunk_frames) if n_relays > 1 else None
            )
            for i in range(n_relays):
                name = f"relay{i}"
                if ring is not None:
                    ring.add(name)
                self.relays.append(
                    FrameRelay(
                        name, self.origin, ring=ring, **(relay_kwargs or {})
                    )
                )
            for a in self.relays:
                for b in self.relays:
                    if a is not b:
                        a.connect_peer(b)
        except BaseException:
            self.close()
            raise

    def add_viewer(self, name: str, index: int = 0, **viewer_kwargs) -> Viewer:
        """Join one :class:`Viewer` — on relay ``index`` (round-robin),
        failing over to the other relays, or on the origin when there
        are no relays."""
        viewer = Viewer(
            self.relays or [self.origin], name, at=index, **viewer_kwargs
        )
        self.viewers.append(viewer)
        return viewer

    def publish(self, frames, pace_s: float = 0.0) -> dict[int, float]:
        """Publish ``frames`` at the origin as ids ``0..n-1``, paced like
        a render loop; returns each id's publish ``perf_counter``."""
        published: dict[int, float] = {}
        for fid, image in enumerate(frames):
            published[fid] = time.perf_counter()
            self.origin.publish(image, time_step=fid, frame_id=fid)
            if pace_s:
                time.sleep(pace_s)
        return published

    def drain(self, timeout: float) -> bool:
        """Wait until every tier has delivered the stream head to every
        viewer; False when ``timeout`` ran out first.

        A tier's ``drain`` waits only on its live sessions, so a viewer
        between a cut link and its rejoin would not be waited for: wait
        until no viewer is mid-rejoin, drain every tier, and drain
        again when a viewer rejoined meanwhile.  (Not inside the tiers'
        ``drain``: a parked session has no expiry, so a drain waiting
        on one would wait out its timeout after every cut for good.)
        """
        deadline = time.monotonic() + timeout
        pause = threading.Event()  # nobody sets it; a sleep the linter can see
        while True:
            before = [v.rejoin_count() for v in self.viewers]
            if None not in before:
                drained = [
                    tier.drain(timeout=max(0.0, deadline - time.monotonic()))
                    for tier in [self.origin, *self.relays]
                ]
                if [v.rejoin_count() for v in self.viewers] == before:
                    return all(drained)
            if time.monotonic() >= deadline:
                return False
            pause.wait(0.005)

    def kill_relay(self) -> None:
        """Kill the first relay abruptly (no goodbyes); its viewers must
        fail over to a peer."""
        self.killed = self.relays[0].name
        self.relays[0].kill()

    def close(self) -> None:
        # signal every viewer before joining any, so the joins overlap
        # their receive-poll timeouts instead of serialising them
        for v in self.viewers:
            v._stop.set()
        _teardown(self.viewers, self.relays, self.killed, self.origin)

    def __enter__(self) -> "Topology":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _ratio_summary(ratios: list[float]) -> dict:
    """Worst and mean per-viewer delivered-frame ratio."""
    return {
        "delivered_ratio": round(min(ratios), 4) if ratios else 0.0,
        "mean_delivered_ratio": round(sum(ratios) / len(ratios), 4)
        if ratios
        else 0.0,
    }


# -- fan-out: delivered frames/sec vs. viewer count --------------------------


def _latency_stats(per_viewer: list[list[float]]) -> dict:
    """p50/p99 over all samples plus the worst per-viewer p99, in ms."""
    merged = sorted(s for samples in per_viewer for s in samples)
    viewer_p99s = [
        percentile(sorted(samples), 0.99) for samples in per_viewer if samples
    ]
    return {
        "latency_p50_ms": round(percentile(merged, 0.50) * 1000, 3),
        "latency_p99_ms": round(percentile(merged, 0.99) * 1000, 3),
        "viewer_p99_ms_max": round(max(viewer_p99s, default=0.0) * 1000, 3),
    }


def run_fanout(
    n_viewers: int,
    frames: list[np.ndarray],
    *,
    ladder: TierLadder | None = None,
    credit_limit: int = 8,
    drain_timeout: float = 10.0,
    shards: int = 1,
    encode_workers: int = 0,
    audit_viewers: int | None = None,
) -> dict:
    """One fan-out run: cold pass then warm pass over the same frame ids.

    The cold pass encodes each (frame, tier) once, the warm pass
    republishes the same ids against the already-populated cache.
    Returns a dict with per-pass delivered-frames/sec, delivery-latency
    percentiles (publish→receipt, p50/p99 over all samples plus the
    worst per-viewer p99, which is where per-viewer jitter is visible),
    encode counts and cache hit ratios, plus the final per-session drop
    totals and (when a pool ran) its counters.

    ``audit_viewers`` bounds how many viewers decode what they consume:
    ``None`` decodes on every viewer (a faithful small-scale run), K
    keeps the first K viewers decoding and makes the rest pure load
    generators (see :class:`Viewer`) — use it for large viewer counts
    where the question is serving capacity.
    """
    result: dict = {
        "viewers": n_viewers,
        "frames": len(frames),
        "shards": shards,
        "encode_workers": encode_workers,
        "audit_viewers": (
            n_viewers if audit_viewers is None
            else min(audit_viewers, n_viewers)
        ),
    }
    with Topology(
        shards=shards,
        encode_workers=encode_workers,
        ladder=ladder,
        credit_limit=credit_limit,
    ) as topo:
        origin = topo.origin
        for i in range(n_viewers):
            topo.add_viewer(
                f"v{i:03d}",
                decode=audit_viewers is None or i < audit_viewers,
            )
        for label in ("cold", "warm"):
            before = origin.stats()
            for v in topo.viewers:
                v.take()  # discard receipts from the previous pass
            t0 = time.perf_counter()
            publish_t = topo.publish(frames)
            origin.drain(timeout=drain_timeout)
            elapsed = time.perf_counter() - t0
            stats = origin.stats()
            delivered = sum(
                s.acks for s in stats.sessions.values()
            ) - sum(s.acks for s in before.sessions.values())
            # every ack precedes its receipt record by one list append;
            # give the viewer threads a moment to finish writing them
            try:
                wait_until(
                    lambda: sum(v.receipt_count() for v in topo.viewers)
                    >= delivered,
                    timeout=2.0,
                    message="fan-out receipt records",
                )
            except TimeoutError:
                pass  # percentiles over what was recorded in time
            per_viewer = [
                [t - publish_t[fid] for fid, t in v.take() if fid in publish_t]
                for v in topo.viewers
            ]
            hits = stats.cache_hits - before.cache_hits
            lookups = hits + stats.cache_misses - before.cache_misses
            row = {
                "elapsed_s": elapsed,
                "delivered_frames": delivered,
                "delivered_fps": delivered / elapsed if elapsed > 0 else 0.0,
                "encodes": stats.encodes - before.encodes,
                "cache_hit_ratio": hits / lookups if lookups else 0.0,
            }
            row.update(_latency_stats(per_viewer))
            result[label] = row
        final = origin.stats()
        result["dropped_frames"] = final.total_frames_dropped
        result["tier_transitions"] = final.total_transitions
        if origin.encode_pool is not None:
            result["pool"] = origin.encode_pool.stats_snapshot()
    return result


def measure_fanout(
    viewer_counts: tuple[int, ...] = (1, 4, 16, 64),
    n_frames: int = 32,
    size: int = 96,
    **kwargs,
) -> list[dict]:
    """The full sweep: one :func:`run_fanout` per viewer count."""
    frames = synthetic_frames(n_frames, size=size)
    return [run_fanout(n, frames, **kwargs) for n in viewer_counts]


# -- faults: the serving stack under a WAN-shaped link -----------------------


def run_with_faults(
    plan: FaultPlan,
    *,
    n_frames: int = 96,
    size: int = 48,
    n_viewers: int = 2,
    credit_limit: int = 8,
    pace_s: float = 0.03,
    ladder: TierLadder | None = None,
    step_down_after: int = 1,
    step_up_after: int = 24,
    reconnect: bool = True,
    drain_timeout: float = 10.0,
    relays: int = 0,
    shards: int = 1,
    encode_workers: int = 0,
) -> dict:
    """One fault scenario end to end; returns its delivery report.

    The publisher is paced (``pace_s`` between frames) like a render
    loop; every viewer link obeys ``plan`` (loss is retransmitted with
    backoff, latency/jitter delay the ack path, a scheduled disconnect
    cuts the link mid-stream).  Viewers that lose their connection
    rejoin under the same name and *resume* from the next frame they
    need, so the scenario exercises the whole resilience surface:
    retry, adaptive tier degradation, reconnect-with-resume.

    The headline number is the **delivered-frame ratio**: the fraction
    of published frames each session handled — consumed and acked, or
    deliberately stride-skipped by its current tier.  Frames dropped on
    the floor for credit exhaustion are the failures the adaptive
    ladder exists to minimise.  The report also carries per-session
    drop/skip/ack counts, tier transitions, reconnects, and
    client-observed duplicates.

    ``relays`` > 0 routes the scenario through that many edge relays:
    the fault plan moves to the relay→viewer hop — the same link
    position the direct scenario shapes — while the relay→origin hop
    stays clean, so the grid cell measures what interposing a relay
    does to delivery under identical WAN weather.  Viewers rejoin
    *their relay* on a cut, exercising the relay's resume machinery
    instead of the broker's.  ``shards``/``encode_workers`` pick the
    origin (see :class:`Topology`).
    """
    frames = synthetic_frames(n_frames, size=size)
    with Topology(
        shards=shards,
        encode_workers=encode_workers,
        n_relays=relays,
        relay_kwargs=dict(upstream_credits=max(32, n_frames + 8)),
        ladder=ladder,
        credit_limit=credit_limit,
        step_down_after=step_down_after,
        step_up_after=step_up_after,
        history_frames=max(32, n_frames // 2),
    ) as topo:
        for i in range(n_viewers):
            topo.add_viewer(f"wan{i:02d}", i, plan=plan, reconnect=reconnect)
        t0 = time.perf_counter()
        topo.publish(frames, pace_s)
        topo.drain(drain_timeout)
        elapsed = time.perf_counter() - t0
        stats = topo.origin.stats()
        session_stats = dict(stats.sessions)
        for relay in topo.relays:
            session_stats.update(relay.session_stats())

    sessions = {}
    ratios = []
    for v in topo.viewers:
        s = session_stats.get(v.name)
        if s is None:
            continue
        ratio = (s.acks + s.frames_skipped) / n_frames if n_frames else 0.0
        ratios.append(ratio)
        sessions[v.name] = {
            "delivered_ratio": round(ratio, 4),
            "acks": s.acks,
            "skipped": s.frames_skipped,
            "dropped": s.frames_dropped,
            "sent": s.frames_sent,
            "tier": s.tier,
            "transitions": len(s.transitions),
            "reconnects": s.reconnects,
            "observed_duplicates": v.duplicates,
            "decode_errors": v.decode_errors,
            "gaps": len(v.gap_ranges),
        }
    return {
        "plan": {
            "seed": plan.seed,
            "loss_ratio": plan.loss_ratio,
            "latency_s": plan.latency_s,
            "jitter_s": plan.jitter_s,
            "corrupt_ratio": plan.corrupt_ratio,
            "disconnect_after": plan.disconnect_after,
        },
        "n_frames": n_frames,
        "n_viewers": n_viewers,
        "relays": relays,
        "shards": shards,
        "elapsed_s": round(elapsed, 3),
        **_ratio_summary(ratios),
        "malformed_controls": stats.malformed_controls,
        "resumes": stats.resumes,
        "resume_gaps": stats.resume_gaps,
        "sessions": sessions,
    }


def sweep_faults(
    loss_ratios=(0.0, 0.05, 0.1),
    jitters_s=(0.0, 0.05, 0.1),
    seed: int = 1234,
    **kwargs,
) -> list[dict]:
    """The loss × jitter grid: one :func:`run_with_faults` per cell."""
    cells = []
    for loss in loss_ratios:
        for jitter in jitters_s:
            plan = FaultPlan(seed=seed, loss_ratio=loss, jitter_s=jitter)
            cells.append(run_with_faults(plan, **kwargs))
    return cells


# -- relay topologies: origin → relay mesh → viewer pools --------------------

#: relay counters the topology report leaves to ``summaries``
_UNREPORTED_RELAY_COUNTERS = frozenset(
    {"malformed", "unknown_controls", "fetch_requests", "upstream_gaps"}
)


def run_relay_topology(
    *,
    n_relays: int = 2,
    n_viewers: int = 4,
    n_frames: int = 48,
    loops: int = 2,
    size: int = 32,
    pace_s: float = 0.005,
    ladder: TierLadder | None = None,
    viewer_plan: FaultPlan | None = None,
    upstream_plan: FaultPlan | None = None,
    kill_relay_after: int | None = None,
    store_bytes: int = 32 << 20,
    prefetch: PrefetchPolicy | None = None,
    chunk_frames: int = 16,
    timeout_s: float = 60.0,
) -> dict:
    """One relay-tier scenario end to end; returns its report.

    The origin publishes an animated timeline once; ``n_viewers``
    viewers spread round-robin across ``n_relays`` relays play it
    ``loops`` times (seek-to-0 after each pass) — the **replay-heavy**
    workload the relay tier exists for: after the first pass every
    loop is served from relay stores, so origin traffic is ~``n_frames``
    per relay while viewer traffic is ``n_viewers × loops × n_frames``.
    ``n_relays=0`` degenerates to the direct-origin baseline (same
    looping workload, viewers on the broker) used for the
    delivered-ratio parity comparison.

    ``kill_relay_after`` kills the first relay (abruptly, no goodbyes)
    once any viewer has consumed that many frames; its viewers must
    fail over to a surviving peer, resuming at exactly the next frame
    id they need — the report counts any duplicate or skipped id each
    viewer observed.  ``viewer_plan`` shapes every *downstream* link
    (the same position :func:`run_with_faults` shapes);
    ``upstream_plan`` shapes relay→origin links.
    """
    if n_relays < 0:
        raise ValueError("n_relays must be >= 0")
    if kill_relay_after is not None and n_relays < 2:
        raise ValueError("kill_relay_after needs at least 2 relays")
    frames = synthetic_frames(n_frames, size=size)
    poll = threading.Event()  # nobody sets it; a sleep the linter can see
    with Topology(
        n_relays=n_relays,
        chunk_frames=chunk_frames,
        relay_kwargs=dict(
            store_bytes=store_bytes,
            prefetch=prefetch,
            upstream_credits=max(32, n_frames + 8),
            fault_plan=upstream_plan,
        ),
        ladder=ladder,
        credit_limit=8,
        history_frames=n_frames,
    ) as topo:
        viewers = [
            topo.add_viewer(
                f"pool{i:02d}",
                i,
                n_frames=n_frames,
                loops=loops,
                plan=viewer_plan,
                credit_limit=n_frames + 8,
            )
            for i in range(n_viewers)
        ]
        t0 = time.perf_counter()
        topo.publish(frames, pace_s)
        deadline = t0 + timeout_s
        while (
            not all(v.done for v in viewers) and time.perf_counter() < deadline
        ):
            if (
                kill_relay_after is not None
                and topo.killed is None
                and any(v.consumed >= kill_relay_after for v in viewers)
            ):
                topo.kill_relay()
            poll.wait(0.01)
        elapsed = time.perf_counter() - t0
        # survivors first, the killed relay last
        relay_snaps = [
            r.stats_snapshot()
            for r in sorted(topo.relays, key=lambda r: r.name == topo.killed)
        ]

    target_frames = loops * n_frames
    viewer_report = {}
    ratios = []
    for v in viewers:
        ratio = v.consumed / target_frames if target_frames else 0.0
        ratios.append(ratio)
        viewer_report[v.name] = {
            "delivered_ratio": round(ratio, 4),
            "consumed": v.consumed,
            "loops_done": v.loops_done,
            "duplicates": v.duplicates,
            "skips": v.skips,
            "failovers": v.failovers,
            "decode_errors": v.decode_errors,
        }
    viewer_frames = sum(v.consumed for v in viewers)
    # direct baseline (no relays): every viewer frame crossed the WAN
    origin_frames = (
        sum(s.origin_frames for s in relay_snaps)
        if relay_snaps
        else viewer_frames
    )
    offload = (
        max(0.0, 1.0 - origin_frames / viewer_frames) if viewer_frames else 0.0
    )
    return {
        "topology": {
            "n_relays": n_relays,
            "n_viewers": n_viewers,
            "n_frames": n_frames,
            "loops": loops,
            "chunk_frames": chunk_frames,
            "killed": topo.killed,
        },
        "elapsed_s": round(elapsed, 3),
        "completed": all(v.done for v in viewers),
        **_ratio_summary(ratios),
        "duplicates": sum(v.duplicates for v in viewers),
        "skips": sum(v.skips for v in viewers),
        "failovers": sum(v.failovers for v in viewers),
        "origin_frames": origin_frames,
        "viewer_frames": viewer_frames,
        "offload_ratio": round(offload, 4),
        "relays": {
            s.name: {
                "offload_ratio": round(s.offload_ratio, 4),
                **{
                    f.name: getattr(s, f.name)
                    for f in fields(RelayCounters)
                    if f.name not in _UNREPORTED_RELAY_COUNTERS
                },
            }
            for s in relay_snaps
        },
        "viewers": viewer_report,
        "summaries": [s.summary() for s in relay_snaps],
    }
