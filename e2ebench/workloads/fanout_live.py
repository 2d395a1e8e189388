"""``fanout_live`` — serving-bound, many viewers, every frame new (cache
writes, encodes, small messages).

``SessionRouter(shards=2, encode_workers=2, credit_limit=32,
history_frames=32)`` — the configuration whose two-shard latency the
ROADMAP calls unexplained — with 16 viewers (2 decode, 14 only ack) and
128x128 frames whose payloads are about 3.5 KB, so the cost per message
dominates the cost per byte.  Frame ids never repeat: every publish is a
cache miss and an encode.

- phase **A**, open loop: frames published on a fixed 50 frames/s
  schedule (about two fifths of what phase B reaches) whatever the router
  does; latency runs from each frame's *due*
  time to its receipt at each viewer, and the generator's own lateness is
  reported -> ``frame_ms_p50/p90``, ``failed``.
- phase **B**, saturation without drops: windows of four frames with
  ``drain()`` between windows -> ``frames_per_s`` (viewer-frames).
- traced runs add a control segment: phase A again at ``shards=1,
  encode_workers=0`` -> ``serve.shard1_frame_ms_p50``.

Load comes from this one process, which shares its one processor (see
``harness.pin_to_one_cpu``) with the router and its encode workers: one
publisher thread and two decoding viewers are busy; the other fourteen
viewer threads block in ``recv`` and ack.
"""

from __future__ import annotations

import threading
import time

from repro.serve import SessionRouter

from e2ebench.frames import animated_frames
from e2ebench.harness import (
    Outcome,
    Run,
    Viewer,
    check,
    median,
    paced,
    percentile,
)

SIZE = 128
#: distinct images; ids never repeat, images do, and each phase publishes
#: whole cycles so bytes per frame is an exact count
POOL = 32
VIEWERS = 16
DECODING = 2
RATE_HZ = 50.0
WINDOW = 4
#: frames a viewer may have unacknowledged before the broker drops for it.
#: The open loop publishes what a stall made late back to back, so with
#: the broker's usual 8 a third of a second's hiccup of the whole machine
#: costs frames; a benchmark's workload must not fail on that
CREDITS = 32
#: share of the run given to the open-loop phase
A_SHARE = 0.55
WARM_UP = 4


class _Fanout:
    """A router with its viewers joined and one window of frames through."""

    def __init__(self, images, *, shards: int, encode_workers: int):
        self.images = images
        self.next_id = 0
        self.due: dict[int, float] = {}
        self.viewers: list[Viewer] = []
        self.join_ms: list[float] = []
        self.router = SessionRouter(
            shards=shards, encode_workers=encode_workers,
            credit_limit=CREDITS, history_frames=32,
        )
        try:
            for i in range(VIEWERS):
                begin = time.perf_counter()
                handle = self.router.join(f"viewer{i:02d}")
                self.join_ms.append((time.perf_counter() - begin) * 1e3)
                self.viewers.append(Viewer(handle, decode=i < DECODING, shape=(SIZE, SIZE, 3)))
            for _ in range(WARM_UP):
                self.publish()
            check(self.settle(), "warm-up frames were not delivered")
        except BaseException:
            self.close()
            raise
        self.warm = self.next_id

    def publish(self, due: float | None = None) -> None:
        fid = self.next_id
        self.next_id += 1
        self.due[fid] = time.perf_counter() if due is None else due
        self.router.publish(self.images[fid % POOL], time_step=fid, frame_id=fid)

    def settle(self, timeout: float = 10.0) -> bool:
        """Every published frame acked and recorded at every viewer."""
        deadline = time.monotonic() + timeout
        ok = self.router.drain(timeout=timeout)
        for viewer in self.viewers:
            ok = viewer.wait_for(self.next_id, max(deadline - time.monotonic(), 0.0)) and ok
        return ok

    def close(self) -> None:
        for viewer in self.viewers:
            viewer.stop()
        self.router.close()


def _open_loop(fan: _Fanout, budget_s: float) -> list[float]:
    """Publish whole cycles on the schedule; returns how late the
    generator itself ran on each frame, in ms."""
    n = max(POOL, int(budget_s * RATE_HZ) // POOL * POOL)
    late_ms = []
    for _, due in paced(n, RATE_HZ):
        late_ms.append((time.perf_counter() - due) * 1e3)
        fan.publish(due)
    fan.settle()
    return late_ms


def _latencies_ms(fan: _Fanout, first: int, last: int) -> list[list[float]]:
    """Per viewer: due -> receipt for frame ids in ``[first, last)``."""
    return [
        [(t - fan.due[fid]) * 1e3 for fid, t, _ in v.receipts if first <= fid < last]
        for v in fan.viewers
    ]


def run(run: Run) -> Outcome:
    images = run.make_inputs(lambda rng: animated_frames(rng, POOL, SIZE))
    fan = run.build(
        lambda: _Fanout(images, shards=2, encode_workers=2), _Fanout.close
    )
    stats0 = fan.router.stats()
    pool0 = fan.router.encode_pool.stats_snapshot()
    run.begin_measuring()
    try:
        # -- A: open loop at a fixed rate --------------------------------------------
        run.phase("A")
        late_ms = _open_loop(fan, run.seconds * A_SHARE)
        a_end = fan.next_id
        threads_steady = threading.active_count()

        # -- B: saturation, windows of four with drain between -----------------------
        run.phase("B")

        def saturation_phase(budget_s: float) -> float:
            rates = []
            begin = block_begin = time.perf_counter()
            published = 0
            while time.perf_counter() - begin < budget_s or published % POOL:
                for _ in range(WINDOW):
                    fan.publish()
                fan.router.drain(timeout=10.0)
                published += WINDOW
                if published % POOL == 0:
                    now = time.perf_counter()
                    rates.append(POOL * VIEWERS / (now - block_begin))
                    block_begin = now
            return median(rates)

        frames_per_s, overhead_pct = run.throughput(
            saturation_phase, run.seconds * (1.0 - A_SHARE), min_slice_s=1.0
        )
        settled = fan.settle()
        stats = fan.router.stats()
        shard_sessions = [len(s.sessions) for s in fan.router.shard_stats().values()]
        pool = fan.router.encode_pool.stats_snapshot()
    finally:
        fan.close()
    run.end_measuring()

    # -- output checks ----------------------------------------------------------
    published = fan.next_id - fan.warm
    attempted = published * VIEWERS
    delivered = 0
    disorder = 0
    for viewer in fan.viewers:
        ids = [fid for fid, _, _ in viewer.receipts]
        disorder += sum(1 for a, b in zip(ids, ids[1:]) if b <= a)
        delivered += sum(1 for fid in ids if fid >= fan.warm)
        check(not viewer.errors, f"{viewer.handle.name}: {viewer.errors[:2]}")
    check(disorder == 0, f"{disorder} frames arrived duplicated or out of order")
    receipts = sum(len(v.receipts) for v in fan.viewers)
    acks = sum(s.acks for s in stats.sessions.values())
    check(acks == receipts, f"{acks} acks at the router, {receipts} receipts at the viewers")
    failed = attempted - delivered
    check(settled or failed, "drain timed out although every frame was delivered")

    samples = _latencies_ms(fan, fan.warm, a_end)
    merged = [ms for viewer in samples for ms in viewer]
    payload_bytes = [
        size for v in fan.viewers for fid, _, size in v.receipts if fid >= fan.warm
    ]
    p50 = median(merged)
    dropped = stats.total_frames_dropped - stats0.total_frames_dropped
    lookups = (stats.cache_hits - stats0.cache_hits) + (stats.cache_misses - stats0.cache_misses)
    metrics = {
        "setup_s": run.setup_s,
        "first_frame_s": max(v[0] for v in samples) / 1e3,
        "frame_ms_p50": p50,
        "frame_ms_p90": percentile(merged, 0.90),
        "frame_ms_geomean": p50,  # one codec: the geomean is its median
        "frames_per_s": frames_per_s,
        "cpu_ms_per_frame": run.measured_cpu_s * 1e3 / delivered,
        "wire_bytes_per_frame": sum(payload_bytes) / len(payload_bytes),
        "compress.jpeg-lzo.bytes": sum(payload_bytes) / len(payload_bytes),
        "serve.join_ms": median(fan.join_ms),
        "serve.encodes_per_frame": (stats.encodes - stats0.encodes) / published,
        "serve.cache_hit_ratio": (stats.cache_hits - stats0.cache_hits) / lookups,
        "serve.pool_encodes": pool["encodes"] - pool0["encodes"],
        "serve.pool_coalesced": pool["coalesced"] - pool0["coalesced"],
        "serve.pool_fallbacks": pool["inline_fallbacks"] - pool0["inline_fallbacks"],
        "serve.dropped": dropped,
        "serve.tier_transitions": stats.total_transitions - stats0.total_transitions,
        "serve.shard_skew": max(shard_sessions) * len(shard_sessions) / VIEWERS,
        "serve.frame_ms_p99": percentile(merged, 0.99),
        "serve.viewer_p99_ms_max": max(percentile(v, 0.99) for v in samples),
        "serve.generator_late_ms_p99": percentile(late_ms, 0.99),
        "serve.threads": threads_steady,
        "trace.overhead_pct": overhead_pct,
    }
    if run.tracer is not None:
        tr = run.tracer
        metrics.update({
            "serve.publish_ms": median(tr.durations_ms("serve.publish", phase="A")),
            "serve.drain_ms": median(tr.durations_ms("serve.drain", phase="B")),
            "compress.jpeg-lzo.encode_ms": median(
                tr.durations_ms("compress.jpeg+lzo.encode", top=True)),
            "compress.jpeg-lzo.decode_ms": median(
                tr.durations_ms("compress.jpeg+lzo.decode", top=True)),
            "serve.shard1_frame_ms_p50": _one_shard_control(images, run.seconds * 0.2),
        })
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        samples={"frame_ms_p50": len(merged), "frame_ms_p90": len(merged),
                 "frames_per_s": published - (a_end - fan.warm), "first_frame_s": 1},
    )


def _one_shard_control(images, budget_s: float) -> float:
    """Phase A once more on one shard with in-process encodes: the other
    side of the two-shard latency question, as a number."""
    fan = _Fanout(images, shards=1, encode_workers=0)
    try:
        _open_loop(fan, budget_s)
        samples = _latencies_ms(fan, fan.warm, fan.next_id)
    finally:
        fan.close()
    return median(ms for viewer in samples for ms in viewer)
