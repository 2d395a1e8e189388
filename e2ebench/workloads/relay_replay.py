"""``relay_replay`` — relay-bound, replay-heavy (cache reads).

One ``SessionBroker`` origin, two ``FrameRelay`` s on a ``RelayRing`` with
peer links both ways, eight viewers (four per relay, one of the four
decoding), a timeline of 64 seeded 128x128 frames.

- phase **live**: the origin publishes the timeline once on a 10 frames/s
  schedule; latency runs from each frame's due time to its receipt at each
  viewer *through the relay hop* -> ``frame_ms_p50/p90``.
- phase **replay**: every viewer seeks to 0 and plays the timeline again,
  as fast as its credits allow, pass after pass until the time is up
  -> ``frames_per_s`` (median over passes), ``cpu_ms_per_frame``;
  ``wire_bytes_per_frame`` and ``offload_ratio`` are taken over the live
  pass and the first five replays, so they are exact counts for a seed
  however many passes the machine manages.

Replay adds no encodes and no origin traffic, so the relay (store reads,
player, prefetcher, ring) and the viewers' decodes do all the work: the
codecs are used read-side here and write-side in ``fanout_live``.  Only
two viewers decode, as in ``fanout_live``: decoding is the viewer's cost,
paid on the viewer's machine, and a relay delivery costs a tenth of a
decode — with eight decoders the workload measured the codec (90% of its
CPU) and could not see the relay.

No warm-up frame is sent: the timeline's ids are the ids the viewers must
see, exactly; the live phase is the cold pass.
"""

from __future__ import annotations

import threading
import time

from repro.relay import FrameRelay, RelayRing
from repro.serve import SessionBroker

from e2ebench.frames import animated_frames
from e2ebench.harness import (
    Outcome,
    Run,
    Viewer,
    check,
    check_no_leaked_threads,
    cpu_seconds,
    median,
    paced,
    percentile,
)

SIZE = 128
RELAYS = 2
VIEWERS = 8
DECODING = 2
CHUNK = 16
RATE_HZ = 10.0
#: replay passes every run makes, and over which the counts are taken
COUNTED_PASSES = 5


class _Topology:
    """Origin, relays on a ring with peer links, viewers joined."""

    def __init__(self, n_frames: int):
        self.viewers: list[Viewer] = []
        self.relays: list[FrameRelay] = []
        self.join_ms: list[float] = []
        self.origin = SessionBroker(history_frames=n_frames)
        try:
            ring = RelayRing(chunk_frames=CHUNK)
            for i in range(RELAYS):
                ring.add(f"relay{i}")
            for i in range(RELAYS):
                self.relays.append(FrameRelay(
                    f"relay{i}", self.origin, ring=ring,
                    upstream_credits=n_frames + 8,
                ))
            for a in self.relays:
                for b in self.relays:
                    if a is not b:
                        a.connect_peer(b)
            for i in range(VIEWERS):
                begin = time.perf_counter()
                handle = self.relays[i % RELAYS].join(f"viewer{i:02d}")
                self.join_ms.append((time.perf_counter() - begin) * 1e3)
                self.viewers.append(Viewer(handle, decode=i < DECODING, shape=(SIZE, SIZE, 3)))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for viewer in self.viewers:
            viewer.stop()
        for relay in self.relays:
            relay.close()
        self.origin.close()


def run(run: Run) -> Outcome:
    n_frames = max(CHUNK, min(64, int(run.seconds * 3.2) // CHUNK * CHUNK))
    images = run.make_inputs(lambda rng: animated_frames(rng, n_frames, SIZE))
    threads_before = threading.active_count()
    topo = run.build(lambda: _Topology(n_frames), _Topology.close)
    run.begin_measuring()
    try:
        # -- live: the origin publishes the timeline once, on a schedule -------------
        run.phase("live")
        due = []
        live_begin = time.perf_counter()
        for fid, frame_due in paced(n_frames, RATE_HZ):
            due.append(frame_due)
            topo.origin.publish(images[fid], time_step=fid, frame_id=fid)
        for viewer in topo.viewers:
            check(viewer.wait_for(n_frames, 10.0),
                  f"{viewer.handle.name} saw {len(viewer.receipts)} of {n_frames} live frames")
        live_ms = [
            [(t - due[fid]) * 1e3 for fid, t, _ in v.receipts[:n_frames]]
            for v in topo.viewers
        ]
        origin_after_live = sum(r.stats_snapshot().origin_frames for r in topo.relays)

        # -- replay: every viewer seeks to 0 and plays it again, pass after pass -----
        run.phase("replay")
        seek_ms: list[float] = []
        passes_done = 0
        #: (CPU seconds, viewer-frames) of each traced call of the replay phase
        traced_cost: list[tuple[float, int]] = []
        threads_steady = 0

        def replay_phase(budget_s: float) -> float:
            nonlocal passes_done, threads_steady
            rates = []
            cpu0 = cpu_seconds()
            begin = time.perf_counter()
            while len(rates) < COUNTED_PASSES or time.perf_counter() - begin < budget_s:
                have = n_frames * (1 + passes_done)
                sought = []
                start = time.perf_counter()
                for viewer in topo.viewers:
                    sought.append(time.perf_counter())
                    viewer.handle.seek(0)
                for viewer, asked in zip(topo.viewers, sought):
                    check(viewer.wait_for(have + n_frames, 30.0),
                          f"{viewer.handle.name} stalled in replay pass {passes_done + 1}")
                    seek_ms.append((viewer.receipts[have][1] - asked) * 1e3)
                end = max(v.receipts[have + n_frames - 1][1] for v in topo.viewers)
                rates.append(VIEWERS * n_frames / (end - start))
                passes_done += 1
            threads_steady = threading.active_count()
            if run.recording:
                traced_cost.append((cpu_seconds() - cpu0, len(rates) * VIEWERS * n_frames))
            return median(rates)

        frames_per_s, overhead_pct = run.throughput(
            replay_phase, run.seconds - (time.perf_counter() - live_begin), min_slice_s=1.0
        )
        snaps = [r.stats_snapshot() for r in topo.relays]
        origin_stats = topo.origin.stats()
    finally:
        topo.close()
    run.end_measuring()

    # -- output checks ----------------------------------------------------------
    passes = 1 + passes_done
    expected = list(range(n_frames)) * passes
    for viewer in topo.viewers:
        ids = [fid for fid, _, _ in viewer.receipts]
        check(ids == expected,
              f"{viewer.handle.name} did not see 0..{n_frames - 1} exactly {passes} times")
        check(not viewer.errors, f"{viewer.handle.name}: {viewer.errors[:2]}")
    origin_frames = sum(s.origin_frames for s in snaps)
    check(origin_frames == origin_after_live,
          f"replay pulled {origin_frames - origin_after_live} frames from the origin")
    check(origin_stats.encodes == n_frames,
          f"the origin encoded {origin_stats.encodes} times for {n_frames} frames")
    unavailable = sum(s.frames_unavailable for s in snaps)
    check(unavailable == 0, f"{unavailable} deliveries were abandoned by the relays")
    check_no_leaked_threads(threads_before)

    delivered = VIEWERS * n_frames * passes
    counted = VIEWERS * n_frames * (1 + COUNTED_PASSES)
    wan_bytes = sum(
        s.bytes_sent for name, s in origin_stats.sessions.items()
        if name.startswith("relay:")
    )
    merged = [ms for viewer in live_ms for ms in viewer]
    p50 = median(merged)
    payload = [size for _, _, size in topo.viewers[0].receipts[:n_frames]]
    metrics = {
        "setup_s": run.setup_s,
        "first_frame_s": max(v[0] for v in live_ms) / 1e3,
        "frame_ms_p50": p50,
        "frame_ms_p90": percentile(merged, 0.90),
        "frame_ms_geomean": p50,  # one codec: the geomean is its median
        "frames_per_s": frames_per_s,
        "cpu_ms_per_frame": run.measured_cpu_s * 1e3 / delivered,
        "wire_bytes_per_frame": wan_bytes / counted,
        "offload_ratio": 1.0 - origin_frames / counted,
        "compress.jpeg-lzo.bytes": sum(payload) / len(payload),
        "relay.join_ms": median(topo.join_ms),
        "relay.seek_ms": median(seek_ms),
        "relay.store_hits": sum(s.store_hits for s in snaps),
        "relay.store_waits": sum(s.store_waits for s in snaps),
        "relay.origin_frames": origin_frames,
        "relay.peer_frames": sum(s.peer_frames for s in snaps),
        "relay.prefetch_issued": sum(s.prefetch_issued for s in snaps),
        "relay.prefetch_fills": sum(s.prefetch_fills for s in snaps),
        "relay.frames_unavailable": unavailable,
        "relay.threads": threads_steady,
        "serve.encodes_per_frame": origin_stats.encodes / n_frames,
        "trace.overhead_pct": overhead_pct,
    }
    if run.tracer is not None:
        tr = run.tracer
        decodes = tr.select("compress.jpeg+lzo.decode", phase="replay", top=True)
        traced_cpu_s, traced_frames = (sum(column) for column in zip(*traced_cost))
        metrics.update({
            "compress.jpeg-lzo.encode_ms": median(
                tr.durations_ms("compress.jpeg+lzo.encode", top=True)),
            "compress.jpeg-lzo.decode_ms": median(
                (s["end"] - s["start"]) * 1e3 for s in decodes),
            "relay.nondecode_cpu_ms_per_frame": (
                (traced_cpu_s * 1e3 - sum(s["cpu_ms"] for s in decodes)) / traced_frames),
        })
    return Outcome(
        metrics=metrics,
        attempted=delivered,
        failed=0,
        samples={"frame_ms_p50": len(merged), "frame_ms_p90": len(merged),
                 "frames_per_s": passes_done, "first_frame_s": 1},
    )
