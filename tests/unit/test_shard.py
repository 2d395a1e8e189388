"""Sharded-serving invariants: routing, resume, encode pool, merged stats.

The properties the scale-out layer promises:

- a session name routes to the same shard every time — including a
  reconnect-with-resume, which must land where the parked resume state
  lives;
- changing the shard count moves a *bounded* slice of the keyspace
  (consistent hashing, not modulo);
- a resume that fell off the retained history window gets an explicit
  ``gap`` signal, never a silent skip;
- an encode-pool worker crash is retried on a live worker without the
  caller noticing and without a duplicate cache fill;
- merged stats never divide by zero and never multiply-count the
  frames the router offered to every shard.
"""

import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from join_surfaces import LOSSLESS, frames as _frames, join_surface, surface_stats
from repro.compress import get_codec
from repro.devtools.locktrace import checked
from repro.devtools.waiting import wait_until
from repro.serve import (
    EncodeFailed,
    EncodePool,
    FrameCache,
    ServeStats,
    SessionBroker,
    SessionRouter,
    shard_for,
)
from repro.serve.stats import SessionStats


class TestShardFor:
    def test_deterministic_and_matches_router(self):
        names = [f"viewer{i}" for i in range(50)]
        with SessionRouter(shards=3, ladder=LOSSLESS) as router:
            for name in names:
                owner = shard_for(name, router.shard_names())
                assert owner == shard_for(name, router.shard_names())
                assert owner == router.shard_of(name)

    def test_scale_out_moves_bounded_slice_to_new_shard_only(self):
        names = [f"session-{i}" for i in range(1000)]
        four = [f"shard{i}" for i in range(4)]
        five = four + ["shard4"]
        before = {n: shard_for(n, four) for n in names}
        after = {n: shard_for(n, five) for n in names}
        moved = [n for n in names if before[n] != after[n]]
        # consistent hashing: the only sessions that move are the ones
        # the *new* shard now owns — survivors keep every other key
        assert all(after[n] == "shard4" for n in moved)
        # and the moved slice is roughly 1/5 of the keyspace, not all
        # of it (modulo hashing would reshuffle ~80%)
        assert 0.05 < len(moved) / len(names) < 0.40

    def test_every_shard_owns_sessions(self):
        names = [f"s{i}" for i in range(2000)]
        shard_names = [f"shard{i}" for i in range(8)]
        owners = {shard_for(n, shard_names) for n in names}
        assert owners == set(shard_names)

    def test_empty_shard_set_rejected(self):
        with pytest.raises(ValueError):
            shard_for("viewer0", [])


class TestSessionRouter:
    def test_sessions_land_on_owning_shard_and_stats_merge(self):
        frames = _frames(4)
        names = [f"viewer{i:02d}" for i in range(8)]
        with checked(patch_channel=False):
            with SessionRouter(
                shards=3, ladder=LOSSLESS, credit_limit=16
            ) as router:
                handles = {name: router.join(name) for name in names}
                for name in names:
                    owner = router.shard_of(name)
                    assert name in router.shard(owner).sessions()
                for fid, image in enumerate(frames):
                    router.publish(image, time_step=fid, frame_id=fid)
                for name, handle in handles.items():
                    got = [handle.next_frame(timeout=5.0).frame_id
                           for _ in range(len(frames))]
                    assert got == [0, 1, 2, 3], name
                assert router.drain(timeout=5.0)
                stats = router.stats()
        # the router offered each frame to every shard: merged count
        # must not multiply by the shard count
        assert stats.frames_published == len(frames)
        assert stats.shards == 3
        assert set(stats.sessions) == set(names)
        per_shard = router.shard_stats()
        assert sum(len(s.sessions) for s in per_shard.values()) == len(names)

    def test_rejoin_resumes_on_the_same_shard(self):
        frames = _frames(3)
        with checked(patch_channel=False):
            with SessionRouter(
                shards=3, ladder=LOSSLESS, credit_limit=8
            ) as router:
                handle = router.join("wanA")
                owner = router.shard_of("wanA")
                for fid, image in enumerate(frames):
                    router.publish(image, time_step=fid, frame_id=fid)
                for _ in frames:
                    handle.next_frame(timeout=5.0)
                router.drain(timeout=5.0)
                # unclean departure parks resume state on the owner
                router.leave("wanA", resumable=True)
                resumed = router.join("wanA", resume_from=len(frames))
                assert resumed.resumed
                assert router.shard_of("wanA") == owner
                router.publish(frames[0], time_step=3, frame_id=3)
                assert resumed.next_frame(timeout=5.0).frame_id == 3
                assert router.shard(owner).stats().resumes == 1
                for name, snap in router.shard_stats().items():
                    if name != owner:
                        assert snap.resumes == 0

    def test_auto_names_are_unique_across_shards(self):
        with SessionRouter(shards=2, ladder=LOSSLESS) as router:
            handles = [router.join() for _ in range(6)]
            assert len({h.name for h in handles}) == 6
            assert sorted(router.sessions()) == sorted(h.name for h in handles)

    def test_close_is_idempotent_and_rejects_new_work(self):
        router = SessionRouter(shards=2, ladder=LOSSLESS)
        router.close()
        router.close()
        with pytest.raises(RuntimeError):
            router.join("late")
        with pytest.raises(RuntimeError):
            router.publish(_frames(1)[0])


class TestResumeGapSignal:
    #: the join surfaces an *unseen* name resumes on (a viewer rotating
    #: in from another host brings only ``resume_from``), each with the
    #: oldest of ids 0..11 it can still replay: the origin keeps a
    #: 4-frame window, the relay stored every frame it forwarded
    UNSEEN = (("broker", 8), ("router2", 8), ("relay", 0))

    def _stream_past_window(self, target, origin):
        """Publish 12 frames through a 4-frame retention window with a
        consuming viewer ``v`` on ``target``; returns the frames.

        The credit limit must cover all 12 frames: acks return
        credits asynchronously (the session pump thread), so a tighter
        limit would let a loaded machine drop a frame mid-setup.
        """
        frames = _frames(12)
        handle = target.join("v")
        for fid, image in enumerate(frames):
            origin.publish(image, time_step=fid, frame_id=fid)
            assert handle.next_frame(timeout=5.0).frame_id == fid
        return frames

    def _run_to_history_loss(self, broker):
        frames = self._stream_past_window(broker, broker)
        broker.leave("v", resumable=True)
        return frames

    def _unseen_surfaces(self):
        """Each UNSEEN surface after the same 12 frames, with the id a
        resume from before the window starts at."""
        for kind, oldest in self.UNSEEN:
            with join_surface(
                kind, history_frames=4, credit_limit=16
            ) as (target, origin):
                frames = self._stream_past_window(target, origin)
                yield target, origin, oldest, frames

    def test_resume_past_history_gets_explicit_gap(self):
        with SessionBroker(
            ladder=LOSSLESS, history_frames=4, credit_limit=16
        ) as broker:
            self._run_to_history_loss(broker)
            # ids 0..7 were evicted; resuming from 0 is unrecoverable
            handle = broker.join("v", resume_from=0)
            frame = handle.next_frame(timeout=5.0)
            assert frame.frame_id == 8  # oldest retained frame
            assert handle.gaps == [(0, 8)]
            assert broker.stats().resume_gaps == 1
        for target, origin, oldest, _ in self._unseen_surfaces():
            handle = target.join("fresh", resume_from=0)
            assert handle.resumed
            assert handle.next_frame(timeout=5.0).frame_id == oldest
            assert handle.gaps == ([(0, oldest)] if oldest else [])
            assert surface_stats(target).resumes == 1
            assert origin.stats().resume_gaps == (1 if oldest else 0)

    def test_resume_inside_history_has_no_gap(self):
        with SessionBroker(
            ladder=LOSSLESS, history_frames=4, credit_limit=16
        ) as broker:
            self._run_to_history_loss(broker)
            handle = broker.join("v", resume_from=10)
            assert handle.next_frame(timeout=5.0).frame_id == 10
            assert handle.gaps == []
            assert broker.stats().resume_gaps == 0
        for target, origin, _, _ in self._unseen_surfaces():
            handle = target.join("fresh", resume_from=10)
            assert handle.resumed
            assert handle.next_frame(timeout=5.0).frame_id == 10
            assert handle.gaps == []
            assert surface_stats(target).resumes == 1
            assert origin.stats().resume_gaps == 0

    def test_resume_beyond_newest_waits_without_gap(self):
        with SessionBroker(
            ladder=LOSSLESS, history_frames=4, credit_limit=16
        ) as broker:
            frames = self._run_to_history_loss(broker)
            handle = broker.join("v", resume_from=12)
            broker.publish(frames[0], time_step=12, frame_id=12)
            assert handle.next_frame(timeout=5.0).frame_id == 12
            assert handle.gaps == []
            assert broker.stats().resume_gaps == 0
        for target, origin, _, frames in self._unseen_surfaces():
            handle = target.join("fresh", resume_from=12)
            assert handle.resumed
            origin.publish(frames[0], time_step=12, frame_id=12)
            assert handle.next_frame(timeout=5.0).frame_id == 12
            assert handle.gaps == []
            assert surface_stats(target).resumes == 1
            assert origin.stats().resume_gaps == 0


class TestEncodePool:
    def test_worker_crash_retried_without_duplicate_fill(self):
        image = _frames(1, size=24)[0]
        key = (0, "rle", None)
        with checked(patch_channel=False):
            with EncodePool(2) as pool:
                victim = pool._workers[0].process
                victim.kill()
                wait_until(lambda: not victim.is_alive(), timeout=5.0,
                           message="victim worker did not die")
                cache = FrameCache(max_bytes=1 << 20)
                fills = []

                def fill():
                    fills.append(1)
                    # pinned onto the dead worker: the collector must
                    # respawn it and replay the task on a live one
                    return pool.encode(image, "rle", key=key, _worker=0)

                payload = cache.get_or_encode(key, fill)
                assert np.array_equal(
                    get_codec("rle").decode_image(payload), image
                )
                # the crash stayed invisible: one fill, one completed
                # encode, no duplicate cache entry
                assert len(fills) == 1
                assert cache.get_or_encode(key, fill) == payload
                assert len(fills) == 1
                snap = pool.stats_snapshot()
                assert snap["worker_restarts"] >= 1
                assert snap["retries"] >= 1
                assert snap["encodes"] == 1

    def test_concurrent_same_key_coalesces_to_one_encode(self):
        image = _frames(1, size=48)[0]
        key = (7, "lzo", None)
        with EncodePool(1) as pool:
            # freeze the lone worker: the first keyed request provably
            # stays in flight until we thaw it, so the second request
            # must piggyback instead of winning a submission race
            worker = pool._workers[0].process
            os.kill(worker.pid, signal.SIGSTOP)
            results = []

            def request():
                results.append(pool.encode(image, "lzo", key=key))

            threads = [threading.Thread(target=request) for _ in range(2)]
            try:
                threads[0].start()
                wait_until(lambda: key in pool._inflight, timeout=5.0,
                           message="keyed encode never became in-flight")
                threads[1].start()
                wait_until(
                    lambda: pool.stats_snapshot()["coalesced"] == 1,
                    timeout=5.0,
                    message="second request never coalesced",
                )
            finally:
                os.kill(worker.pid, signal.SIGCONT)
            for t in threads:
                t.join(timeout=30.0)
            assert results[0] == results[1]
            snap = pool.stats_snapshot()
            assert snap["coalesced"] == 1
            assert snap["encodes"] == 1

    def test_worker_codec_error_raises_typed(self):
        image = _frames(1)[0]
        with EncodePool(1) as pool:
            with pytest.raises(EncodeFailed):
                pool.encode(image, "no-such-codec")

    def test_timeout_falls_back_inline(self):
        image = _frames(1)[0]
        with EncodePool(1) as pool:
            payload = pool.encode(image, "rle", timeout=0.0)
            assert np.array_equal(
                get_codec("rle").decode_image(payload), image
            )
            assert pool.stats_snapshot()["inline_fallbacks"] == 1

    def test_closed_pool_leaves_no_process_behind(self):
        """Once an interpreter that ran a pool exits, no process the pool
        started is left: its workers are reaped at close, and the
        resource tracker -- which CPython lets outlive its interpreter,
        reparented until something reaps it -- is stopped and reaped at
        exit.  A fresh interpreter, so no other test's pool shares it."""
        script = (
            "import numpy as np\n"
            "from multiprocessing import resource_tracker\n"
            "from repro.serve import EncodePool\n"
            "with EncodePool(2) as pool:\n"
            "    pool.encode(np.zeros((16, 16, 3), np.uint8), 'rle')\n"
            "    pids = [w.process.pid for w in pool._workers]\n"
            "print(*pids, resource_tracker._resource_tracker._pid)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 3
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            alive.append(pid)
        assert not alive, f"processes {alive} outlived the interpreter"

    def test_closed_pool_rejects_encodes(self):
        pool = EncodePool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.encode(_frames(1)[0], "rle")


class TestServeStatsMerge:
    def test_empty_merge_never_divides_by_zero(self):
        merged = ServeStats.merge([])
        assert merged.shards == 1
        assert merged.cache_hit_ratio == 0.0
        assert "published 0 frames" in merged.summary()

    def test_merge_sums_counters_and_maxes_published(self):
        a = ServeStats(
            sessions={"v0": SessionStats(name="v0", frames_sent=4)},
            frames_published=10, encodes=3, cache_hits=6, cache_misses=2,
            resumes=1, resume_gaps=1,
        )
        b = ServeStats(
            sessions={"v1": SessionStats(name="v1", frames_sent=9)},
            frames_published=10, encodes=5, cache_hits=0, cache_misses=0,
            malformed_controls=2,
        )
        merged = ServeStats.merge([a, b])
        assert merged.shards == 2
        # each shard saw the same router-published frames: max, not sum
        assert merged.frames_published == 10
        assert merged.encodes == 8
        assert merged.cache_hits == 6 and merged.cache_misses == 2
        assert merged.cache_hit_ratio == pytest.approx(0.75)
        assert merged.resumes == 1 and merged.resume_gaps == 1
        assert merged.malformed_controls == 2
        assert set(merged.sessions) == {"v0", "v1"}
        assert merged.total_frames_sent == 13
        assert "across 2 shards" in merged.summary()
