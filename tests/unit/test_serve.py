"""Unit tests for the serving layer: broker, cache, tiers, adaptation."""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from join_surfaces import (
    SURFACES,
    cut_and_rejoin,
    frames as random_frames,
    host_of,
    join_surface,
    surface_stats,
)
from repro.compress.context import bound_codec
from repro.daemon.protocol import ControlMessage, FrameMessage, decode_message
from repro.devtools.waiting import wait_until
from repro.scenario import synthetic_frames
from repro.serve import (
    AdaptiveQualityController,
    FrameCache,
    QualityTier,
    SessionBroker,
    TierLadder,
    default_ladder,
)

#: an all-lossless ladder so image round-trips can be asserted exactly
LOSSLESS_LADDER = TierLadder(
    (
        QualityTier("full", "lzo"),
        QualityTier("lite", "rle"),
        QualityTier("skip", "rle", frame_stride=2),
    )
)

#: one lossy tier, so decoding builds Huffman tables the report counts
JPEG_LADDER = TierLadder((QualityTier("hq", "jpeg", quality=75),))


def _recv_frame_id(handle) -> int:
    """The id of the next frame on ``handle``'s link, not acked."""
    while True:
        msg = decode_message(handle.conn.recv(timeout=5.0))
        if isinstance(msg, FrameMessage):
            return msg.frame_id


class TestFrameCache:
    def test_get_or_encode_encodes_once(self):
        cache = FrameCache(max_bytes=1 << 20)
        calls = []

        def encode():
            calls.append(1)
            return b"payload"

        key = (0, "jpeg", 75)
        assert cache.get_or_encode(key, encode) == b"payload"
        assert cache.get_or_encode(key, encode) == b"payload"
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_under_byte_budget(self):
        cache = FrameCache(max_bytes=100)
        cache.put((0, "c", None), b"x" * 40)
        cache.put((1, "c", None), b"x" * 40)
        cache.get((0, "c", None))  # 0 is now most recently used
        cache.put((2, "c", None), b"x" * 40)  # evicts 1, the LRU entry
        assert (0, "c", None) in cache
        assert (1, "c", None) not in cache
        assert (2, "c", None) in cache
        assert cache.evictions == 1
        assert cache.current_bytes == 80

    def test_oversized_entry_keeps_newest(self):
        cache = FrameCache(max_bytes=10)
        cache.put((0, "c", None), b"x" * 50)
        assert (0, "c", None) in cache  # never evict down to empty

    def test_replace_same_key_accounts_bytes(self):
        cache = FrameCache(max_bytes=100)
        cache.put((0, "c", None), b"x" * 30)
        cache.put((0, "c", None), b"x" * 50)
        assert cache.current_bytes == 50
        assert len(cache) == 1


@pytest.mark.parametrize("kind", SURFACES)
class TestJoinSurface:
    """What every join surface promises a reconnecting viewer — one
    implementation (``repro.serve.host``), so one set of cases."""

    def test_unclean_cut_then_rejoin_keeps_cumulative_counters(self, kind):
        images = random_frames(4)
        with join_surface(kind, credit_limit=8) as (target, origin):
            handle = target.join("wan")
            for fid in (0, 1):
                origin.publish(images[fid], time_step=fid, frame_id=fid)
                assert handle.next_frame(timeout=5.0).frame_id == fid
            assert target.drain(timeout=5.0)  # both acks have landed
            handle = cut_and_rejoin(target, handle, resume_from=2)
            assert handle.resumed
            for fid in (2, 3):
                origin.publish(images[fid], time_step=fid, frame_id=fid)
                assert handle.next_frame(timeout=5.0).frame_id == fid
            assert target.drain(timeout=5.0)
            stats = surface_stats(target)
            assert stats.resumes == 1
            session = stats.sessions["wan"]
            assert (session.frames_sent, session.acks) == (4, 4)
            assert session.reconnects == 1
            assert session.active

    def test_polite_leave_drops_the_parked_state(self, kind):
        with join_surface(kind) as (target, origin):
            first = target.join("polite")
            origin.publish(random_frames(1)[0], frame_id=0)
            assert first.next_frame(timeout=5.0).frame_id == 0
            first.leave()
            wait_until(lambda: "polite" not in target.sessions(),
                       message="polite leave reaped")
            second = target.join("polite")
            assert not second.resumed
            stats = surface_stats(target)
            assert stats.resumes == 0
            assert stats.sessions["polite"].reconnects == 0

    def test_stale_thread_does_not_reap_the_replacement(self, kind):
        """A pump (or relay player, or broker delivery) reacts to what
        it saw on *its* session's connection, possibly after the same
        name has rejoined: that late detach must leave the new session
        alone."""
        with join_surface(kind) as (target, origin):
            handle = target.join("v")
            host = host_of(target, "v")
            (stale,) = [s for s in host.live() if s.name == "v"]
            handle = cut_and_rejoin(target, handle, resume_from=0)
            host.detach(stale, resumable=True)  # the stale thread, late
            assert "v" in target.sessions()
            origin.publish(random_frames(1)[0], frame_id=0)
            assert handle.next_frame(timeout=5.0).frame_id == 0
            # and the replacement's own state was not parked over
            assert surface_stats(target).sessions["v"].active

    def test_the_decode_report_rides_the_ack(self, kind):
        """The tier serving a decoding viewer reports its decode cache
        from the viewer's acks; a relay decodes nothing, so its own
        session at the origin reports none."""
        images = synthetic_frames(3, size=32)
        with join_surface(kind, ladder=JPEG_LADDER) as (target, origin):
            handle = target.join("v")
            for fid, image in enumerate(images + images):
                origin.publish(image, time_step=fid % 3, frame_id=fid)
                assert handle.next_frame(timeout=5.0).image is not None
            assert target.drain(timeout=5.0)  # the last report has landed
            session = surface_stats(target).sessions["v"]
            ctx = handle.codec_context
            assert session.decode_cache_bytes == ctx.code_bytes > 0
            assert session.decode_context_hit_ratio == ctx.hit_ratio() > 0
            if target is not origin:
                for upstream in origin.stats().sessions.values():
                    assert upstream.decode_cache_bytes == 0
                    assert upstream.decode_context_hit_ratio == 0.0

    def test_a_bad_report_still_returns_its_credit(self, kind):
        """An ack whose decode report is bad is counted as malformed and
        its report dropped, but the credit it carries still comes back."""
        images = synthetic_frames(5, size=32)
        bad_reports = (
            {"hit_ratio": "0.5", "code_bytes": 10},
            {"hit_ratio": 0.5, "code_bytes": -1},
            {"hit_ratio": True, "code_bytes": 10},
            {"hit_ratio": 0.5, "code_bytes": True},
        )
        with join_surface(kind, ladder=JPEG_LADDER) as (target, origin):
            handle = target.join("v")
            origin.publish(images[0], frame_id=0)
            assert handle.next_frame(timeout=5.0).frame_id == 0
            assert target.drain(timeout=5.0)
            good = surface_stats(target).sessions["v"]
            assert good.decode_cache_bytes > 0
            for fid, report in enumerate(bad_reports, start=1):
                origin.publish(images[fid], frame_id=fid)
                assert _recv_frame_id(handle) == fid
                handle.conn.send(ControlMessage(
                    tag="ack", params={"frame_id": fid, **report}).encode())
            assert target.drain(timeout=5.0)  # every credit came back
            stats = surface_stats(target)
            assert stats.malformed == len(bad_reports)
            session = stats.sessions["v"]
            assert session.acks == 1 + len(bad_reports)
            assert (session.decode_context_hit_ratio,
                    session.decode_cache_bytes) == (
                good.decode_context_hit_ratio, good.decode_cache_bytes)


@pytest.mark.parametrize("kind", ("broker", "relay"))
def test_reconnect_churn_leaks_neither_threads_nor_snapshots(kind):
    """A WAN viewer that reconnects every few seconds, for the life
    of the daemon: the thread list is pruned as it grows and the
    departed snapshots are kept by name."""
    cycles = 200
    with join_surface(kind) as (target, _):
        handle = target.join("flaky")
        host = host_of(target, "flaky")
        for _ in range(cycles):
            handle = cut_and_rejoin(target, handle, resume_from=None)
        assert surface_stats(target).sessions["flaky"].reconnects == cycles
        with host._lock:
            threads, departed = len(host._threads), len(host._departed)
        # the live session's pump (+ player, + the relay's ingest)
        # and at most the previous session's threads still exiting
        assert threads <= 8
        assert departed == 1


@pytest.mark.parametrize("kind", ("broker", "router2", "relay"))
def test_closed_broker_is_freed_without_the_cycle_collector(kind):
    """The host's hooks are its owner's bound methods — a reference
    cycle while serving, and a relay's prefetcher holds the relay
    besides.  Closing must break both: a closed broker or relay (its
    cache or store, its history, its pool's queue threads) goes away
    when dropped, not at some later collection."""
    gc.collect()
    gc.disable()
    try:
        with join_surface(kind) as (target, _):
            target.join("v").leave()
            ref = weakref.ref(target)
        del target, _
        assert ref() is None
    finally:
        gc.enable()


def _broker_encoder(broker, tier):
    """The encoder the broker's inline cache fills use for ``tier``."""
    return bound_codec(
        broker._encoders, broker._encoder_context, tier.codec, tier.quality
    )


class TestEncoderContextReuse:
    """Cold cache fills must reuse the broker's persistent encode state."""

    def test_cold_fills_do_not_churn_context_buffers(self):
        tier = QualityTier("hq", "jpeg", quality=75)
        frames = synthetic_frames(6)
        with SessionBroker() as broker:
            # First cold fill allocates the context scratch set for this
            # frame geometry; every later fill must hit those exact arrays.
            broker._payload(0, tier, frames[0])
            ctx = broker._encoder_context
            codec = _broker_encoder(broker, tier)
            allocs = ctx.stats["buffer_allocs"]
            assert allocs > 0  # the jpeg encoder really routes through ctx
            buffer_ids = {k: id(v) for k, v in ctx._buffers.items()}
            sink_ids = {k: id(v) for k, v in ctx._sinks.items()}

            for i, frame in enumerate(frames[1:], start=1):
                broker._payload(i, tier, frame)

            assert broker.encodes == len(frames)  # all cold, none cached
            assert _broker_encoder(broker, tier) is codec  # one codec per tier
            # No per-frame ndarray churn: zero new scratch allocations and
            # every pooled buffer/bit-sink is the same object as after the
            # warm-up frame.
            assert ctx.stats["buffer_allocs"] == allocs
            assert {k: id(v) for k, v in ctx._buffers.items()} == buffer_ids
            assert {k: id(v) for k, v in ctx._sinks.items()} == sink_ids

    def test_two_phase_tier_shares_one_context(self):
        tier = QualityTier("wan", "jpeg+lzo", quality=75)
        frames = synthetic_frames(4)
        with SessionBroker() as broker:
            broker._payload(0, tier, frames[0])
            ctx = broker._encoder_context
            codec = _broker_encoder(broker, tier)
            # The context-aware stage of the two-phase codec holds the
            # broker's context (use_context fans out to every stage that
            # supports one).
            assert codec.first._ctx is ctx
            allocs = ctx.stats["buffer_allocs"]
            for i, frame in enumerate(frames[1:], start=1):
                broker._payload(i, tier, frame)
            assert ctx.stats["buffer_allocs"] == allocs


class TestTiers:
    def test_default_ladder_degrades_monotonically(self):
        ladder = default_ladder()
        assert ladder[0].name == "full"
        qualities = [t.quality for t in ladder]
        assert qualities == sorted(qualities, reverse=True)
        assert ladder[len(ladder) - 1].frame_stride > 1

    def test_stride_admission(self):
        tier = QualityTier("skip", "jpeg", quality=30, frame_stride=3)
        admitted = [fid for fid in range(9) if tier.admits(fid)]
        assert admitted == [0, 3, 6]

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            TierLadder(())
        with pytest.raises(ValueError):
            TierLadder((QualityTier("a", "raw"), QualityTier("a", "lzo")))
        with pytest.raises(ValueError):
            QualityTier("bad", "raw", frame_stride=0)

    def test_clamp_and_index(self):
        ladder = LOSSLESS_LADDER
        assert ladder.clamp(-3) == 0
        assert ladder.clamp(99) == len(ladder) - 1
        assert ladder.index_of("lite") == 1
        with pytest.raises(KeyError):
            ladder.index_of("nope")


class TestController:
    def test_step_down_needs_consecutive_drops(self):
        c = AdaptiveQualityController(step_down_after=2, step_up_after=4)
        assert c.on_dropped() == 0
        assert c.on_ack() == 0  # streak broken
        assert c.on_dropped() == 0
        assert c.on_dropped() == +1  # two in a row

    def test_step_up_after_clean_streak(self):
        c = AdaptiveQualityController(step_down_after=2, step_up_after=3)
        assert [c.on_ack() for _ in range(3)] == [0, 0, -1]
        # streak counter reset: three more needed for the next step
        assert [c.on_ack() for _ in range(3)] == [0, 0, -1]


def _paced_publish(broker, frames, names=None):
    """Publish a sequence, draining between frames so healthy viewers
    never exhaust credits (a paced render loop, not a burst)."""
    for fid, image in enumerate(frames):
        broker.publish(image, time_step=fid, frame_id=fid)
        assert broker.drain(timeout=5.0, names=names)


class _Consumer:
    """Background viewer draining every frame it is sent."""

    def __init__(self, handle):
        self.handle = handle
        self.frames = []
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while not self._stop.is_set():
            try:
                self.frames.append(self.handle.next_frame(timeout=0.2))
            except TimeoutError:
                continue
            except ConnectionError:
                return

    def stop(self):
        self._stop.set()
        self.thread.join(timeout=5.0)


class TestBroker:
    def test_single_viewer_lossless_roundtrip(self):
        frames = synthetic_frames(4, size=32)
        with SessionBroker(ladder=LOSSLESS_LADDER) as broker:
            handle = broker.join("v0")
            got = []
            for fid, image in enumerate(frames):
                broker.publish(image, time_step=fid, frame_id=fid)
                got.append(handle.next_frame(timeout=5.0))
            for frame, image in zip(got, frames):
                assert frame.codec == "lzo"
                assert np.array_equal(frame.image, image)
            assert [f.frame_id for f in got] == [0, 1, 2, 3]
            handle.leave()

    def test_session_stats_report_the_decode_cache(self):
        """A decoding viewer's stats carry its decode-table cache's bytes
        beside its hit ratio; replaying the same frames hits it."""
        frames = synthetic_frames(3, size=32)
        with SessionBroker(ladder=JPEG_LADDER) as broker:
            handle = broker.join("v0")
            for fid, image in enumerate(frames + frames):
                broker.publish(image, time_step=fid % 3, frame_id=fid)
                assert handle.next_frame(timeout=5.0).image is not None
            assert broker.drain(timeout=5.0)  # the reporting acks landed
            stats = broker.stats().sessions["v0"]
            ctx = handle.codec_context
            assert stats.decode_cache_bytes == ctx.code_bytes > 0
            assert stats.decode_context_hit_ratio == ctx.hit_ratio() > 0
            handle.leave()

    def test_encode_work_independent_of_viewer_count(self):
        """One rendered sequence, 1 vs 16 viewers: same encode total,
        and 16 viewers make the shared cache hit >= 80%."""
        frames = synthetic_frames(8, size=32)
        encode_totals = {}
        for n_viewers in (1, 16):
            with SessionBroker(ladder=LOSSLESS_LADDER, credit_limit=16) as broker:
                consumers = [
                    _Consumer(broker.join(f"v{i}")) for i in range(n_viewers)
                ]
                _paced_publish(broker, frames)
                stats = broker.stats()
                encode_totals[n_viewers] = stats.encodes
                if n_viewers == 16:
                    # first lookup of each frame misses, 15 viewers hit
                    assert stats.cache_hit_ratio >= 0.8
                    assert stats.total_frames_sent == 16 * len(frames)
                for c in consumers:
                    c.stop()
        assert encode_totals[1] == encode_totals[16] == len(frames)

    def test_slow_viewer_steps_down_without_hurting_fast(self):
        frames = synthetic_frames(20, size=32)
        with SessionBroker(
            ladder=LOSSLESS_LADDER,
            credit_limit=2,
            step_down_after=2,
            step_up_after=1000,  # no promotion during this test
        ) as broker:
            fast = _Consumer(broker.join("fast"))
            slow_handle = broker.join("slow")  # never consumes
            _paced_publish(broker, frames, names=["fast"])
            stats = broker.stats()
            # the fast viewer's frame rate is untouched by the slow one
            assert stats.sessions["fast"].frames_sent == len(frames)
            assert stats.sessions["fast"].frames_dropped == 0
            assert stats.sessions["fast"].tier == "full"
            # the slow one ran out of credits, dropped, and was demoted
            slow = stats.sessions["slow"]
            assert slow.frames_dropped > 0
            assert slow.tier != "full"
            assert len(slow.transitions) >= 1
            assert slow.transitions[0].reason == "congestion"
            fast.stop()
            slow_handle.leave()

    def test_demoted_viewer_recovers_tier(self):
        frames = synthetic_frames(30, size=32)
        with SessionBroker(
            ladder=LOSSLESS_LADDER,
            credit_limit=1,
            step_down_after=1,
            step_up_after=4,
        ) as broker:
            handle = broker.join("v0")
            # burst with nobody consuming: immediate demotion
            for fid in range(4):
                broker.publish(frames[fid], time_step=fid, frame_id=fid)
            wait_until(
                lambda: broker.stats().sessions["v0"].transitions,
                timeout=5, message="burst never demoted the viewer",
            )
            # now consume everything: acks stream back, tier recovers
            consumer = _Consumer(handle)
            for fid in range(4, 30):
                broker.publish(frames[fid], time_step=fid, frame_id=fid)
                broker.drain(timeout=5.0)
            wait_until(
                lambda: broker.stats().sessions["v0"].tier == "full",
                timeout=5, message="viewer never promoted back",
            )
            reasons = {t.reason for t in broker.stats().sessions["v0"].transitions}
            assert "recovered" in reasons
            consumer.stop()

    def test_seek_replays_recent_history_from_cache(self):
        frames = synthetic_frames(10, size=32)
        with SessionBroker(ladder=LOSSLESS_LADDER, credit_limit=16) as broker:
            viewer = _Consumer(broker.join("v0"))
            _paced_publish(broker, frames)
            encodes_before = broker.stats().encodes
            late = broker.join("late")
            late.seek(6)
            got = [late.next_frame(timeout=5.0) for _ in range(4)]
            assert [f.frame_id for f in got] == [6, 7, 8, 9]
            assert np.array_equal(got[0].image, frames[6])
            # the replay came straight out of the shared cache
            assert broker.stats().encodes == encodes_before
            viewer.stop()
            late.leave()

    def test_leave_preserves_stats_and_frees_session(self):
        frames = synthetic_frames(3, size=32)
        with SessionBroker(ladder=LOSSLESS_LADDER) as broker:
            handle = broker.join("v0")
            consumer = _Consumer(handle)
            _paced_publish(broker, frames)
            consumer.stop()
            handle.leave()
            wait_until(lambda: "v0" not in broker.sessions(), timeout=5,
                       message="departed session never reaped")
            stats = broker.stats()
            assert stats.sessions["v0"].frames_sent == 3
            assert not stats.sessions["v0"].active
            # the name is reusable after departure
            broker.join("v0").leave()

    def test_join_after_close_raises(self):
        broker = SessionBroker()
        broker.close()
        with pytest.raises(RuntimeError):
            broker.join()
        with pytest.raises(RuntimeError):
            broker.publish(np.zeros((4, 4, 3), dtype=np.uint8))
        for kind in SURFACES:
            with join_surface(kind) as (target, _):
                target.close()
                with pytest.raises(RuntimeError):
                    target.join("late")

    def test_duplicate_name_rejected(self):
        for kind in SURFACES:
            with join_surface(kind) as (target, _):
                target.join("dup")
                with pytest.raises(ValueError):
                    target.join("dup")

    def test_stride_tier_skips_frames(self):
        frames = synthetic_frames(6, size=32)
        with SessionBroker(ladder=LOSSLESS_LADDER) as broker:
            handle = broker.join("v0")
            (session,) = broker._host.live()
            session.tier_index = 2  # "skip", stride 2
            consumer = _Consumer(handle)
            _paced_publish(broker, frames)
            stats = broker.stats()
            assert stats.sessions["v0"].frames_sent == 3  # fids 0, 2, 4
            assert stats.sessions["v0"].frames_skipped == 3
            consumer.stop()

    def test_stats_summary_renders(self):
        with SessionBroker() as broker:
            broker.join("v0")
            broker.publish(synthetic_frames(1, size=32)[0])
            text = broker.stats().summary()
        assert "v0" in text
        assert "cache hit ratio" in text

    def test_tier_notification_reaches_viewer(self):
        frames = synthetic_frames(6, size=32)
        with SessionBroker(
            ladder=LOSSLESS_LADDER, credit_limit=1, step_down_after=1
        ) as broker:
            handle = broker.join("v0")  # not consuming yet: demotion
            for fid in range(4):
                broker.publish(frames[fid], time_step=fid, frame_id=fid)
            wait_until(
                lambda: broker.stats().sessions["v0"].transitions,
                timeout=5, message="burst never demoted the viewer",
            )
            # the queued tier control message is seen while consuming
            handle.next_frame(timeout=5.0)

            def saw_tier():
                if handle.current_tier is not None:
                    return True
                try:
                    handle.next_frame(timeout=0.2)
                except TimeoutError:
                    pass
                return handle.current_tier is not None

            wait_until(saw_tier, timeout=5,
                       message="tier notification never reached the viewer")
            assert handle.current_tier in ("lite", "skip")
            handle.leave()
