"""FrameRelay unit tests: fan-out, local replay, pull mode, peer fetch.

Each scenario stands up a real origin broker and drives real frames
through in-memory framed connections — the relay is a byte forwarder,
so these tests also pin down that payloads survive the store round trip
bit-exactly (viewers decode them)."""

import time

import pytest

from repro.relay import FrameRelay, RelayRing
from repro.scenario import synthetic_frames
from repro.serve.broker import SessionBroker

N_FRAMES = 12
SIZE = 16


def publish_all(broker, n=N_FRAMES, size=SIZE):
    for fid, image in enumerate(synthetic_frames(n, size=size)):
        broker.publish(image, time_step=fid, frame_id=fid)


def consume(handle, n, timeout=10.0):
    """Read ``n`` frames; returns their ids in arrival order."""
    ids = []
    deadline = time.monotonic() + timeout
    while len(ids) < n and time.monotonic() < deadline:
        try:
            frame = handle.next_frame(timeout=0.25)
        except TimeoutError:
            continue
        ids.append(frame.frame_id)
    return ids


class TestFanout:
    def test_live_stream_fans_to_many_viewers_one_upstream(self):
        with SessionBroker() as broker, FrameRelay("edge", broker) as relay:
            a = relay.join("a")
            b = relay.join("b")
            publish_all(broker)
            assert consume(a, N_FRAMES) == list(range(N_FRAMES))
            assert consume(b, N_FRAMES) == list(range(N_FRAMES))
            assert relay.drain(timeout=5.0)
            snap = relay.stats_snapshot()
            # the frame crossed the WAN once, was served twice
            assert snap.origin_frames == N_FRAMES
            assert snap.frames_served == 2 * N_FRAMES
            assert snap.offload_ratio == pytest.approx(0.5)
            a.leave()
            b.leave()

    def test_viewers_see_decodable_payloads(self):
        with SessionBroker() as broker, FrameRelay("edge", broker) as relay:
            handle = relay.join()
            publish_all(broker, n=3)
            deadline = time.monotonic() + 10.0
            images = []
            while len(images) < 3 and time.monotonic() < deadline:
                try:
                    images.append(handle.next_frame(timeout=0.25).image)
                except TimeoutError:
                    continue
            assert len(images) == 3
            assert all(img.shape[:2] == (SIZE, SIZE) for img in images)
            handle.leave()


class TestLocalReplay:
    def test_seek_is_served_from_the_store_not_the_origin(self):
        with SessionBroker() as broker, FrameRelay("edge", broker) as relay:
            handle = relay.join("looper")
            publish_all(broker)
            assert consume(handle, N_FRAMES) == list(range(N_FRAMES))
            origin_before = relay.stats_snapshot().origin_frames
            handle.seek(0)
            assert consume(handle, N_FRAMES) == list(range(N_FRAMES))
            snap = relay.stats_snapshot()
            assert snap.origin_frames == origin_before  # zero WAN cost
            assert snap.frames_served == 2 * N_FRAMES
            assert snap.store_hits >= N_FRAMES
            handle.leave()

    def test_resume_from_starts_midway_no_dup_no_skip(self):
        with SessionBroker() as broker, FrameRelay("edge", broker) as relay:
            warm = relay.join("warm")
            publish_all(broker)
            assert consume(warm, N_FRAMES) == list(range(N_FRAMES))
            late = relay.join("late", resume_from=5)
            assert late.resumed
            assert consume(late, N_FRAMES - 5) == list(range(5, N_FRAMES))
            warm.leave()
            late.leave()


class TestPullMode:
    def test_pull_session_is_paused_until_seek(self):
        with SessionBroker() as broker, FrameRelay("edge", broker) as relay:
            handle = relay.join("peer:test", mode="pull")
            publish_all(broker)
            # a follow viewer proves the stream is flowing...
            probe = relay.join("probe")
            assert consume(probe, N_FRAMES) == list(range(N_FRAMES))
            # ...while the pull session stays silent
            with pytest.raises(TimeoutError):
                handle.next_frame(timeout=0.2)
            handle.seek(4)
            assert consume(handle, N_FRAMES - 4) == list(range(4, N_FRAMES))
            # one burst only: paused again after reaching the seek head
            with pytest.raises(TimeoutError):
                handle.next_frame(timeout=0.2)
            probe.leave()
            handle.leave()


class TestPeerFetch:
    def test_cold_relay_pulls_owned_frames_from_peer_not_origin(self):
        ring = RelayRing(["warm"])  # every chunk owned by the warm relay
        with SessionBroker() as broker:
            warm = FrameRelay("warm", broker, ring=ring)
            probe = warm.join("probe")
            publish_all(broker)
            assert consume(probe, N_FRAMES) == list(range(N_FRAMES))
            probe.leave()
            # joins after the stream ended: its upstream session never
            # sees a live frame, so everything must come from the peer
            cold = FrameRelay("cold", broker, ring=ring)
            cold.connect_peer(warm)
            viewer = cold.join("viewer")
            assert consume(viewer, N_FRAMES) == list(range(N_FRAMES))
            snap = cold.stats_snapshot()
            assert snap.peer_frames >= N_FRAMES
            assert snap.origin_frames == 0
            viewer.leave()
            cold.close()
            warm.close()


class TestMembership:
    def test_duplicate_active_name_rejected(self):
        with SessionBroker() as broker, FrameRelay("edge", broker) as relay:
            handle = relay.join("dup")
            with pytest.raises(ValueError):
                relay.join("dup")
            handle.leave()

    def test_join_after_close_raises(self):
        broker = SessionBroker()
        relay = FrameRelay("edge", broker)
        relay.close()
        with pytest.raises(RuntimeError):
            relay.join("x")
        broker.close()

    def test_invalid_mode_rejected(self):
        with SessionBroker() as broker, FrameRelay("edge", broker) as relay:
            with pytest.raises(ValueError):
                relay.join("x", mode="push")


class TestStats:
    def test_snapshot_and_summary(self):
        with SessionBroker() as broker, FrameRelay("edge", broker) as relay:
            handle = relay.join("v")
            publish_all(broker, n=4)
            assert consume(handle, 4) == [0, 1, 2, 3]
            assert relay.drain(timeout=5.0)  # let the acks land
            snap = relay.stats_snapshot()
            assert snap.name == "edge"
            assert snap.sessions == 1
            assert snap.store is not None
            assert snap.store.entries >= 4
            assert "v" in snap.session_stats
            assert snap.session_stats["v"].acks == 4
            text = snap.summary()
            assert "edge" in text and "offload" in text
            handle.leave()
