"""Sharded serving: N independent broker shards behind a session router.

One :class:`~repro.serve.broker.SessionBroker` serializes every session
pump, every delivery, and (without an encode pool) every cold encode
behind one set of locks in one process — the BENCH_serve warm numbers
*degrade* as viewers grow.  This module applies the Distributed
FrameBuffer's split — **static ownership, dynamic aggregation** — to
sessions instead of tiles:

- *static ownership*: a session name hashes onto exactly one broker
  shard via the one consistent-hash ring,
  :class:`~repro.net.hashring.HashRing` (the ring the relay tier chunks
  frame ranges over).  All of that session's join/leave/seek/ack
  traffic only ever touches its owning shard's locks, and a
  reconnect-with-resume re-routes to the same shard — where the parked
  resume state lives — by construction.
- *dynamic aggregation*: stats are merged on demand from per-shard
  atomic snapshots (:meth:`~repro.serve.stats.ServeStats.merge`);
  nothing global is maintained on the hot path.

Publishing fans out through one pump thread per shard, so per-viewer
delivery work happens on the shard pumps, not serially on the
publisher's thread.  Cold encodes go to the shared
:class:`~repro.serve.encode_pool.EncodePool` (when configured), whose
request coalescing keeps encode work at one per (frame, tier) even
though each shard fills its own :class:`~repro.serve.cache.FrameCache`.

Edge relays (:mod:`repro.relay`) need no changes: a relay joins the
router exactly like a viewer and lands on the shard owning its name.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

from repro.devtools.guards import guarded_by
from repro.net.hashring import HashRing
from repro.serve.broker import SessionBroker
from repro.serve.encode_pool import EncodePool
from repro.serve.session import ViewerHandle
from repro.serve.stats import ServeStats

__all__ = ["SessionRouter", "shard_for"]

#: frames a shard's publish pump may hold before ``publish`` blocks
PUBLISH_QUEUE = 8


def shard_for(session_name: str, shard_names, vnodes: int = 64) -> str:
    """Pure routing function: which of ``shard_names`` owns the session.

    Deterministic across processes and runs (blake2b over stable
    strings), and consistent: changing the shard set only moves the
    sessions whose owner left or arrived.
    """
    owner = HashRing(shard_names, vnodes=vnodes).owner_of(
        f"session:{session_name}"
    )
    if owner is None:
        raise ValueError("shard_for needs at least one shard name")
    return owner


class _ShardPump:
    """One publish pump: feeds frames to one shard off the caller thread."""

    def __init__(self, broker: SessionBroker):
        self.broker = broker
        self._queue: queue.Queue = queue.Queue(maxsize=PUBLISH_QUEUE)
        self._cond = threading.Condition()
        self._pending = 0  # guarded-by: _cond
        #: publishes refused because the shard closed underneath us
        self.rejected = 0  # guarded-by: _cond
        self._thread = threading.Thread(
            target=self._run, name=f"pump-{broker.name}", daemon=True
        )
        self._thread.start()

    def submit(self, frame_id: int, time_step: int, image) -> None:
        with self._cond:
            self._pending += 1
        self._queue.put((frame_id, time_step, image))

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            frame_id, time_step, image = item
            try:
                self.broker.publish(
                    image, time_step=time_step, frame_id=frame_id
                )
            except RuntimeError:  # shard closed mid-publish: counted
                with self._cond:
                    self.rejected += 1
            finally:
                with self._cond:
                    self._pending -= 1
                    self._cond.notify_all()

    def flush(self, timeout: float) -> bool:
        """Wait until every submitted frame reached the shard's sessions."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._pending > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def stop(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=5.0)


class SessionRouter:
    """N broker shards behind consistent-hash session routing.

    Drop-in for the broker surface the rest of the repo consumes —
    ``join``/``leave``/``publish``/``seek`` (via handles)/``drain``/
    ``stats``/``close`` — so the fault harness, the relay tier, and the
    CLI run unchanged at any shard count.

    Parameters
    ----------
    shards:
        Broker shard count (1 is a valid degenerate router).
    encode_workers:
        Size of the shared multi-process encode pool; 0 keeps cold
        encodes in-process (each shard's own threads).
    encode_pool:
        Bring-your-own pool (the router then does not own/close it).
    vnodes:
        Virtual nodes per shard on the routing ring.
    broker_kwargs:
        Forwarded to every :class:`SessionBroker` shard (ladder,
        cache_bytes, credit_limit, hysteresis, history_frames).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        encode_workers: int = 0,
        encode_pool: EncodePool | None = None,
        vnodes: int = 64,
        **broker_kwargs,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.encode_pool = encode_pool
        self._owns_pool = False
        if encode_pool is None and encode_workers > 0:
            self.encode_pool = EncodePool(encode_workers)
            self._owns_pool = True
        self._shard_names = tuple(f"shard{i}" for i in range(shards))
        self._brokers = {
            name: SessionBroker(
                name=name, encode_pool=self.encode_pool, **broker_kwargs
            )
            for name in self._shard_names
        }
        self._ring = HashRing(self._shard_names, vnodes=vnodes)
        # a single shard gains nothing from a publish pump (there is no
        # cross-shard fan-out to parallelize) and would pay one queue
        # handoff per frame: the degenerate router publishes inline,
        # keeping its throughput identical to a bare SessionBroker
        self._pumps = (
            {
                name: _ShardPump(broker)
                for name, broker in self._brokers.items()
            }
            if shards > 1
            else {}
        )
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._session_counter = 0  # guarded-by: _lock
        self._frame_counter = 0  # guarded-by: _lock

    # -- routing -------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shard_names)

    def shard_names(self) -> tuple[str, ...]:
        return self._shard_names

    def shard_of(self, session_name: str) -> str:
        """The shard owning ``session_name`` (stable across rejoins)."""
        return self._ring.owner_of(f"session:{session_name}")

    def shard(self, shard_name: str) -> SessionBroker:
        return self._brokers[shard_name]

    # -- broker surface ------------------------------------------------------

    def join(self, name: str | None = None, **kwargs) -> ViewerHandle:
        """Admit a viewer on its owning shard (resume included: the
        rejoin hashes to the shard holding the parked resume state)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("join() on a closed SessionRouter")
            if name is None:
                name = f"viewer{self._session_counter}"
            self._session_counter += 1
        return self._brokers[self.shard_of(name)].join(name, **kwargs)

    def leave(self, name: str, **kwargs) -> None:
        self._brokers[self.shard_of(name)].leave(name, **kwargs)

    def sessions(self) -> list[str]:
        names: list[str] = []
        for broker in self._brokers.values():
            names.extend(broker.sessions())
        return sorted(names)

    def publish(
        self,
        image: np.ndarray,
        time_step: int = 0,
        frame_id: int | None = None,
    ) -> int:
        """Offer one frame to every shard's sessions; returns its id.

        The router allocates the frame id (so ids agree across shards)
        and enqueues onto each shard pump; delivery happens on the pump
        threads.  Backpressure is the bounded pump queue — a shard
        whose sessions are slow makes ``publish`` wait on that shard's
        queue, never on any viewer (credit drops still apply per
        session, exactly as in the single broker).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("publish() on a closed SessionRouter")
            if frame_id is None:
                frame_id = self._frame_counter
            self._frame_counter = max(self._frame_counter, frame_id + 1)
        if not self._pumps:  # single shard: no fan-out, publish inline
            for broker in self._brokers.values():
                broker.publish(image, time_step=time_step, frame_id=frame_id)
            return frame_id
        for pump in self._pumps.values():
            pump.submit(frame_id, time_step, image)
        return frame_id

    def drain(self, timeout: float = 5.0, names: list[str] | None = None) -> bool:
        """Flush the shard pumps, then drain every shard's sessions."""
        deadline = time.monotonic() + timeout
        ok = True
        for pump in self._pumps.values():
            ok = pump.flush(max(deadline - time.monotonic(), 0.0)) and ok
        for broker in self._brokers.values():
            remaining = max(deadline - time.monotonic(), 0.001)
            ok = broker.drain(timeout=remaining, names=names) and ok
        return ok

    # -- observability -------------------------------------------------------

    def stats(self) -> ServeStats:
        """Merged view built from per-shard atomic snapshots.

        Each shard's :meth:`SessionBroker.stats` copies its counters
        under the shard's own locks; the merge never reads a live field
        bare, so the aggregate is as torn-read-free as the shards.
        """
        return ServeStats.merge(
            [broker.stats() for broker in self._brokers.values()]
        )

    def shard_stats(self) -> dict[str, ServeStats]:
        """Per-shard snapshots keyed by shard name (ownership audit)."""
        return {
            name: broker.stats() for name, broker in self._brokers.items()
        }

    # -- lifecycle -----------------------------------------------------------

    @guarded_by("_lock")
    def _mark_closed_locked(self) -> bool:
        if self._closed:
            return False
        self._closed = True
        return True

    def close(self) -> None:
        with self._lock:
            first = self._mark_closed_locked()
        if not first:
            return
        for pump in self._pumps.values():
            pump.stop()
        for broker in self._brokers.values():
            broker.close()
        if self._owns_pool and self.encode_pool is not None:
            self.encode_pool.close()

    def __enter__(self) -> "SessionRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SessionRouter {self.n_shards} shards "
            f"pool={'yes' if self.encode_pool else 'no'}>"
        )
