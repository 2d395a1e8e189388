"""The one consistent-hash ring: static ownership of keys by named nodes.

Both horizontal tiers apply the Distributed FrameBuffer's split —
*static ownership, dynamic aggregation* — and both get the ownership
half from this ring: :class:`~repro.serve.shard.SessionRouter` hashes
session names onto broker shards, :class:`~repro.relay.ring.RelayRing`
hashes frame-id chunks onto edge relays.

The construction is the classic Karger one: every node contributes
``vnodes`` points (``blake2b("{name}#{v}")``), a key belongs to the
first point clockwise of its own hash.  When a node leaves, only the
keys it owned move; when one arrives, it only takes keys, never
shuffles the others'.  Hashes are :func:`hashlib.blake2b` over stable
strings, so ownership is a pure function of (node names, key) —
deterministic across processes and runs, never seeded from a clock or
a global RNG.
"""

from __future__ import annotations

import bisect
import hashlib
import threading

__all__ = ["HashRing"]


def _hash64(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


class HashRing:
    """Maps string keys to owning node names, consistently.

    Thread-safe: relay ingest pumps look owners up while a failover
    path removes a dead peer.
    """

    def __init__(self, names=(), *, vnodes: int):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._lock = threading.Lock()
        #: sorted (point, node-name) pairs forming the ring
        self._points: list[tuple[int, str]] = []  # guarded-by: _lock
        self._names: set[str] = set()  # guarded-by: _lock
        for name in names:
            self.add(name)

    def add(self, name: str) -> None:
        with self._lock:
            if name in self._names:
                return
            self._names.add(name)
            for v in range(self.vnodes):
                self._points.append((_hash64(f"{name}#{v}"), name))
            self._points.sort()

    def remove(self, name: str) -> None:
        """Drop a node; its keys fall to the ring's survivors."""
        with self._lock:
            if name not in self._names:
                return
            self._names.discard(name)
            self._points = [p for p in self._points if p[1] != name]

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._names))

    def __len__(self) -> int:
        with self._lock:
            return len(self._names)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._names

    def owner_of(self, key: str) -> str | None:
        """The node owning ``key`` (``None`` on an empty ring)."""
        point = _hash64(key)
        with self._lock:
            if not self._points:
                return None
            index = bisect.bisect_right(self._points, (point, "\uffff"))
            if index == len(self._points):
                index = 0
            return self._points[index][1]
