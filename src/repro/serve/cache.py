"""Content-addressed encoded-frame cache shared by all viewer sessions.

Bethel et al.'s WAN-visualization work puts a network data cache between
the producer and its consumers; this is the in-process equivalent for
encoded frames.  Entries are keyed on ``(frame_id, codec, quality)`` —
pure content addresses, never per-viewer — so N viewers at the same tier
cost one encode, and a seek back into recent history is a cache hit
instead of a re-encode.

Eviction is LRU under a byte budget: encoded payloads are small (tens of
KB) but a long session crosses unbounded frame ids, so the budget, not
an entry count, is the binding constraint.

Pinning
-------
The relay tier (:mod:`repro.relay`) shares one store between in-flight
deliveries and a speculative prefetcher, so entries carry a refcount
**pin**.  A pinned entry is never evicted: a frame mid-send or inside
the prefetcher's active window stays resident no matter how much churn
the rest of the keyspace sees.  Non-speculative fills may overshoot the
byte budget while pins block eviction (delivery correctness beats the
budget); *speculative* fills (``put(..., speculative=True)``) are the
other way around — if admitting one cannot be paid for by evicting
unpinned entries, the fill is rejected and counted instead of growing
the store, so a greedy prefetcher can never push out frames viewers are
actively holding.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.devtools.guards import guarded_by

__all__ = ["FrameCache", "CacheStats"]

CacheKey = tuple  # (frame_id, codec_name, quality)


@dataclass(frozen=True)
class CacheStats:
    """An atomic snapshot of one cache's counters.

    All fields are copied in a single critical section, so e.g.
    ``hits + misses`` is consistent with ``hit_ratio`` — reading the
    live counters one by one races the pump threads mutating them.
    """

    hits: int
    misses: int
    evictions: int
    inserts: int
    current_bytes: int
    max_bytes: int
    entries: int
    pinned_entries: int = 0
    pinned_bytes: int = 0
    speculative_rejects: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FrameCache:
    """Thread-safe LRU cache of encoded frame payloads with a byte budget."""

    def __init__(self, max_bytes: int = 64 << 20):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, bytes] = OrderedDict()  # guarded-by: _lock
        self.current_bytes = 0  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        #: number of payloads inserted (== encodes when used via get_or_encode)
        self.inserts = 0  # guarded-by: _lock
        #: per-key pin refcounts; a pinned key is never evicted
        self._pins: dict[CacheKey, int] = {}  # guarded-by: _lock
        #: speculative fills refused because admitting them would have
        #: required evicting pinned entries (or blowing the budget)
        self.speculative_rejects = 0  # guarded-by: _lock

    def get(self, key: CacheKey) -> bytes | None:
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: CacheKey, payload: bytes,
            speculative: bool = False) -> bool:
        """Insert ``payload``; returns whether it was admitted.

        A non-speculative put always lands (pins may force a temporary
        budget overshoot).  A speculative put that cannot fit after
        evicting every unpinned victim is rolled back and counted in
        ``speculative_rejects`` — prefetch fills must never displace
        pinned frames.
        """
        with self._lock:
            return self._put_locked(key, payload, speculative=speculative)

    # -- pinning -------------------------------------------------------------

    def pin(self, key: CacheKey) -> bool:
        """Take a pin on ``key`` if present; returns whether it was.

        While the refcount is nonzero the entry is exempt from LRU
        eviction.  Every successful ``pin`` must be paired with exactly
        one :meth:`unpin`.
        """
        with self._lock:
            if key not in self._entries:
                return False
            self._pins[key] = self._pins.get(key, 0) + 1
            return True

    def unpin(self, key: CacheKey) -> None:
        """Release one pin on ``key`` (raises on unbalanced unpins)."""
        with self._lock:
            count = self._pins.get(key)
            if count is None:
                raise ValueError(f"unpin of unpinned key {key!r}")
            if count <= 1:
                del self._pins[key]
            else:
                self._pins[key] = count - 1

    def get_pinned(self, key: CacheKey) -> bytes | None:
        """Atomic lookup-and-pin: the returned payload's entry cannot be
        evicted until the caller unpins it.  ``None`` on a miss (and no
        pin is taken)."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._pins[key] = self._pins.get(key, 0) + 1
            return payload

    def pin_count(self, key: CacheKey) -> int:
        with self._lock:
            return self._pins.get(key, 0)

    def get_or_encode(self, key: CacheKey, encode: Callable[[], bytes]) -> bytes:
        """Return the cached payload for ``key``, encoding at most once.

        The encode callable runs outside the lock — encoding is the
        expensive part and must not serialize unrelated lookups.  Two
        racing encoders of the same key both produce identical content
        (the key *is* the content address), so last-write-wins is safe.
        """
        payload = self.get(key)
        if payload is not None:
            return payload
        payload = encode()
        with self._lock:
            self._put_locked(key, payload)
        return payload

    @guarded_by("_lock")
    def _put_locked(self, key: CacheKey, payload: bytes,
                    speculative: bool = False) -> bool:
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= len(old)
        self._entries[key] = payload
        self.current_bytes += len(payload)
        self.inserts += 1
        self._evict_locked(protect=key)
        if (
            speculative
            and self.current_bytes > self.max_bytes
            and key not in self._pins
        ):
            # no unpinned victim can pay for this fill: roll it back
            self.current_bytes -= len(self._entries.pop(key))
            self.inserts -= 1
            if old is not None:  # restore what the fill replaced
                self._entries[key] = old
                self.current_bytes += len(old)
                self.inserts += 1
            self.speculative_rejects += 1
            return False
        return True

    @guarded_by("_lock")
    def _evict_locked(self, protect: CacheKey) -> None:
        """Evict unpinned LRU entries until under budget (or none left).

        ``protect`` (the entry just inserted) and pinned keys are
        skipped, so the loop terminates even when pins force a budget
        overshoot."""
        while self.current_bytes > self.max_bytes and len(self._entries) > 1:
            victim = next(
                (
                    k
                    for k in self._entries
                    if k != protect and k not in self._pins
                ),
                None,
            )
            if victim is None:
                return
            self.current_bytes -= len(self._entries.pop(victim))
            self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def hit_ratio(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats_snapshot(self) -> CacheStats:
        """Every counter copied in one critical section."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                inserts=self.inserts,
                current_bytes=self.current_bytes,
                max_bytes=self.max_bytes,
                entries=len(self._entries),
                pinned_entries=len(self._pins),
                pinned_bytes=sum(
                    len(self._entries[k]) for k in self._pins
                ),
                speculative_rejects=self.speculative_rejects,
            )

    def clear(self) -> None:
        """Drop every entry *and* every pin (callers must not clear
        while deliveries are mid-send — Python refcounts keep any
        already-fetched payload bytes alive, but the pins are gone)."""
        with self._lock:
            self._entries.clear()
            self._pins.clear()
            self.current_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap = self.stats_snapshot()
        return (
            f"<FrameCache {snap.entries} entries "
            f"{snap.current_bytes}/{snap.max_bytes}B "
            f"hit={snap.hit_ratio:.2f}>"
        )
