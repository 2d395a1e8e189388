"""The relay tier's observable surface.

One :class:`RelayStats` is an atomic snapshot of one relay: how much
traffic it served locally, how much it pulled over the WAN (and from
where), and how well the timeline prefetcher kept the store ahead of
the viewers.  Modeled on
:meth:`~repro.serve.cache.CacheStats <repro.serve.cache.FrameCache.stats_snapshot>`:
every counter is copied in a single critical section, so ratios
computed from one snapshot are mutually consistent even while ingest
and player threads keep mutating the live counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.cache import CacheStats
from repro.serve.stats import HostCounters, SessionStats

__all__ = ["RelayCounters", "RelayStats"]


@dataclass
class RelayCounters(HostCounters):
    """One relay's live counters, each named here and nowhere else: the
    relay (and its session host, for the inherited three) bumps them
    under the relay lock; a snapshot copies the record once.
    ``malformed`` and ``unknown_controls`` cover every relay link —
    upstream, peer and downstream."""

    #: frames delivered to local downstream sessions (viewers + peers)
    frames_served: int = 0
    #: of those, served straight from the local store (no wait)
    store_hits: int = 0
    #: served only after waiting for an upstream/peer fill
    store_waits: int = 0
    #: deliveries abandoned after the fetch deadline (counted, never
    #: silently skipped)
    frames_unavailable: int = 0
    #: frames that arrived over this relay's upstream links, by source
    origin_frames: int = 0
    peer_frames: int = 0
    #: on-demand seeks sent upstream or to peers for a blocked delivery
    fetch_requests: int = 0
    #: speculative seeks issued by the timeline prefetcher
    prefetch_issued: int = 0
    #: ingested frames the prefetcher had requested ahead of any player
    prefetch_fills: int = 0
    #: gap announcements absorbed from upstream (resume past the
    #: broker's retained window); players skip the ranges they cover
    upstream_gaps: int = 0
    #: times the upstream link died and was re-established with resume
    upstream_reconnects: int = 0
    #: fetches re-routed to the origin because the owning peer was dead
    peer_failovers: int = 0


@dataclass(kw_only=True)
class RelayStats(RelayCounters):
    """An atomic snapshot of one relay: a copy of its counters plus
    what was live at that moment."""

    name: str
    #: live downstream sessions at snapshot time
    sessions: int = 0
    #: the content-addressed store's own atomic snapshot
    store: CacheStats | None = None
    #: per-downstream-session delivery counters
    session_stats: dict[str, SessionStats] = field(default_factory=dict)

    @property
    def offload_ratio(self) -> float:
        """Fraction of served frames that did *not* cost an origin
        transfer: ``1 - origin_frames / frames_served``.  The relay
        tier's headline number — 0.9 means ten viewer-frames per WAN
        frame."""
        if not self.frames_served:
            return 0.0
        return max(0.0, 1.0 - self.origin_frames / self.frames_served)

    @property
    def store_hit_ratio(self) -> float:
        total = self.store_hits + self.store_waits + self.frames_unavailable
        return self.store_hits / total if total else 0.0

    def summary(self) -> str:
        """A one-relay operator report (the CLI prints this)."""
        store = self.store
        lines = [
            f"relay {self.name}: served {self.frames_served} frames "
            f"({self.store_hit_ratio * 100:.1f}% straight from store, "
            f"offload {self.offload_ratio * 100:.1f}%)",
            f"  upstream: {self.origin_frames} origin + {self.peer_frames} "
            f"peer frames in; {self.fetch_requests} demand fetches, "
            f"{self.prefetch_issued} prefetch seeks "
            f"({self.prefetch_fills} filled ahead of need)",
            f"  sessions: {self.sessions} live, {self.resumes} resumes, "
            f"{self.upstream_reconnects} upstream reconnects, "
            f"{self.peer_failovers} peer failovers",
        ]
        if store is not None:
            lines.append(
                f"  store: {store.entries} entries "
                f"{store.current_bytes}/{store.max_bytes} B, "
                f"{store.pinned_entries} pinned, "
                f"{store.evictions} evictions, "
                f"{store.speculative_rejects} speculative rejects"
            )
        return "\n".join(lines)
