"""Consistent-hash ownership of frame ranges across a relay set.

The Distributed FrameBuffer's split — *static ownership, dynamic
aggregation* — applied to the time axis: the playback timeline is cut
into fixed-size chunks of consecutive frame ids, and each chunk has
exactly one owning relay.  The owner is the relay that fetches the
chunk from the origin (and prefetches ahead inside it); every other
relay pulls those frames from the owner instead of the origin, so a
frame crosses the origin's WAN uplink once per relay *set*, not once
per relay.

Ownership comes from the one consistent-hash ring,
:class:`~repro.net.hashring.HashRing` (the same ring the session router
shards on): when a relay dies and is removed, only the chunks it owned
move — the surviving relays' assignments are untouched, which is what
keeps a mid-stream failover from re-fetching the whole timeline.  This
module adds only the chunking: which key a frame id hashes under.
"""

from __future__ import annotations

from repro.net.hashring import HashRing

__all__ = ["RelayRing"]


class RelayRing(HashRing):
    """Maps frame-id chunks to owning relay names, consistently."""

    def __init__(
        self,
        relays=(),
        *,
        chunk_frames: int = 16,
        vnodes: int = 32,
    ):
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        self.chunk_frames = chunk_frames
        super().__init__(relays, vnodes=vnodes)

    relays = HashRing.names

    def chunk_of(self, frame_id: int) -> int:
        return frame_id // self.chunk_frames

    def owner(self, frame_id: int) -> str | None:
        """The relay owning ``frame_id``'s chunk (``None`` on an empty
        ring — every relay then falls back to the origin)."""
        return self.owner_of(f"chunk:{self.chunk_of(frame_id)}")

    def owned_chunks(self, name: str, n_frames: int) -> list[int]:
        """Chunk indices of ``[0, n_frames)`` that ``name`` owns."""
        last_chunk = self.chunk_of(max(n_frames - 1, 0))
        return [
            c
            for c in range(last_chunk + 1)
            if self.owner(c * self.chunk_frames) == name
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RelayRing {len(self)} relays chunk={self.chunk_frames} "
            f"vnodes={self.vnodes}>"
        )
