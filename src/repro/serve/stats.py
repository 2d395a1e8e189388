"""The serving layer's observable surface.

Per-session delivery counters, cache effectiveness, and every tier
transition the adaptive controller made — the numbers an operator needs
to answer "is the fan-out actually sharing work?" and "which viewers are
being stepped down?".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

__all__ = [
    "SessionStats",
    "TierTransition",
    "HostCounters",
    "ServeCounters",
    "ServeStats",
]


@dataclass(frozen=True)
class TierTransition:
    """One adaptive step of one session."""

    frame_id: int
    from_tier: str
    to_tier: str
    reason: str  # "congestion" or "recovered"


@dataclass
class SessionStats:
    """Delivery counters for one viewer session."""

    name: str
    tier: str = ""
    frames_sent: int = 0
    frames_dropped: int = 0
    frames_skipped: int = 0  # stride-filtered, deliberate
    bytes_sent: int = 0
    acks: int = 0
    transitions: list[TierTransition] = field(default_factory=list)
    decode_context_hit_ratio: float = 0.0
    #: bytes the viewer's decode-table cache holds (CodecContext.code_bytes)
    decode_cache_bytes: int = 0
    active: bool = True
    #: times this logical session reconnected and resumed its stream
    reconnects: int = 0

    def copy(self, **overrides) -> "SessionStats":
        """An independent snapshot of these counters.

        The ``transitions`` list is copied, so a snapshot taken under
        the session lock stays frozen while the live record keeps
        accumulating.  ``overrides`` replace individual fields.
        """
        overrides.setdefault("transitions", list(self.transitions))
        return replace(self, **overrides)


@dataclass
class HostCounters:
    """What a :class:`~repro.serve.host.SessionHost` counts, for either
    tier.  A live record: its owner (and the host, which shares the
    owner's lock) bumps the fields under that lock and copies them out
    once per snapshot."""

    #: traffic dropped for being malformed (undecodable bytes, a
    #: non-control message from a viewer, a bad or missing frame_id)
    malformed: int = 0
    #: well-formed controls with a tag nobody here handles
    #: (version-skewed or misbehaving peers)
    unknown_controls: int = 0
    #: admissions that continued an earlier stream (same name rejoining
    #: after an unclean cut, or a client bringing ``resume_from``)
    resumes: int = 0


@dataclass
class ServeCounters(HostCounters):
    """The broker's live counters (``encodes`` is not here: it is bumped
    under the encode lock, not the broker lock)."""

    frames_published: int = 0
    #: resumes whose start point fell off the retained history window —
    #: the viewer was sent an explicit ``gap`` signal
    resume_gaps: int = 0


@dataclass
class ServeStats:
    """A point-in-time snapshot of the whole broker.

    Built by ``SessionBroker.stats()`` entirely from atomic copies —
    session snapshots and cache counters each taken under their owning
    lock — so the numbers are mutually consistent and never alias live
    mutable state.
    """

    sessions: dict[str, SessionStats] = field(default_factory=dict)
    frames_published: int = 0
    encodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_bytes: int = 0
    cache_entries: int = 0
    #: control messages dropped because they were malformed (bad or
    #: missing frame_id, non-control traffic from a viewer)
    malformed_controls: int = 0
    #: well-formed controls with a tag the broker does not handle
    #: (version-skewed or misbehaving viewers)
    unknown_controls: int = 0
    #: sessions that reconnected and resumed from their last acked frame
    resumes: int = 0
    #: resumes that fell off the retained history window and were sent
    #: an explicit ``gap`` signal instead of a silent skip
    resume_gaps: int = 0
    #: broker shards merged into this snapshot (1 = a single broker)
    shards: int = 1

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @classmethod
    def merge(cls, snapshots: list["ServeStats"]) -> "ServeStats":
        """Aggregate per-shard snapshots into one router-wide view.

        Every input must itself be an atomic snapshot (a shard's
        ``stats()`` result) — merging live broker fields bare would
        re-introduce exactly the torn reads the snapshot path exists to
        prevent.  Counters are summed; ``frames_published`` takes the
        max because the router offers each published frame to every
        shard (a sum would multiply-count by the shard count); ratios
        are recomputed from the summed counters by the properties, so a
        shard with zero lookups can never divide the aggregate by zero.
        """
        merged = cls(shards=max(len(snapshots), 1))
        for snap in snapshots:
            merged.sessions.update(snap.sessions)
            merged.frames_published = max(
                merged.frames_published, snap.frames_published
            )
            for f in fields(cls):
                if f.name not in ("sessions", "shards", "frames_published"):
                    setattr(merged, f.name,
                            getattr(merged, f.name) + getattr(snap, f.name))
        return merged

    @property
    def total_frames_sent(self) -> int:
        return sum(s.frames_sent for s in self.sessions.values())

    @property
    def total_frames_dropped(self) -> int:
        return sum(s.frames_dropped for s in self.sessions.values())

    @property
    def total_bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.sessions.values())

    @property
    def total_transitions(self) -> int:
        return sum(len(s.transitions) for s in self.sessions.values())

    def summary(self) -> str:
        """A human-readable operator report (the CLI prints this)."""
        shard_note = f" across {self.shards} shards" if self.shards > 1 else ""
        lines = [
            f"published {self.frames_published} frames{shard_note}, "
            f"{self.encodes} encodes, cache hit ratio "
            f"{self.cache_hit_ratio * 100:.1f}% "
            f"({self.cache_entries} entries, {self.cache_bytes} B); "
            f"{self.malformed_controls} malformed / "
            f"{self.unknown_controls} unknown controls",
            f"{'session':<14}{'tier':>6}{'sent':>7}{'drop':>6}"
            f"{'skip':>6}{'bytes':>12}{'steps':>6}",
        ]
        for name in sorted(self.sessions):
            s = self.sessions[name]
            marker = "" if s.active else " (left)"
            lines.append(
                f"{name:<14}{s.tier:>6}{s.frames_sent:>7}"
                f"{s.frames_dropped:>6}{s.frames_skipped:>6}"
                f"{s.bytes_sent:>12}{len(s.transitions):>6}{marker}"
            )
        return "\n".join(lines)
