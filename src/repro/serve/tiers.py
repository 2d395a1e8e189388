"""Quality tiers: the ladder a viewer session moves along under load.

The paper's display interface lets the client "instruct the system to
change the compression method"; the serving layer automates that choice
per viewer.  A :class:`QualityTier` names one operating point — codec,
JPEG quality, and a frame stride for the last-resort frame-skipping
tier — and a :class:`TierLadder` orders them from best (index 0) to
cheapest.  The adaptive controller steps a congested session down the
ladder and a healthy one back up.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QualityTier", "TierLadder", "default_ladder"]


@dataclass(frozen=True)
class QualityTier:
    """One per-viewer operating point.

    ``frame_stride`` > 1 is the frame-skipping regime: only every Nth
    published frame is offered to sessions at this tier, trading frame
    rate for staying interactive at all.
    """

    name: str
    codec: str
    quality: int | None = None
    frame_stride: int = 1

    def __post_init__(self):
        if self.frame_stride < 1:
            raise ValueError("frame_stride must be >= 1")

    def cache_key(self, frame_id: int) -> tuple[int, str, int | None]:
        """Content address of this tier's encoding of ``frame_id``."""
        return (frame_id, self.codec, self.quality)

    def admits(self, frame_id: int) -> bool:
        """Whether this tier delivers ``frame_id`` (stride filter)."""
        return frame_id % self.frame_stride == 0


class TierLadder:
    """An ordered sequence of tiers, best first.

    Immutable and shared by every session of a broker; sessions hold an
    index into it.
    """

    def __init__(self, tiers: tuple[QualityTier, ...] | list[QualityTier]):
        if not tiers:
            raise ValueError("ladder needs at least one tier")
        self._tiers = tuple(tiers)
        names = [t.name for t in self._tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")

    def __len__(self) -> int:
        return len(self._tiers)

    def __getitem__(self, index: int) -> QualityTier:
        return self._tiers[index]

    def __iter__(self):
        return iter(self._tiers)

    def clamp(self, index: int) -> int:
        return max(0, min(index, len(self._tiers) - 1))

    def index_of(self, name: str) -> int:
        for i, tier in enumerate(self._tiers):
            if tier.name == name:
                return i
        raise KeyError(f"no tier named {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TierLadder {' > '.join(t.name for t in self._tiers)}>"


def default_ladder() -> TierLadder:
    """The shipped ladder: Table 1's two-phase pair at the top, then
    progressively cheaper JPEG, then frame skipping."""
    return TierLadder(
        (
            QualityTier("full", "jpeg+lzo", quality=90),
            QualityTier("high", "jpeg", quality=75),
            QualityTier("low", "jpeg", quality=40),
            QualityTier("skip", "jpeg", quality=30, frame_stride=3),
        )
    )
