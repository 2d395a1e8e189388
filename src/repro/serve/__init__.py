"""The serving layer: one renderer stream, many adaptive viewers.

A new subsystem layered over the §4.1 daemon/transport stack for the
"many viewers over a WAN" regime.  The pieces:

- :class:`~repro.serve.broker.SessionBroker` — fan-out publishing and
  history replay (seek, resume);
- :class:`~repro.serve.host.SessionHost` — viewer membership, once for
  the broker and the edge relay: admission, the per-session control
  pump, park-and-resume across an unclean cut, the close sweep;
- :class:`~repro.serve.cache.FrameCache` — content-addressed encoded
  frames keyed ``(frame_id, codec, quality)`` with LRU + byte-budget
  eviction, so one encode serves every viewer at a tier;
- :class:`~repro.serve.tiers.TierLadder` /
  :class:`~repro.serve.session.AdaptiveQualityController` — per-viewer
  quality adaptation (full two-phase JPEG → cheaper JPEG → frame
  skipping) driven by credit-based backpressure instead of blind
  broadcast;
- :class:`~repro.serve.stats.ServeStats` — the operator surface:
  per-session sent/dropped/bytes, cache hit ratio, tier transitions;
- :class:`~repro.serve.shard.SessionRouter` /
  :class:`~repro.serve.encode_pool.EncodePool` — the scale-out layer:
  N broker shards behind consistent-hash session routing, with cold
  encodes on a shared-memory multi-process worker pool.

Session routing hashes on the one ring, :mod:`repro.net.hashring`.  The
scenario harnesses that drive this layer end to end (fan-out sweep,
fault grid) live above both tiers in :mod:`repro.scenario`.
"""

from repro.serve.broker import SessionBroker
from repro.serve.cache import FrameCache
from repro.serve.encode_pool import EncodeFailed, EncodePool
from repro.serve.host import SessionHost
from repro.serve.shard import SessionRouter, shard_for
from repro.serve.session import (
    AdaptiveQualityController,
    FrameDecodeError,
    ServedFrame,
    Session,
    ViewerHandle,
    ViewerSession,
    rejoin,
)
from repro.serve.stats import ServeStats, SessionStats, TierTransition
from repro.serve.tiers import QualityTier, TierLadder, default_ladder

__all__ = [
    "SessionBroker",
    "SessionHost",
    "SessionRouter",
    "shard_for",
    "EncodePool",
    "EncodeFailed",
    "FrameCache",
    "QualityTier",
    "TierLadder",
    "default_ladder",
    "AdaptiveQualityController",
    "Session",
    "ViewerSession",
    "ViewerHandle",
    "rejoin",
    "ServedFrame",
    "FrameDecodeError",
    "ServeStats",
    "SessionStats",
    "TierTransition",
]
