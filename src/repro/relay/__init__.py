"""WAN edge relay tier: content-addressed frame relays between the
origin :class:`~repro.serve.broker.SessionBroker` and viewer pools.

A frame crosses the wide-area link once per relay set and is then
served locally to every viewer behind it — seeks, replays and loops
never touch the origin again.  See :mod:`repro.relay.daemon` for the
relay itself, :mod:`repro.relay.ring` for frame-range ownership (chunking
over the one ring, :mod:`repro.net.hashring`), and
:mod:`repro.relay.prefetch` for the timeline lookahead.  End-to-end
scenarios (origin → relay mesh → viewer pools) are built by
:mod:`repro.scenario`, above both tiers.
"""

from repro.relay.daemon import FrameRelay, RelaySession
from repro.relay.prefetch import PrefetchPolicy, TimelinePrefetcher
from repro.relay.ring import RelayRing
from repro.relay.stats import RelayCounters, RelayStats

__all__ = [
    "FrameRelay",
    "RelaySession",
    "PrefetchPolicy",
    "TimelinePrefetcher",
    "RelayRing",
    "RelayCounters",
    "RelayStats",
]
