"""Network substrate: links, routes, and the X-Window display baseline.

Two halves:

- *functional*: :mod:`repro.net.transport` carries real framed bytes
  between daemon components in-process (threads + queues), recording
  traffic so experiments can attribute costs afterwards, and
  :mod:`repro.net.faults` makes any such link WAN-shaped (latency,
  jitter, loss, corruption, disconnects) from a seeded
  :class:`~repro.net.faults.FaultPlan`;
- *timing*: :mod:`repro.net.link` wraps a
  :class:`~repro.sim.cluster.WanRoute` as a contended simulation
  resource, and :mod:`repro.net.xdisplay` models the paper's baseline of
  displaying frames remotely through X.
"""

from repro.net.faults import (
    FaultInjector,
    FaultPlan,
    FaultyConnection,
)
from repro.net.link import SimLink
from repro.net.topology import ROUTES, get_route, lan_route
from repro.net.transport import (
    Channel,
    ChannelClosed,
    FramedConnection,
    RetryPolicy,
    SizeWindow,
    TrafficLog,
)
from repro.net.xdisplay import XDisplayModel

__all__ = [
    "SimLink",
    "ROUTES",
    "get_route",
    "lan_route",
    "Channel",
    "ChannelClosed",
    "FramedConnection",
    "RetryPolicy",
    "TrafficLog",
    "SizeWindow",
    "XDisplayModel",
    "FaultPlan",
    "FaultInjector",
    "FaultyConnection",
]
