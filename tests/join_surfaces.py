"""The four places a viewer can join, for the one join-surface contract.

A viewer is admitted, pumped, parked, resumed and reaped by the same
:class:`~repro.serve.host.SessionHost` whether it joins a bare
:class:`SessionBroker`, a :class:`SessionRouter` of one or two shards,
or a :class:`FrameRelay` — so every membership test runs against all
four through :func:`join_surface` and reads the tier-specific stats
through :func:`surface_stats`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from repro.relay import FrameRelay
from repro.serve import QualityTier, SessionBroker, SessionRouter, TierLadder
from repro.serve.session import rejoin

SURFACES = ("broker", "router1", "router2", "relay")

#: lossless, stride-free ladder so every published frame must arrive
LOSSLESS = TierLadder((QualityTier("full", "lzo"), QualityTier("low", "rle")))


def frames(n: int, size: int = 16) -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    return [rng.integers(0, 255, (size, size, 3), dtype=np.uint8)
            for _ in range(n)]


@contextmanager
def join_surface(kind: str, **origin_kwargs):
    """``(target, origin)``: viewers join ``target``, frames are
    published on ``origin`` — the same object, except behind a relay."""
    origin_kwargs.setdefault("ladder", LOSSLESS)
    if kind == "broker" or kind == "relay":
        origin = SessionBroker(**origin_kwargs)
    else:
        origin = SessionRouter(shards=int(kind[-1]), **origin_kwargs)
    with origin:
        if kind == "relay":
            with FrameRelay("edge", origin) as relay:
                yield relay, origin
        else:
            yield origin, origin


def surface_stats(target) -> SimpleNamespace:
    """``sessions`` (by name), ``malformed``, ``unknown``, ``resumes``
    of either tier under the same names."""
    if isinstance(target, FrameRelay):
        snap = target.stats_snapshot()
        return SimpleNamespace(
            sessions=snap.session_stats, malformed=snap.malformed,
            unknown=snap.unknown_controls, resumes=snap.resumes)
    snap = target.stats()
    return SimpleNamespace(
        sessions=snap.sessions, malformed=snap.malformed_controls,
        unknown=snap.unknown_controls, resumes=snap.resumes)


def cut_and_rejoin(target, handle, resume_from: int | None):
    """Cut ``handle``'s link the unclean way and join again under the
    same name through the one rejoin policy (it waits out the reap)."""
    joined = rejoin(
        handle, [target], 0, threading.Event(),
        lambda t: t.join(handle.name, resume_from=resume_from),
    )
    assert joined is not None, f"could not rejoin {handle.name!r}"
    return joined[0]


def host_of(target, name: str):
    """The :class:`~repro.serve.host.SessionHost` that ``name`` joins on."""
    if isinstance(target, SessionRouter):
        target = target.shard(target.shard_of(name))
    return target._host
