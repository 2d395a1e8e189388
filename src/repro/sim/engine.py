"""Minimal deterministic discrete-event simulation engine.

Processes are generators that ``yield`` events (timeouts, resource
acquisitions, other processes); the engine resumes them when the event
fires.  Ties in time break by scheduling order, so runs are fully
deterministic — a requirement for reproducible figures.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator

__all__ = ["Simulator", "Event", "Timeout", "Process", "SimulationError"]


class SimulationError(RuntimeError):
    """Engine misuse (yielding a foreign event, double-trigger, ...)."""


class Event:
    """A one-shot occurrence carrying an optional value."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event now; callbacks run within the current tick."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for cb in self._callbacks:
            self.sim._defer(cb, self)
        self._callbacks.clear()
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.sim._defer(cb, self)
        else:
            self._callbacks.append(cb)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds from creation."""

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(sim)
        sim._schedule_at(sim.now + delay, self._fire)

    def _fire(self) -> None:
        if not self.triggered:
            self.succeed()


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator may yield any :class:`Event`; the value sent back into
    the generator is the event's ``value``.
    """

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]):
        super().__init__(sim)
        self._gen = gen
        sim._defer(self._step, None)

    def _step(self, fired: Event | None) -> None:
        value = fired.value if fired is not None else None
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected Event"
            )
        if target.sim is not self.sim:
            raise SimulationError("process yielded an event from another simulator")
        target.add_callback(self._step)


class Simulator:
    """Event loop with a deterministic time-ordered heap."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    # -- scheduling ------------------------------------------------------------

    def _schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (when, next(self._counter), fn))

    def _defer(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn`` later within the current simulated instant."""
        self._schedule_at(self.now, lambda: fn(*args))

    # -- public API --------------------------------------------------------------

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Launch a generator as a process."""
        return Process(self, gen)

    def all_of(self, events: list[Event]) -> Event:
        """An event firing once every listed event has fired."""
        done = Event(self)
        remaining = len(events)
        if remaining == 0:
            self._defer(done.succeed, None)
            return done
        state = {"left": remaining}

        def on_fire(_ev: Event) -> None:
            state["left"] -= 1
            if state["left"] == 0:
                done.succeed([e.value for e in events])

        for e in events:
            e.add_callback(on_fire)
        return done

    def run(self, until: float | None = None) -> float:
        """Drain the event heap (optionally up to simulated time ``until``).

        Returns the final simulated time.
        """
        while self._heap:
            when, _, fn = self._heap[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = when
            fn()
        return self.now
