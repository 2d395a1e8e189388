"""Spans recorded from the benchmark's side of each layer boundary.

``Tracer.install`` substitutes a timing wrapper for each public callable
listed in ``_targets`` (attribute substitution on ``repro``'s modules and
classes, undone by ``uninstall``); no file under ``src/`` is edited.  A
span is one call: name, layer, workload, phase, trace id, parent, thread,
start, end, and the CPU time its thread used meanwhile (with more busy
threads than cores, and one interpreter lock, wall time inside a span is
mostly waiting).  Spans stay in memory and are written when the workload
ends.

The trace id of a span is the frame it worked on.  The outermost span of a
call tree decides it — from the frame id where the call carries one, else
from the time step, which the workloads keep unique within a phase — and
every span beneath takes the id of the span that called it.  A span's self
time is its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "self_times_ms"]


def _arg(position: int, keyword: str):
    """Trace id taken from one argument of the wrapped call."""

    def ident(args, kwargs, result):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position] if len(args) > position else None

    return ident


def _result(attribute: str):
    """Trace id taken from the wrapped call's return value."""

    def ident(args, kwargs, result):
        return getattr(result, attribute, None)

    return ident


def _codec_span(verb: str):
    def name(args):
        return f"compress.{args[0].name}.{verb}"

    return name


def _targets():
    """``(owner, attribute, span name, layer, trace-id rule)`` for every
    wrapped callable.  Owners are classes, or a function object whose
    every binding in ``repro``'s modules is substituted."""
    from repro.compress import Codec
    from repro.core import RemoteVisualizationSession
    from repro.daemon import DisplayInterface, RendererInterface
    from repro.data import TimeVaryingDataset
    from repro.relay import FrameRelay
    from repro.serve import SessionBroker, SessionRouter, ViewerHandle
    import repro.machine
    import repro.render

    step = _arg(1, "t")
    frame = _arg(3, "frame_id")
    targets = [
        (TimeVaryingDataset, "volume", "data.volume", "data", step),
        (RemoteVisualizationSession, "step", "core.step", "core",
         _result("frame_id")),
        (RemoteVisualizationSession, "render_step", "core.render_step", "core", step),
        (RendererInterface, "send_frame", "daemon.send_frame", "daemon",
         _arg(2, "time_step")),
        (DisplayInterface, "next_frame", "daemon.next_frame", "daemon",
         _result("time_step")),
        (DisplayInterface, "set_codec", "daemon.set_codec", "daemon", None),
        (SessionRouter, "publish", "serve.publish", "serve", frame),
        (SessionRouter, "drain", "serve.drain", "serve", None),
        (SessionRouter, "join", "serve.join", "serve", None),
        (SessionBroker, "publish", "serve.shard_publish", "serve", frame),
        (ViewerHandle, "next_frame", "serve.viewer_next_frame", "serve",
         _result("frame_id")),
        (ViewerHandle, "seek", "relay.seek", "relay", None),
        (FrameRelay, "join", "relay.join", "relay", None),
    ]
    for name, span in (
        ("decompose", "render.decompose"),
        ("render_volume", "render.raycast"),
        ("binary_swap", "render.binary_swap"),
        ("composite_bricks", "render.composite"),
        ("to_display_rgb", "render.to_rgb"),
    ):
        targets.append((getattr(repro.render, name), None, span, "render", None))
    targets.append((repro.machine.run_spmd, None, "machine.run_spmd", "machine", None))
    codecs, stack = [], [Codec]
    while stack:
        cls = stack.pop()
        codecs.append(cls)
        stack.extend(cls.__subclasses__())
    for cls in codecs:
        for verb, attr in (("encode", "encode_image"), ("decode", "decode_image")):
            if attr in vars(cls):
                targets.append((cls, attr, _codec_span(verb), "compress", None))
    return targets


class Tracer:
    """Owns the wrappers and the spans of one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        #: label stamped on every span recorded from now on
        self.phase = ""
        #: wrappers are in place from set-up on; they record only while
        #: this is true, so set-up and verification leave no spans
        self.recording = False
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._own_ms: dict[int, float] = {}
        self._by_id: dict[int, dict] = {}

    # -- substitution ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, layer, ident in _targets():
            if attr is None:
                self._substitute_function(owner, name, layer, ident)
            else:
                original = vars(owner)[attr]
                self._set(owner, attr, self._wrap(original, name, layer, ident))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _set(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _substitute_function(self, func, name, layer, ident) -> None:
        """Modules bind public functions by name (``from repro.render
        import render_volume``), so every binding is replaced."""
        wrapper = self._wrap(func, name, layer, ident)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapper)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, func, name, layer: str, ident):
        tracer = self
        fans_out = name == "machine.run_spmd"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            stack = tracer._stack()
            span = {
                "id": next(tracer._ids),
                "name": name(args) if callable(name) else name,
                "layer": layer,
                "workload": tracer.workload,
                "phase": tracer.phase,
                "trace_id": None,
                "parent": stack[-1] if stack else None,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
                "end": None,
                "cpu_ms": None,
            }
            cpu0 = time.thread_time()
            if fans_out:
                args = tracer._adopt_ranks(span["id"], args)
            stack.append(span["id"])
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                span["cpu_ms"] = (time.thread_time() - cpu0) * 1e3
                stack.pop()
                if ident is not None:
                    span["trace_id"] = ident(args, kwargs, result)
                tracer.spans.append(span)

        return wrapper

    def _adopt_ranks(self, span_id: int, args: tuple) -> tuple:
        """``run_spmd(nprocs, fn, ...)`` runs ``fn`` on fresh threads:
        make the spans of those threads children of the ``run_spmd``
        span, which is the call that caused them."""
        nprocs, fn, *rest = args
        tracer = self

        def rank(comm, *a):
            stack = tracer._stack()
            stack.append(span_id)
            try:
                return fn(comm, *a)
            finally:
                stack.pop()

        return (nprocs, rank, *rest)

    # -- after the run -----------------------------------------------------

    def finish(self) -> None:
        """Hand each tree's trace id down from its root, and compute
        self times.  The queries below assume this has run."""
        self.spans.sort(key=lambda s: s["id"])
        self._by_id = {s["id"]: s for s in self.spans}
        for span in self.spans:  # parents open first, so ids ascend
            parent = self._by_id.get(span["parent"])
            if parent is not None:
                span["trace_id"] = parent["trace_id"]
        self._own_ms = self_times_ms(self.spans)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    # -- queries (durations in ms) -----------------------------------------

    def select(self, name: str | None = None, *, phase: str | None = None,
               layer: str | None = None, top: bool = False) -> list[dict]:
        """Spans by name/phase/layer; ``top`` keeps only those whose
        parent is not a span of the same layer (a two-phase codec's inner
        JPEG pass is not a codec call of its own)."""
        chosen = []
        for s in self.spans:
            if name is not None and s["name"] != name:
                continue
            if phase is not None and s["phase"] != phase:
                continue
            if layer is not None and s["layer"] != layer:
                continue
            if top:
                parent = self._by_id.get(s["parent"])
                if parent is not None and parent["layer"] == s["layer"]:
                    continue
            chosen.append(s)
        return chosen

    def durations_ms(self, name: str, **where) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in self.select(name, **where)]

    def per_frame_ms(self, name: str, **where) -> list[float]:
        """One value per frame: the longest of that frame's spans (the
        slowest rank sets the frame's time)."""
        frames = defaultdict(list)
        for s in self.select(name, **where):
            frames[(s["phase"], s["trace_id"])].append((s["end"] - s["start"]) * 1e3)
        return [max(v) for v in frames.values()]

    def self_ms(self, name: str, **where) -> list[float]:
        return [self._own_ms[s["id"]] for s in self.select(name, **where)]

    def frame_layer_self_ms(self, phase: str) -> dict[object, dict[str, float]]:
        """Per frame of ``phase``: self time summed by layer — which
        layer was busy for how long on that frame's behalf."""
        frames: dict = defaultdict(lambda: defaultdict(float))
        for s in self.select(phase=phase):
            if s["trace_id"] is not None:
                frames[s["trace_id"]][s["layer"]] += self._own_ms[s["id"]]
        return frames

    def frame_root_ms(self, phase: str) -> dict[object, float]:
        """Per frame of ``phase``: time inside its outermost spans.  In a
        closed loop this must come to the frame time, or the trace has
        holes."""
        frames: dict = defaultdict(float)
        for s in self.select(phase=phase):
            if s["parent"] is None and s["trace_id"] is not None:
                frames[s["trace_id"]] += (s["end"] - s["start"]) * 1e3
        return frames


def self_times_ms(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its
    children's intervals (children of parallel ranks overlap)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    own = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[s["id"]] = (s["end"] - s["start"] - covered) * 1e3
    return own
