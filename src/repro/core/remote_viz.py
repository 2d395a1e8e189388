"""End-to-end functional remote-visualization session.

Everything real, in one process: time steps come from a
:class:`~repro.data.TimeVaryingDataset`, each is decomposed into bricks,
ray-cast (optionally as a true SPMD group with binary-swap compositing),
converted to a display image, compressed by a real codec, shipped through
the display-daemon framework, decompressed and reassembled at the display
interface.  User control (view/colormap/codec changes) flows backwards
through the same daemon and is applied *between* frames (§5).

This is the library's primary public API — the paper's system in
miniature.  Wall-clock timings it reports are for *this* machine; the
paper-testbed timing figures come from :mod:`repro.core.pipeline`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.metrics import FrameRecord, RenderingMetrics
from repro.core.partitioning import PartitionPlan
from repro.daemon import DisplayDaemon, DisplayInterface, RendererInterface
from repro.daemon.display_interface import ReceivedFrame
from repro.data.datasets import TimeVaryingDataset
from repro.machine import run_spmd
from repro.render import (
    Camera,
    RayCaster,
    cull_empty_space,
    TransferFunction,
    binary_swap,
    composite_bricks,
    decompose,
    render_volume,  # noqa: F401 -- not called here (bricks render through the caster); e2ebench's tracer test looks this binding up
    to_display_rgb,
    visibility_order,
)

__all__ = ["RemoteVisualizationSession", "SessionReport"]

_UNIT_BOX = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@dataclass
class SessionReport:
    """What happened during a session run."""

    metrics: RenderingMetrics
    frames: list[ReceivedFrame] = field(default_factory=list)
    payload_bytes: list[int] = field(default_factory=list)
    raw_bytes_per_frame: int = 0

    @property
    def total_payload_bytes(self) -> int:
        return sum(self.payload_bytes)

    @property
    def mean_compression_ratio(self) -> float:
        if not self.payload_bytes:
            return 1.0
        return self.raw_bytes_per_frame * len(self.payload_bytes) / max(
            self.total_payload_bytes, 1
        )


class RemoteVisualizationSession:  # speaks: renderer
    """A live renderer ↔ daemon ↔ display loop over a dataset.

    Parameters
    ----------
    dataset:
        The time-varying volumes to animate.
    group_size:
        Processors per rendering group (bricks per volume).  With
        ``spmd=True``, rendering runs as a real thread-per-rank SPMD
        program with binary-swap compositing (any group size; non-powers
        of two use the folding pre-phase); otherwise bricks render
        sequentially and composite with the reference operator
        (identical images, less concurrency).
    camera, tf:
        Initial view and classification; both remotely controllable.
    codec:
        Initial compression method name (display can switch it).
    n_pieces:
        Sub-images per frame (parallel compression mode; 1 = assembled).
    cull:
        Crop each time step to the box its visible data occupies
        (:func:`repro.render.cull_empty_space`) before decomposing it, so
        bricks are balanced over that box rather than over the whole
        grid.  It is not a speed switch: the ray caster skips empty
        space with or without it.
    """

    def __init__(
        self,
        dataset: TimeVaryingDataset,
        *,
        group_size: int = 4,
        camera: Camera | None = None,
        tf: TransferFunction | None = None,
        codec: str = "jpeg+lzo",
        n_pieces: int = 1,
        spmd: bool = False,
        parallel_compression: bool = False,
        shading: bool = False,
        cull: bool = False,
        buffer_frames: int = 16,
        background: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ):
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if parallel_compression and not spmd:
            raise ValueError("parallel_compression requires spmd=True")
        if parallel_compression and n_pieces != 1:
            raise ValueError(
                "parallel_compression derives pieces from the group; "
                "leave n_pieces at 1"
            )
        self.dataset = dataset
        self.group_size = group_size
        self.camera = camera if camera is not None else Camera()
        self.tf = tf if tf is not None else TransferFunction.jet()
        self.n_pieces = n_pieces
        self.spmd = spmd
        self.parallel_compression = parallel_compression
        self.shading = shading
        self.cull = cull
        self.background = background

        # the renderer of the current (camera, tf, shading), with the
        # ray plans of that view; see _caster()
        self._caster_lock = threading.Lock()
        self._ray_caster: RayCaster | None = None  # guarded-by: _caster_lock

        self.daemon = DisplayDaemon(buffer_frames=buffer_frames)
        self.renderer = RendererInterface(self.daemon, codec=codec)
        self.display = DisplayInterface(self.daemon)
        self._next_frame_id = 0
        self._closed = False
        #: control messages whose tag is not in the protocol registry —
        #: dropped, never silently absorbed into the render parameters
        self.unknown_controls = 0
        #: §4.1 start_renderer commands applied (each may seed camera
        #: parameters for the following frames)
        self.renderer_starts = 0

    # -- rendering ------------------------------------------------------------

    def _apply_controls(self) -> None:
        """Fold buffered user inputs into the *next* frame's parameters."""
        for msg in self.renderer.drain_controls():
            if msg.tag == "view":
                self.camera = self.camera.with_view(
                    azimuth=msg.params["azimuth"],
                    elevation=msg.params["elevation"],
                )
            elif msg.tag == "zoom":
                self.camera = replace(self.camera, zoom=msg.params["zoom"])
            elif msg.tag == "projection":
                self.camera = replace(
                    self.camera, projection=msg.params["projection"]
                )
            elif msg.tag == "colormap":
                self.tf = TransferFunction(
                    positions=tuple(msg.params["positions"]),
                    colors=tuple(tuple(c) for c in msg.params["colors"]),
                )
            elif msg.tag == "start_renderer":
                # the §4.1 "start the renderer [with parameters]"
                # daemon command: in this in-process miniature the
                # render loop already runs, so (re)starting means
                # seeding the next frame's parameters in one shot
                self.renderer_starts += 1
                params = msg.params
                if "azimuth" in params or "elevation" in params:
                    self.camera = self.camera.with_view(
                        azimuth=params.get("azimuth", self.camera.azimuth),
                        elevation=params.get(
                            "elevation", self.camera.elevation),
                    )
                if "zoom" in params:
                    self.camera = replace(self.camera,
                                          zoom=params["zoom"])
                if "projection" in params:
                    self.camera = replace(
                        self.camera, projection=params["projection"])
            else:
                # registered tags owned by other layers (set_codec is
                # applied inside the renderer interface) pass through;
                # anything unregistered is counted, not absorbed
                from repro.daemon.protocol import CONTROL_TAGS

                if msg.tag not in CONTROL_TAGS:
                    self.unknown_controls += 1

    def _caster(self) -> RayCaster:
        """The caster every brick of the next frame renders through.

        One caster lives as long as the view it was made for: while
        ``camera``, ``tf`` and ``shading`` stay what they were (compared
        here, so a control message and a plain ``session.camera = ...``
        are caught alike) the animation marches the plans of its first
        frame; when one changes, the caster and its plans are dropped.
        """
        with self._caster_lock:
            caster = self._ray_caster
            if (
                caster is None
                or caster.camera != self.camera
                or caster.tf != self.tf
                or caster.shading != self.shading
            ):
                caster = self._ray_caster = RayCaster(
                    tf=self.tf, camera=self.camera, shading=self.shading
                )
            return caster

    def _bricks(self, t: int, caster: RayCaster):
        """Data input for step ``t``: ``(volume, bricks)`` -- the volume,
        cropped to its visible box under ``cull``, and one brick per
        processor of the group in world space, nearest to ``caster``'s
        viewer first (rank order for ``binary_swap``).  ``None`` when
        nothing in the step is visible."""
        volume = self.dataset.volume(t)
        world_box = _UNIT_BOX
        if self.cull:
            culled = cull_empty_space(
                volume, threshold=caster.tf.opacity_threshold()
            )
            if culled is None:
                return None
            volume, world_box = culled
        bricks = [
            self._remap_brick(b, world_box)
            for b in decompose(volume.shape, self.group_size)
        ]
        order = visibility_order(bricks, caster.camera)
        return volume, [bricks[i] for i in order]

    def _empty_frame(self, caster: RayCaster) -> np.ndarray:
        """The frame of a step with nothing visible: all background."""
        h, w = caster.camera.image_size
        return to_display_rgb(
            np.zeros((h, w, 4), dtype=np.float32), background=self.background
        )

    def render_step(self, t: int) -> np.ndarray:
        """Render time step ``t`` to a display-ready uint8 RGB image."""
        caster = self._caster()
        found = self._bricks(t, caster)
        if found is None:
            return self._empty_frame(caster)
        volume, bricks = found
        if self.spmd and self.group_size > 1:
            rgba = self._render_spmd(volume, bricks, caster)
        else:
            partials = [caster.render(b.extract(volume), b.box) for b in bricks]
            rgba = (
                partials[0]
                if len(partials) == 1
                else composite_bricks(partials, bricks, caster.camera)
            )
        return to_display_rgb(rgba, background=self.background)

    @staticmethod
    def _remap_brick(brick, world_box):
        """Express a brick's unit-cube box inside ``world_box``."""
        (lo, hi) = world_box
        if world_box == _UNIT_BOX:
            return brick
        if brick.box == _UNIT_BOX:  # a group of one: its brick is the world box itself
            return replace(brick, box=world_box)
        blo, bhi = brick.box
        span = [h - l for l, h in zip(lo, hi)]
        new_lo = tuple(lo[a] + span[a] * blo[a] for a in range(3))
        new_hi = tuple(lo[a] + span[a] * bhi[a] for a in range(3))
        return replace(brick, box=(new_lo, new_hi))

    def _render_spmd(self, volume: np.ndarray, bricks, caster: RayCaster) -> np.ndarray:
        def worker(comm):
            brick = bricks[comm.rank]
            partial = caster.render(brick.extract(volume), brick.box)
            piece, rows = binary_swap(comm, partial)
            gathered = comm.gather((rows, piece))
            if comm.rank == 0:
                out = np.zeros_like(partial)
                for (r0, r1), p in gathered:
                    out[r0:r1] = p
                return out
            return None

        results = run_spmd(self.group_size, worker)
        return results[0]

    def _render_and_send_parallel(self, t: int, fid: int) -> None:
        """§4.1 parallel compression, for real: "as soon as a processor
        completes the sub-image it is responsible for compositing, it
        compresses and sends the compressed sub-image to the display
        daemon … the step to combine the sub-images is waived."

        Each SPMD rank binary-swaps to its strip, converts, compresses
        and ships it directly from its own thread — no assembled image
        ever exists on the render side.
        """
        caster = self._caster()
        found = self._bricks(t, caster)
        if found is None:  # nothing to swap: the frame goes out whole
            self.renderer.send_frame(
                self._empty_frame(caster), time_step=t, frame_id=fid
            )
            return
        volume, bricks = found
        background = self.background
        renderer = self.renderer
        h, w = caster.camera.image_size

        def worker(comm):
            brick = bricks[comm.rank]
            partial = caster.render(brick.extract(volume), brick.box)
            piece, rows = binary_swap(comm, partial)
            # agree on the contributing strips (non-power-of-two groups
            # fold some ranks away, leaving them with empty ranges)
            all_rows = comm.allgather(rows)
            contributing = sorted(
                (r for r in all_rows if r[0] < r[1]), key=lambda r: r[0]
            )
            if rows[0] >= rows[1]:
                return
            strip = to_display_rgb(piece, background=background)
            renderer.send_piece(
                strip,
                time_step=t,
                frame_id=fid,
                piece_index=contributing.index(rows),
                n_pieces=len(contributing),
                row_range=rows,
                image_shape=(h, w),
            )

        run_spmd(self.group_size, worker)

    def step(self, t: int) -> ReceivedFrame:
        """Render, ship, receive and decode one time step."""
        self._apply_controls()
        fid = self._next_frame_id
        self._next_frame_id += 1
        if self.parallel_compression:
            self._render_and_send_parallel(t, fid)
            return self.display.next_frame()
        image = self.render_step(t)
        if self.n_pieces > 1:
            self.renderer.send_frame_pieces(
                image, time_step=t, n_pieces=self.n_pieces, frame_id=fid
            )
        else:
            self.renderer.send_frame(image, time_step=t, frame_id=fid)
        return self.display.next_frame()

    def run_pipelined(
        self,
        steps: range | None = None,
        n_groups: int = 2,
        on_frame: Callable[[ReceivedFrame], None] | None = None,
    ) -> SessionReport:
        """Animate with real inter-volume pipelining (§3, functionally).

        ``n_groups`` worker threads each render their round-robin share
        of the steps (group g renders steps g, g+L, …) and ship frames
        as they finish; the display side reassembles and the report
        orders frames by time step.  Data input (the dataset generator
        or disk read) of one step overlaps rendering of another — the
        paper's pipelining — with real concurrency wherever NumPy
        releases the GIL.
        """
        if n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        steps_list = list(
            steps if steps is not None else range(self.dataset.n_steps)
        )
        if not steps_list:
            raise ValueError("no steps to render")
        self._apply_controls()
        plan = PartitionPlan(max(n_groups, 1), n_groups)
        t0 = time.perf_counter()

        import threading

        errors: list[BaseException] = []

        def group_worker(group: int) -> None:
            try:
                for idx in range(group, len(steps_list), n_groups):
                    t = steps_list[idx]
                    image = self.render_step(t)
                    self.renderer.send_frame(image, time_step=t, frame_id=idx)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        workers = [
            threading.Thread(target=group_worker, args=(g,), daemon=True)
            for g in range(n_groups)
        ]
        for w in workers:
            w.start()

        received: list[ReceivedFrame] = []
        arrival: dict[int, float] = {}
        for _ in steps_list:
            while True:
                if errors:  # fail fast instead of waiting out the timeout
                    raise errors[0]
                try:
                    frame = self.display.next_frame(timeout=0.5)
                    break
                except TimeoutError:
                    continue
            arrival[frame.frame_id] = time.perf_counter() - t0
            received.append(frame)
            if on_frame is not None:
                on_frame(frame)
        for w in workers:
            w.join(timeout=30.0)
        if errors:
            raise errors[0]
        self._next_frame_id += len(steps_list)

        received.sort(key=lambda f: f.frame_id)
        # In-order display semantics: frame k appears once it *and* every
        # earlier frame have arrived (running max of arrival times).
        records: list[FrameRecord] = []
        shown = 0.0
        for frame in received:
            shown = max(shown, arrival[frame.frame_id])
            records.append(
                FrameRecord(
                    time_step=frame.frame_id,
                    group=plan.group_of_step(frame.frame_id),
                    displayed=shown,
                )
            )
        h, w = self.camera.image_size
        return SessionReport(
            metrics=RenderingMetrics.from_frames(records),
            frames=received,
            payload_bytes=[f.payload_bytes for f in received],
            raw_bytes_per_frame=h * w * 3,
        )

    def run(
        self,
        steps: range | None = None,
        on_frame: Callable[[ReceivedFrame], None] | None = None,
    ) -> SessionReport:
        """Animate ``steps`` (default: the whole dataset); return a report."""
        steps = steps if steps is not None else range(self.dataset.n_steps)
        t0 = time.perf_counter()
        received: list[ReceivedFrame] = []
        records: list[FrameRecord] = []
        payloads: list[int] = []
        for t in steps:
            r_start = time.perf_counter() - t0
            frame = self.step(t)
            now = time.perf_counter() - t0
            received.append(frame)
            payloads.append(frame.payload_bytes)
            records.append(
                FrameRecord(
                    time_step=t,
                    group=0,
                    render_start=r_start,
                    render_end=now,
                    displayed=now,
                )
            )
            if on_frame is not None:
                on_frame(frame)
        h, w = self.camera.image_size
        return SessionReport(
            metrics=RenderingMetrics.from_frames(records),
            frames=received,
            payload_bytes=payloads,
            raw_bytes_per_frame=h * w * 3,
        )

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            with self._caster_lock:
                self._ray_caster = None  # and the ray plans with it
            self.renderer.close()
            self.display.close()
            self.daemon.close()

    def __enter__(self) -> "RemoteVisualizationSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
