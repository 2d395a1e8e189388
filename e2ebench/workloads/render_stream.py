"""``render_stream`` — render-bound, one viewer: the measured twin of the
paper's Fig. 9 / Table 2 / Fig. 6.

Full-resolution turbulent jet, 256x256 image, ``jpeg+lzo``, through
``RemoteVisualizationSession``.  Two ranks, partitioned both ways (on the
one processor every workload is confined to, see
``harness.pin_to_one_cpu``, they time-slice: a frame costs its CPU time):

- phase **L1**, one group of two ranks (real ``binary_swap``): ``step()``
  in a closed loop, one frame in flight -> ``frame_ms_*``;
- phase **L2**, two groups of one (``run_pipelined(n_groups=2)``)
  -> ``frames_per_s`` and ``first_frame_s``.

Ray casting owns about 95% of every frame here; a renderer speed-up must
show on this workload and nowhere else.

L2 ships its frames ``raw``.  With ``jpeg+lzo`` the two group threads of
``run_pipelined`` encode through the one codec instance of the session's
``RendererInterface`` and overwrite each other's scratch buffers: frames
arrive corrupted (3-25 dB against the same step from L1) or fail to
decode.  This benchmark's L1/L2 agreement check found that; until the
program is fixed, a workload on which frames fail cannot be a benchmark,
and encode is under 2% of a frame here, so ``frames_per_s`` loses little.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import RemoteVisualizationSession
from repro.data import turbulent_jet
from repro.render import Camera, TransferFunction, render_volume, to_display_rgb

from e2ebench.harness import (
    Outcome,
    Run,
    check,
    median,
    percentile,
    psnr,
)

IMAGE = (256, 256)
CODEC = "jpeg+lzo"
#: distinct time steps the closed loop cycles over; every frame is still
#: synthesized and rendered afresh (nothing on this path caches frames)
CYCLE = 8
FIRST_STEP = 40
#: most time steps the pipelined phase may need after the first
L2_MAX_FRAMES = 64
#: share of the run given to the closed-loop phase
L1_SHARE = 0.55


def _inputs(rng):
    """The seed moves the viewpoint a little, not the time steps: encoded
    size swings 5% from step to step but 1% over these view changes, and
    ``wire_bytes_per_frame`` has to be comparable across seeds."""
    dataset = turbulent_jet()
    camera = Camera(
        image_size=IMAGE,
        azimuth=30.0 + float(rng.uniform(-1.5, 1.5)),
        elevation=20.0 + float(rng.uniform(-1.0, 1.0)),
    )
    return dataset, list(range(FIRST_STEP, FIRST_STEP + CYCLE)), camera


def run(run: Run) -> Outcome:
    dataset, steps, camera = run.make_inputs(_inputs)

    def build():
        serial = RemoteVisualizationSession(
            dataset, group_size=2, spmd=True, camera=camera, codec=CODEC
        )
        pipelined = RemoteVisualizationSession(
            dataset, group_size=1, camera=camera, codec="raw"  # see module docstring
        )
        serial.step(steps[0])  # warm codec tables and the SPMD path
        return serial, pipelined

    def teardown(sessions):
        for session in sessions:
            session.close()

    serial, pipelined = run.build(build, teardown)
    run.begin_measuring()
    try:
        # -- L1: closed loop, one frame in flight --------------------------------
        run.phase("L1")
        frame_ms: list[float] = []
        l1_frames = {}
        payload_of_step: dict[int, int] = {}
        next_id = 1  # the warm-up frame took id 0
        started = time.perf_counter()
        while True:
            t = steps[len(frame_ms) % CYCLE]
            due = time.perf_counter()
            frame = serial.step(t)
            frame_ms.append((time.perf_counter() - due) * 1e3)
            check(frame.frame_id == next_id, f"L1 frame id {frame.frame_id}, expected {next_id}")
            check(frame.time_step == t, f"L1 frame carries step {frame.time_step}, asked {t}")
            next_id += 1
            l1_frames[t] = frame.image
            payload_of_step[t] = frame.payload_bytes
            elapsed = time.perf_counter() - started
            if len(frame_ms) >= 2 and elapsed + median(frame_ms) / 1e3 > run.seconds * L1_SHARE:
                break

        # -- L2: two groups pipelined ---------------------------------------------
        run.phase("L2")
        l2_frames = {}
        first_frame_s: list[float] = []
        l2_traced_wall_s: list[float] = []
        l2_count = 0

        def pipelined_phase(budget_s: float) -> float:
            nonlocal l2_count
            n = min(L2_MAX_FRAMES, max(2, int(budget_s / (median(frame_ms) / 1e3))))
            # distinct from call to call too, so one trace id each
            order = [steps[0] + (l2_count + i) % L2_MAX_FRAMES for i in range(n)]
            arrivals: list[float] = []
            begin = time.perf_counter()
            report = pipelined.run_pipelined(
                order, n_groups=2,
                on_frame=lambda f: arrivals.append(time.perf_counter() - begin),
            )
            wall = time.perf_counter() - begin
            check(
                [f.frame_id for f in report.frames] == list(range(n)),
                "L2 frame ids are not 0..n-1 in order",
            )
            for frame, t in zip(report.frames, order):
                check(frame.time_step == t, f"L2 frame {frame.frame_id} carries the wrong step")
                l2_frames[t] = frame.image
            first_frame_s.append(arrivals[0])
            if run.recording:
                l2_traced_wall_s.append(wall)
            l2_count += n
            # both groups render from the first moment on, so on the one
            # processor no time is spent filling the pipeline
            return n / wall

        frames_per_s, overhead_pct = run.throughput(
            pipelined_phase, run.seconds * (1.0 - L1_SHARE),
            min_slice_s=2.5 * median(frame_ms) / 1e3,  # a frame from each group
        )
    finally:
        teardown((serial, pipelined))
    run.end_measuring()

    # -- output checks ----------------------------------------------------------
    # L2 frames crossed the wire raw, so they must equal a local render
    # exactly; L1 frames are the same steps through binary swap and
    # jpeg+lzo, so they must be close to L2's
    tf = TransferFunction.jet()
    for t in (min(l2_frames), max(l2_frames)):
        reference = to_display_rgb(render_volume(dataset.volume(t), tf, camera))
        check(
            np.array_equal(reference, l2_frames[t]),
            f"L2 frame of step {t} differs from a local render",
        )
    for t in sorted(set(l1_frames) & set(l2_frames)):
        agree = psnr(l1_frames[t], l2_frames[t])
        check(agree >= 30.0, f"L1 and L2 disagree on step {t}: {agree:.1f} dB")

    delivered = len(frame_ms) + l2_count
    p50 = median(frame_ms)
    metrics = {
        "setup_s": run.setup_s,
        "first_frame_s": first_frame_s[0],
        "frame_ms_p50": p50,
        "frame_ms_p90": percentile(frame_ms, 0.90),
        "frame_ms_geomean": p50,  # one codec: the geomean is its median
        "frames_per_s": frames_per_s,
        "cpu_ms_per_frame": run.measured_cpu_s * 1e3 / delivered,
        "wire_bytes_per_frame": sum(payload_of_step.values()) / len(payload_of_step),
        "trace.overhead_pct": overhead_pct,
    }
    metrics["compress.jpeg-lzo.bytes"] = metrics["wire_bytes_per_frame"]
    if run.tracer is not None:
        metrics.update(_layer_metrics(run, p50, sum(l2_traced_wall_s)))
    return Outcome(
        metrics=metrics,
        attempted=delivered,
        failed=0,
        samples={"frame_ms_p50": len(frame_ms), "frame_ms_p90": len(frame_ms),
                 "frames_per_s": l2_count, "first_frame_s": 1},
    )


def _layer_metrics(run: Run, frame_ms_p50: float, l2_wall_s: float) -> dict[str, float]:
    tr = run.tracer
    busy = tr.frame_layer_self_ms("L1").values()
    busy_ms = (
        sum(tr.durations_ms("core.render_step", phase="L2"))
        + sum(tr.durations_ms("daemon.send_frame", phase="L2"))
        + sum((s["end"] - s["start"]) * 1e3
              for s in tr.select(phase="L2", layer="compress", top=True)
              if s["name"].endswith(".decode"))
    )
    return {
        "data.volume_ms": median(tr.durations_ms("data.volume", phase="L1")),
        "render.decompose_ms": median(tr.durations_ms("render.decompose", phase="L1")),
        "render.raycast_ms": median(tr.per_frame_ms("render.raycast", phase="L1")),
        "render.binary_swap_ms": median(tr.per_frame_ms("render.binary_swap", phase="L1")),
        "render.composite_ms": median(tr.durations_ms("render.composite")),
        "render.to_rgb_ms": median(tr.durations_ms("render.to_rgb", phase="L1")),
        "machine.spmd_overhead_ms": median(tr.self_ms("machine.run_spmd", phase="L1")),
        "core.step_self_ms": median(tr.self_ms("core.step", phase="L1")),
        "core.overlap_factor": busy_ms / (l2_wall_s * 1e3),
        "compress.jpeg-lzo.encode_ms": median(
            tr.durations_ms("compress.jpeg+lzo.encode", phase="L1")),
        "compress.jpeg-lzo.decode_ms": median(
            tr.durations_ms("compress.jpeg+lzo.decode", phase="L1")),
        "daemon.send_self_ms": median(tr.self_ms("daemon.send_frame", phase="L1")),
        "daemon.forward_ms": median(tr.self_ms("daemon.next_frame", phase="L1")),
        "trace.accounted_ratio": median(tr.frame_root_ms("L1").values()) / frame_ms_p50,
        "trace.render_share": median(f["render"] / sum(f.values()) for f in busy),
    }
