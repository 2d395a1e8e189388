"""``codec_wire`` — codec- and transport-bound, one viewer over TCP: the
measured twin of the paper's Table 1 / Fig. 8.

Four pre-rendered 512x512 frames of the turbulent vortex (dense, so it
compresses poorly: the paper's hard case) cycle through
``RendererInterface`` -> loopback TCP -> ``TcpDaemonServer`` -> loopback
TCP -> ``DisplayInterface``.  Loopback, not a link: bytes are counted,
wire latency is not measurable here.

- phase **A**, closed loop, one frame in flight: rounds over ``raw, lzo,
  bzip, jpeg, jpeg+lzo, jpeg+bzip``, each switched in from the display
  with ``set_codec`` (the backwards control path), four frames per codec
  per round — one for ``bzip``, which at 0.4 s a frame would otherwise
  take two thirds of the phase and leave the rest too few samples.
  Rounds rather than one long segment per codec, so every codec gets
  the same number of rounds whatever the machine's speed and slow drift
  in the machine lands on all codecs alike.
  -> ``frame_ms_geomean`` and ``wire_bytes_per_frame`` over the five
  compressing codecs, ``frame_ms_p50/p90`` of ``jpeg+lzo`` (the shipped
  default); ``raw`` is the bare-forwarding baseline.
- phase **B**, ``jpeg+lzo`` streamed with up to four frames in flight so
  encode, the daemon's pumps and decode overlap -> ``frames_per_s``.

Rendering does no measured work here; the codecs own about 90%.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.compress import get_codec
from repro.daemon import (
    DisplayInterface,
    RendererInterface,
    TcpDaemonServer,
    connect_daemon,
)
from repro.data import turbulent_vortex
from repro.render import Camera, TransferFunction, render_volume, to_display_rgb

from e2ebench.harness import (
    Outcome,
    Run,
    check,
    check_no_leaked_threads,
    geomean,
    median,
    percentile,
    psnr,
)

IMAGE = (512, 512)
COMPRESSING = ("lzo", "bzip", "jpeg", "jpeg+lzo", "jpeg+bzip")
CODECS = ("raw",) + COMPRESSING
DEFAULT = "jpeg+lzo"
N_FRAMES = 4
STEPS = (10, 30, 50, 70)
#: share of the run given to the closed-loop phase
A_SHARE = 0.65
IN_FLIGHT = 4
#: phase B reports the median rate over blocks of this many frames
BLOCK = 32


def _inputs(rng):
    dataset = turbulent_vortex(scale=0.5)
    camera = Camera(
        image_size=IMAGE,
        azimuth=30.0 + float(rng.uniform(-1.5, 1.5)),
        elevation=20.0 + float(rng.uniform(-1.0, 1.0)),
    )
    tf = TransferFunction.jet()
    return [
        to_display_rgb(render_volume(dataset.volume(t), tf, camera)) for t in STEPS
    ]


class _Wire:
    """Renderer and display interfaces joined through a TCP daemon."""

    def __init__(self, warm_up: np.ndarray):
        self.server = TcpDaemonServer()
        self.display = DisplayInterface(
            connection=connect_daemon(self.server.address, "display", "e2e-display")
        )
        self.renderer = RendererInterface(
            connection=connect_daemon(self.server.address, "renderer", "e2e-renderer"),
            codec=DEFAULT,
        )
        self.next_id = 0
        self.send(warm_up)
        self.display.next_frame()

    def send(self, image: np.ndarray) -> int:
        fid = self.next_id
        self.next_id += 1
        self.renderer.send_frame(image, time_step=fid, frame_id=fid)
        return fid

    def switch_codec(self, name: str) -> float:
        """Switch from the display's side; returns the time until the
        renderer interface has applied it, in ms."""
        asked = time.perf_counter()
        self.display.set_codec(name)
        while self.renderer.codec.name != name:
            check(time.perf_counter() - asked < 5.0, f"set_codec({name!r}) never applied")
            time.sleep(0.0002)
        return (time.perf_counter() - asked) * 1e3

    def close(self) -> None:
        self.renderer.close()
        self.display.close()
        self.server.close()


def run(run: Run) -> Outcome:
    frames = run.make_inputs(_inputs)
    threads_before = threading.active_count()
    wire = run.build(lambda: _Wire(frames[0]), _Wire.close)
    run.begin_measuring()
    try:
        # -- A: closed loop over every codec ----------------------------------------
        run.phase("A")
        frame_ms = {c: [] for c in CODECS}
        payload: dict[str, dict[int, int]] = {c: {} for c in CODECS}
        switch_ms: list[float] = []
        decoded: dict[tuple[str, int], np.ndarray] = {}
        frame_codec: dict[int, str] = {}
        started = time.perf_counter()
        rounds = 0
        while True:
            round_started = time.perf_counter()
            for codec in CODECS:
                switch_ms.append(wire.switch_codec(codec))
                # bzip sends one frame a round, a different one each round
                ks = [rounds % N_FRAMES] if codec == "bzip" else range(N_FRAMES)
                for k in ks:
                    image = frames[k]
                    due = time.perf_counter()
                    fid = wire.send(image)
                    got = wire.display.next_frame()
                    frame_ms[codec].append((time.perf_counter() - due) * 1e3)
                    check(got.frame_id == fid, f"{codec}: got frame {got.frame_id}, sent {fid}")
                    frame_codec[fid] = codec
                    payload[codec][k] = got.payload_bytes
                    _check_image(codec, k, image, got.image, decoded)
            rounds += 1
            now = time.perf_counter()
            if now - started + (now - round_started) > run.seconds * A_SHARE:
                break

        # -- B: the default codec, streamed -----------------------------------------
        run.phase("B")
        wire.switch_codec(DEFAULT)
        streamed = 0
        stream_errors: list[str] = []

        def stream_phase(budget_s: float) -> float:
            nonlocal streamed
            window = threading.Semaphore(IN_FLIGHT)
            first_id = wire.next_id
            stamps: list[float] = []
            done = threading.Event()

            def receive() -> None:
                while not (done.is_set() and first_id + len(stamps) == wire.next_id):
                    try:
                        got = wire.display.next_frame(timeout=0.2)
                    except TimeoutError:
                        continue
                    except ConnectionError:  # the run failed and closed the wire
                        return
                    k = len(stamps)
                    stamps.append(time.perf_counter())
                    if got.frame_id != first_id + k:
                        stream_errors.append(
                            f"stream frame {got.frame_id}, expected {first_id + k}")
                    elif not np.array_equal(got.image, decoded[DEFAULT, k % N_FRAMES]):
                        stream_errors.append(f"stream frame {got.frame_id} decoded differently")
                    window.release()

            receiver = threading.Thread(
                target=receive, name="e2e-stream-receiver", daemon=True
            )
            receiver.start()
            begin = time.perf_counter()
            sent = 0
            try:
                while time.perf_counter() - begin < budget_s or sent % BLOCK:
                    check(window.acquire(timeout=30.0), "the stream stalled")
                    wire.send(frames[sent % N_FRAMES])
                    sent += 1
            finally:
                done.set()
            receiver.join(timeout=30.0)
            check(not receiver.is_alive(), "the last stream frames never arrived")
            streamed += sent
            edges = [begin] + stamps[BLOCK - 1::BLOCK]
            return median(BLOCK / (b - a) for a, b in zip(edges, edges[1:]))

        frames_per_s, overhead_pct = run.throughput(
            stream_phase, run.seconds * (1.0 - A_SHARE), min_slice_s=1.0
        )
        traffic = wire.renderer.conn.traffic.snapshot()
        dropped = wire.server.daemon.dropped_frames
    finally:
        wire.close()
    run.end_measuring()

    # -- output checks ----------------------------------------------------------
    check(not stream_errors, "; ".join(stream_errors[:3]))
    check(dropped == 0, f"the daemon dropped {dropped} frames")
    for codec in CODECS:
        # the wire carried this codec's encoding, not merely some frame
        local = len(get_codec(codec).encode_image(frames[0]))
        check(
            payload[codec][0] == local,
            f"{codec}: {payload[codec][0]} B crossed the wire, a local encode gives {local} B",
        )
    check_no_leaked_threads(threads_before)

    closed_loop = sum(len(v) for v in frame_ms.values())
    delivered = closed_loop + streamed
    bytes_of = {c: sum(payload[c].values()) / len(payload[c]) for c in CODECS}
    metrics = {
        "setup_s": run.setup_s,
        "first_frame_s": frame_ms["raw"][0] / 1e3,
        "frame_ms_p50": median(frame_ms[DEFAULT]),
        "frame_ms_p90": percentile(frame_ms[DEFAULT], 0.90),
        "frame_ms_geomean": geomean(median(frame_ms[c]) for c in COMPRESSING),
        "frames_per_s": frames_per_s,
        "cpu_ms_per_frame": run.measured_cpu_s * 1e3 / delivered,
        "wire_bytes_per_frame": geomean(bytes_of[c] for c in COMPRESSING),
        "daemon.raw_frame_ms": median(frame_ms["raw"]),
        "daemon.set_codec_rtt_ms": median(switch_ms),
        "daemon.dropped_frames": dropped,
        "net.tcp_bytes": traffic.bytes_sent,
        "net.tcp_frames": traffic.frames_sent,
        "net.retransmits": traffic.retransmits,
        # every raw frame crosses two TCP hops: renderer->daemon->display
        "net.raw_MBps": 2 * bytes_of["raw"] / (median(frame_ms["raw"]) / 1e3) / 1e6,
        "trace.overhead_pct": overhead_pct,
    }
    for codec in COMPRESSING:
        metrics[f"compress.{codec.replace('+', '-')}.bytes"] = bytes_of[codec]
    if run.tracer is not None:
        metrics.update(_layer_metrics(run, frame_ms, frame_codec))
    per_codec = len(frame_ms[DEFAULT])
    return Outcome(
        metrics=metrics,
        attempted=delivered,
        failed=0,
        samples={"frame_ms_p50": per_codec, "frame_ms_p90": per_codec,
                 "frame_ms_geomean": per_codec * len(COMPRESSING),
                 "frames_per_s": streamed, "first_frame_s": 1},
    )


def _check_image(codec: str, k: int, sent: np.ndarray, got: np.ndarray,
                 decoded: dict) -> None:
    """Lossless codecs return the frame exactly; lossy ones within 30 dB
    the first time and, being deterministic, identically ever after."""
    if codec in ("raw", "lzo", "bzip"):
        check(np.array_equal(sent, got), f"{codec}: frame {k} did not round-trip exactly")
        return
    first = decoded.get((codec, k))
    if first is None:
        fidelity = psnr(sent, got)
        check(fidelity >= 30.0, f"{codec}: frame {k} decoded at {fidelity:.1f} dB")
        decoded[codec, k] = got
    else:
        check(np.array_equal(first, got), f"{codec}: frame {k} decoded differently this time")


def _layer_metrics(run: Run, frame_ms: dict, frame_codec: dict[int, str]) -> dict[str, float]:
    tr = run.tracer
    metrics = {}
    for codec in COMPRESSING:
        key = codec.replace("+", "-")
        for verb in ("encode", "decode"):
            metrics[f"compress.{key}.{verb}_ms"] = median(
                tr.durations_ms(f"compress.{codec}.{verb}", phase="A", top=True))
    busy = tr.frame_layer_self_ms("A")
    roots = tr.frame_root_ms("A")
    compressing = [fid for fid, codec in frame_codec.items() if codec != "raw"]
    default = [fid for fid, codec in frame_codec.items() if codec == DEFAULT]
    metrics.update({
        "daemon.send_self_ms": median(tr.self_ms("daemon.send_frame", phase="A")),
        "daemon.forward_ms": median(tr.self_ms("daemon.next_frame", phase="A")),
        "trace.accounted_ratio": (
            median(roots[fid] for fid in default) / median(frame_ms[DEFAULT])),
        "trace.compress_share": (
            sum(busy[fid]["compress"] for fid in compressing)
            / sum(sum(busy[fid].values()) for fid in compressing)),
    })
    return metrics
