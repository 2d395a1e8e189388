"""What every workload shares: statistics, the host guard, the set-up and
measurement clocks, and the benchmark's own viewer client."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from e2ebench.trace import Tracer

#: how many times a workload builds (and, but for the last, tears down)
#: its topology; ``setup_s`` reports the median so one slow fork or
#: connect does not decide it
SETUP_REPEATS = 5


class CheckFailed(Exception):
    """An output of the program under test was wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 on no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values) -> float:
    """``statistics.median``, but 0.0 on no samples (a span that never ran)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        return 0.0
    return statistics.geometric_mean(values)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio of two uint8 images, in dB."""
    if a.shape != b.shape:
        return 0.0
    mse = float(np.mean((a.astype(np.float32) - b.astype(np.float32)) ** 2))
    return math.inf if mse == 0 else 10.0 * math.log10(255.0**2 / mse)


def _calibrate_ms() -> float:
    """A fixed amount of single-threaded numpy plus pure-Python work,
    timed five times over, the median: a run whose calibration reads far
    from the baseline's ran on a different or a busy machine, whatever
    its load average said."""
    a = np.linspace(0.0, 1.0, 512 * 512, dtype=np.float32)
    spins = []
    for _ in range(5):
        start = time.perf_counter()
        b = a
        for _ in range(24):
            b = np.sqrt(b * b + 1.0) - 1.0
        total = 0
        for i in range(400_000):
            total += i & 7
        spins.append((time.perf_counter() - start) * 1e3)
    return median(spins)


def host_info() -> dict:
    """Provenance of one run; ``noisy`` marks a machine that was already
    busier than it has processors when the run began."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "loadavg1": load1,
        "noisy": load1 > nproc,
        "calib_ms": _calibrate_ms(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git
    (the benchmark also runs from a checkout that is not a repository)."""
    from e2ebench import ROOT

    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref:"):
            return (ROOT / ".git" / text.split()[1]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def pin_to_one_cpu() -> None:
    """Confine this process, and every thread and worker it starts from
    now on, to one processor.

    Two measurements asked for it.  The serving workloads are dozens of
    Python threads that hand the interpreter lock to each other per
    message; spread over two cores that hand-off goes through the kernel
    and the same code runs in one of two modes from process to process
    (``fanout_live``: 0.78 or 1.05 ms CPU per viewer-frame, 1.0 or 1.8 s
    of system time), while on one core it costs half as much and repeats.
    And the reference box is throttled under sustained load, which hits
    whatever needs both cores at once hardest (``render_stream`` with its
    two ranks in parallel: frame_ms_p50 490-806 ms over ten runs, against
    818-857 ms on one core).  What a layer costs still shows on one core;
    the speed-up from running ranks side by side does not.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cpu_seconds() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: how many samples stand behind each timing metric
    samples: dict[str, int] = field(default_factory=dict)


class Run:
    """One invocation: seed, time budget, tracer, and the two clocks
    (set-up and measured phases) every workload reports against."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rng = np.random.default_rng(seed)
        self.tracer = Tracer(workload) if traced else None
        self._inputs_s = 0.0
        self._topology_s: list[float] = []
        self._measure_cpu0 = 0.0
        self.measured_cpu_s = 0.0

    # -- set-up clock ------------------------------------------------------

    def make_inputs(self, make):
        """Generate the workload's inputs from the seed (timed once: it
        is deterministic numpy work)."""
        start = time.perf_counter()
        inputs = make(self.rng)
        self._inputs_s += time.perf_counter() - start
        return inputs

    def build(self, build, teardown):
        """Build the topology ``SETUP_REPEATS`` times, keep the last."""
        for attempt in range(SETUP_REPEATS):
            start = time.perf_counter()
            topology = build()
            self._topology_s.append(time.perf_counter() - start)
            if attempt < SETUP_REPEATS - 1:
                teardown(topology)
        return topology

    @property
    def setup_s(self) -> float:
        return self._inputs_s + median(self._topology_s)

    # -- measurement clock -------------------------------------------------

    def phase(self, name: str) -> None:
        """Name the phase the following spans belong to."""
        if self.tracer is not None:
            self.tracer.phase = name

    def begin_measuring(self) -> None:
        if self.tracer is not None:
            self.tracer.recording = True
        self._measure_cpu0 = cpu_seconds()

    def end_measuring(self) -> None:
        """Call after teardown, so reaped children's CPU is counted."""
        self.measured_cpu_s = cpu_seconds() - self._measure_cpu0
        if self.tracer is not None:
            self.tracer.recording = False
            self.tracer.finish()

    @property
    def recording(self) -> bool:
        """Whether calls into the program are leaving spans right now."""
        return self.tracer is not None and self.tracer.recording

    def throughput(self, phase, budget_s: float, min_slice_s: float) -> tuple[float, float]:
        """Run the workload's last phase, ``phase(seconds) -> frames/s``.

        Returns ``(frames_per_s, trace_overhead_pct)``.  A traced run
        cuts the budget into slices of at least ``min_slice_s`` and runs
        them plain, traced, traced, plain (wrappers taken out and put
        back), so that the machine's drift over the phase — a tenth of
        the speed within a minute on the reference box — lands on both
        sides alike; the difference of the means is what tracing costs.
        """
        if self.tracer is None:
            return phase(budget_s), 0.0
        slices = next((n for n in (8, 4) if budget_s / n >= min_slice_s), 2)
        order = (False, True, True, False) * (slices // 4) or (True, False)
        rates: dict[bool, list[float]] = {True: [], False: []}
        for traced in order:
            if not traced:
                self.tracer.uninstall()
            elif not self.tracer.installed:
                self.tracer.install()
            self.tracer.recording = traced
            rates[traced].append(phase(budget_s / slices))
        traced_rate, plain_rate = (statistics.fmean(rates[side]) for side in (True, False))
        return traced_rate, 100.0 * (plain_rate - traced_rate) / plain_rate


def paced(n: int, rate_hz: float):
    """Open loop: yield ``(i, due)`` for ``n`` frames on a fixed schedule,
    each no earlier than its due time and, after a stall, as late as the
    stall made it — the schedule never waits for the program."""
    begin = time.perf_counter()
    for i in range(n):
        due = begin + i / rate_hz
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        yield i, due


class Viewer:
    """The benchmark's viewer: a thread blocked in ``next_frame`` that
    acks every delivery and timestamps it.

    ``decode=False`` makes it an ack-only connection — a viewer *is* a
    blocked connection, and sixteen decoding viewers on two cores would
    measure the load generator.  Every frame it does decode must come out
    in ``shape``.
    """

    def __init__(self, handle, decode: bool, shape: tuple[int, int, int]):
        self.handle = handle
        self.decode = decode
        self.shape = shape
        #: (frame id, receipt time, payload bytes), in arrival order
        self.receipts: list[tuple[int, float, int]] = []
        self.errors: list[str] = []
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self.thread = threading.Thread(
            target=self._run, name=f"e2e-viewer-{handle.name}", daemon=True
        )
        self.thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                frame = self.handle.next_frame(timeout=0.2, decode=self.decode)
            except TimeoutError:
                continue
            except ConnectionError:
                return
            except ValueError as exc:  # FrameDecodeError: counted as failed
                self.errors.append(str(exc))
                continue
            now = time.perf_counter()
            if frame.image is not None and frame.image.shape != self.shape:
                self.errors.append(
                    f"frame {frame.frame_id} decoded to shape {frame.image.shape}"
                )
            with self._cond:
                self.receipts.append((frame.frame_id, now, frame.payload_bytes))
                self._cond.notify_all()

    def wait_for(self, count: int, timeout: float) -> bool:
        """Block until ``count`` receipts have been recorded."""
        with self._cond:
            return self._cond.wait_for(
                lambda: len(self.receipts) >= count, timeout=timeout
            )

    def stop(self) -> None:
        self._stop.set()
        self.handle.leave()  # closes the link, which wakes the blocked recv
        self.thread.join(timeout=5.0)


def check_no_leaked_threads(before: int, timeout: float = 5.0) -> None:
    """Everything the workload started must have ended by teardown."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    leaked = [t.name for t in threading.enumerate()][before:]
    check(
        threading.active_count() <= before,
        f"threads still alive after teardown: {leaked}",
    )
