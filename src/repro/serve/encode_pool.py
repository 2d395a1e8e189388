"""Multi-process encode pool fed via shared-memory frame planes.

Every codec in :mod:`repro.compress` is pure-python CPU work, so cold
cache fills done on broker threads all contend for one GIL — the wall
the BENCH_serve cold numbers hit long before the network does.  This
pool moves those encodes into a fixed set of worker *processes* (the
MovieMaker processor-group idea applied to the serving tier: a small
pool kept saturated, not a process per request).

The frame crosses the process boundary through a
:class:`multiprocessing.shared_memory.SharedMemory` plane, never
through a pickle: the submitting thread copies the image into a
reusable slot, the worker maps the same plane as an ndarray, encodes,
and ships back only the compressed payload (tens of KB).  Slots are
recycled through a free list, so a steady state of N in-flight encodes
touches exactly N planes no matter how many frames cross the pool.

Correctness properties the serve layer relies on:

- **Coalescing** — concurrent requests for the same content address
  (the ``(frame_id, codec, quality)`` cache key) share one worker
  encode; every shard of a sharded broker can miss on the same frame
  and the origin still pays for it once.
- **Crash retry** — a worker that dies mid-encode has its in-flight
  tasks reassigned to a live worker (and the dead worker respawned);
  the caller never observes the crash, and because results land in the
  cache via ``get_or_encode`` under a content key, a retry can never
  duplicate a fill.
- **Inline fallback** — a request that outlives ``timeout`` (or races
  pool shutdown) is encoded in-process instead, so the pool can only
  ever make a cold fill faster, never wedge it.
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue
import threading
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.compress import Codec
from repro.compress.context import CodecContext, bound_codec
from repro.devtools.guards import guarded_by

__all__ = ["EncodePool", "EncodeFailed"]

#: a slot is never created smaller than this, so tiny frames still
#: recycle through the same free list as full-size ones
_MIN_SLOT_BYTES = 64 << 10


def _stop_resource_tracker() -> None:
    """Stop and reap the resource tracker as this interpreter exits.

    CPython starts the tracker on first use as a separate interpreter and
    lets it outlive this one: reparented, it lingers until it reads EOF
    and is reaped (1.5 s after exit on a 2-vCPU Linux VM).  Stopping it when the last
    pool closes instead would start a new one for every pool opened after
    that, at 80 ms of CPU each.  A live child may still hold the tracker's
    pipe, and the tracker exits only once every holder has closed it, so
    then it is left to outlive us as before.
    """
    if multiprocessing.active_children():
        return
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is None:
        return
    try:
        stop()
    except ChildProcessError:  # started by a parent this was forked from
        pass


atexit.register(_stop_resource_tracker)


class EncodeFailed(RuntimeError):
    """A worker raised while encoding (deterministic codec error)."""


def _record_error(results, worker_id: int, task_id: int,
                  exc: Exception) -> None:
    """Ship a worker-side encode failure back to the parent, typed."""
    results.put(
        ("error", worker_id, task_id, f"{type(exc).__name__}: {exc}")
    )


def _worker_main(worker_id: int, tasks, results,
                 shared_tracker: bool) -> None:
    """One worker process: map the plane, encode, ship the payload back.

    Codecs (and their :class:`CodecContext` scratch buffers) persist
    across tasks, so a worker stays as warm as the in-process encoder
    it replaces.
    """
    codecs: dict[tuple[str, int | None], Codec] = {}
    context = CodecContext()
    while True:
        task = tasks.get()
        if task is None:
            return
        task_id, shm_name, shape, dtype, codec_name, quality = task
        try:
            seg = shared_memory.SharedMemory(name=shm_name)
            try:
                if not shared_tracker and hasattr(
                        resource_tracker, "unregister"):
                    # under spawn this child runs its own resource
                    # tracker, which just registered a segment the
                    # *parent* owns — drop that registration or the
                    # child tracker reports phantom leaks at exit.
                    # Under fork the tracker process is shared (the
                    # registry add above was an idempotent no-op) and
                    # the parent's registration must survive us.
                    resource_tracker.unregister(seg._name, "shared_memory")
                plane = np.ndarray(shape, dtype=np.dtype(dtype),
                                   buffer=seg.buf)
                image = plane.copy()  # detach before the slot is recycled
            finally:
                seg.close()
            payload = bound_codec(
                codecs, context, codec_name, quality
            ).encode_image(image)
        except Exception as exc:  # shipped back typed, never swallowed
            _record_error(results, worker_id, task_id, exc)
            continue
        results.put(("done", worker_id, task_id, payload))


class _Pending:
    """Parent-side record of one in-flight encode."""

    __slots__ = ("event", "payload", "error", "key")

    def __init__(self, key):
        self.event = threading.Event()
        self.payload: bytes | None = None
        self.error: str | None = None
        self.key = key


class _Worker:
    """One child process plus its private task queue.

    The queue being per-worker is what makes crash recovery exact: the
    parent knows precisely which task ids it handed each worker, so a
    dead worker's unfinished work — claimed or still queued — can be
    replayed onto a live one.
    """

    def __init__(self, ctx, worker_id: int, results, shared_tracker: bool):
        self.worker_id = worker_id
        self.tasks = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.tasks, results, shared_tracker),
            daemon=True,
        )
        self.process.start()


class EncodePool:
    """A fixed pool of encode worker processes with shared-memory feed.

    Parameters
    ----------
    workers:
        Worker process count.  Two saturate the cold path of a typical
        4-tier ladder; more helps only while distinct (frame, tier)
        misses outnumber them.

    Workers start by ``fork`` where available (they inherit the imported
    codec modules), else by the platform's default start method.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        fork = "fork" in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if fork else None)
        #: fork workers share the parent's resource-tracker process;
        #: spawn workers run their own (see _worker_main)
        self._shared_tracker = self._ctx.get_start_method() == "fork"
        if self._shared_tracker and hasattr(resource_tracker, "ensure_running"):
            # start the tracker *before* forking workers: children must
            # inherit its pipe or each one silently spawns a private
            # tracker that reports every attached slot as leaked when
            # the worker exits
            resource_tracker.ensure_running()
        self._results = self._ctx.Queue()
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []  # guarded-by: _lock
        #: task id -> parent-side wait record
        self._pending: dict[int, _Pending] = {}  # guarded-by: _lock
        #: task id -> (worker index, task tuple) for crash replay
        self._assigned: dict[int, tuple[int, tuple]] = {}  # guarded-by: _lock
        #: content key -> in-flight record (request coalescing)
        self._inflight: dict[tuple, _Pending] = {}  # guarded-by: _lock
        #: task id -> the shared-memory slot its frame occupies
        # borrows: _slot_of -- indexes into _all_slots, which owns the planes
        self._slot_of: dict[int, shared_memory.SharedMemory] = {}  # guarded-by: _lock
        # borrows: _free_slots -- recycled entries; _all_slots owns them
        self._free_slots: list[shared_memory.SharedMemory] = []  # guarded-by: _lock
        self._all_slots: list[shared_memory.SharedMemory] = []  # guarded-by: _lock
        #: serializes inline-fallback encodes (they share scratch buffers)
        self._inline_lock = threading.Lock()
        self._inline_codecs: dict[tuple[str, int | None], Codec] = {}  # guarded-by: _inline_lock
        self._inline_context = CodecContext()
        self._task_counter = 0  # guarded-by: _lock
        self._next_worker = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        #: encodes completed by workers
        self.encodes = 0  # guarded-by: _lock
        #: requests that piggybacked on an identical in-flight encode
        self.coalesced = 0  # guarded-by: _lock
        #: tasks replayed onto a live worker after a worker death
        self.retries = 0  # guarded-by: _lock
        #: workers respawned after dying mid-stream
        self.worker_restarts = 0  # guarded-by: _lock
        #: requests finished in-process (timeout or shutdown race)
        self.inline_fallbacks = 0  # guarded-by: _lock
        self._collector: threading.Thread | None = None
        try:
            with self._lock:
                for i in range(workers):
                    self._workers.append(
                        _Worker(self._ctx, i, self._results,
                                self._shared_tracker)
                    )
            collector = threading.Thread(
                target=self._collect, name="encode-pool-collector",
                daemon=True
            )
            collector.start()
            self._collector = collector
        except BaseException:
            # a failed spawn must not strand the workers already forked
            self.close()
            raise

    # -- public surface ------------------------------------------------------

    def encode(
        self,
        image: np.ndarray,
        codec: str,
        quality: int | None = None,
        *,
        key: tuple | None = None,
        timeout: float = 30.0,
        _worker: int | None = None,
    ) -> bytes:
        """Encode ``image`` on a worker; blocks until the payload is back.

        ``key`` is the content address of the request: two concurrent
        calls with the same key share one worker encode.  ``_worker``
        pins the task to a worker index (crash-recovery tests only).
        A request that outlives ``timeout`` is encoded inline instead.

        Raises :class:`EncodeFailed` if the codec itself raised (the
        error is deterministic — an inline retry would raise too) and
        :class:`RuntimeError` if the pool is closed.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("encode() on a closed EncodePool")
            if key is not None:
                shared = self._inflight.get(key)
                if shared is not None:
                    self.coalesced += 1
                    pending = shared
                    submitted = False
                else:
                    pending = self._submit_locked(image, codec, quality,
                                                  key, _worker)
                    submitted = True
            else:
                pending = self._submit_locked(image, codec, quality,
                                              key, _worker)
                submitted = True
        if not pending.event.wait(timeout):
            if submitted:
                return self._fallback_inline(image, codec, quality, pending)
            # a coalesced waiter owns no task to cancel; just encode
            return self._fallback_inline(image, codec, quality, None)
        if pending.error is not None:
            if pending.error == "pool closed":
                raise RuntimeError("EncodePool closed mid-encode")
            raise EncodeFailed(pending.error)
        return pending.payload

    def stats_snapshot(self) -> dict:
        """Every counter copied in one critical section."""
        with self._lock:
            return {
                "workers": len(self._workers),
                "encodes": self.encodes,
                "coalesced": self.coalesced,
                "retries": self.retries,
                "worker_restarts": self.worker_restarts,
                "inline_fallbacks": self.inline_fallbacks,
                "slots": len(self._all_slots),
            }

    def close(self) -> None:
        """Stop workers, fail stragglers over to inline, free the planes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            pending = list(self._pending.values())
            self._pending.clear()
            self._assigned.clear()
            self._inflight.clear()
            self._slot_of.clear()
            slots = list(self._all_slots)
            self._all_slots.clear()
            self._free_slots.clear()
        for record in pending:  # unblock waiters; they fall back inline
            record.error = "pool closed"
            record.event.set()
        for w in workers:
            w.tasks.put(None)
        for w in workers:
            w.process.join(timeout=2.0)
            if w.process.is_alive():
                w.process.kill()
                w.process.join(timeout=2.0)
        self._results.put(None)
        if self._collector is not None:
            self._collector.join(timeout=2.0)
        for slot in slots:
            slot.close()
            try:
                slot.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "EncodePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    @guarded_by("_lock")
    def _submit_locked(self, image, codec, quality, key,
                       worker_hint) -> _Pending:
        task_id = self._task_counter
        self._task_counter += 1
        slot = self._acquire_slot_locked(image.nbytes)
        try:
            plane = np.ndarray(image.shape, dtype=image.dtype,
                               buffer=slot.buf)
            plane[...] = image
        except BaseException:
            # a bad image (lying nbytes, dtype mismatch) must not eat
            # the slot: recycle it or every failed submit grows a new
            # shared-memory segment
            self._free_slots.append(slot)
            raise
        self._slot_of[task_id] = slot
        task = (task_id, slot.name, tuple(image.shape), str(image.dtype),
                codec, quality)
        pending = _Pending(key)
        self._pending[task_id] = pending
        if key is not None:
            self._inflight[key] = pending
        index = (
            worker_hint
            if worker_hint is not None
            else self._next_worker % len(self._workers)
        )
        self._next_worker += 1
        self._assigned[task_id] = (index, task)
        self._workers[index].tasks.put(task)
        return pending

    @guarded_by("_lock")
    def _acquire_slot_locked(self, nbytes: int) -> shared_memory.SharedMemory:
        for i, slot in enumerate(self._free_slots):
            if slot.size >= nbytes:
                return self._free_slots.pop(i)
        slot = shared_memory.SharedMemory(
            create=True, size=max(nbytes, _MIN_SLOT_BYTES)
        )
        self._all_slots.append(slot)
        return slot

    def _fallback_inline(self, image, codec, quality,
                         pending: _Pending | None) -> bytes:
        """Encode in the calling process after a timeout/shutdown race."""
        with self._lock:
            self.inline_fallbacks += 1
            if pending is not None and pending.key is not None:
                if self._inflight.get(pending.key) is pending:
                    del self._inflight[pending.key]
        with self._inline_lock:
            return bound_codec(
                self._inline_codecs, self._inline_context, codec, quality
            ).encode_image(image)

    # -- result collection / crash recovery ----------------------------------

    def _collect(self) -> None:
        """Parent thread: resolve results, watch worker liveness."""
        while True:
            try:
                msg = self._results.get(timeout=0.2)
            except queue.Empty:
                with self._lock:
                    if self._closed:
                        return
                self._check_workers()
                continue
            if msg is None:
                return
            kind, _worker_id, task_id, payload = msg
            with self._lock:
                pending = self._pending.pop(task_id, None)
                self._assigned.pop(task_id, None)
                slot = self._slot_of.pop(task_id, None)
                if slot is not None:
                    self._free_slots.append(slot)
                if pending is not None and pending.key is not None:
                    if self._inflight.get(pending.key) is pending:
                        del self._inflight[pending.key]
                if pending is not None and kind == "done":
                    self.encodes += 1
            if pending is None:
                continue  # already failed over (timeout/close)
            if kind == "error":
                pending.error = payload
            else:
                pending.payload = payload
            pending.event.set()

    def _check_workers(self) -> None:
        """Respawn dead workers and replay their unfinished tasks."""
        with self._lock:
            if self._closed:
                return
            dead = [
                i
                for i, w in enumerate(self._workers)
                if not w.process.is_alive()
            ]
            replay: list[tuple] = []
            for i in dead:
                self._workers[i] = _Worker(
                    self._ctx, i, self._results, self._shared_tracker
                )
                self.worker_restarts += 1
                for task_id, (index, task) in list(self._assigned.items()):
                    if index == i:
                        replay.append(task)
                        del self._assigned[task_id]
            for task in replay:
                task_id = task[0]
                live = [
                    i
                    for i, w in enumerate(self._workers)
                    if w.process.is_alive()
                ]
                index = live[self._next_worker % len(live)] if live else 0
                self._next_worker += 1
                self._assigned[task_id] = (index, task)
                self._workers[index].tasks.put(task)
                self.retries += 1
