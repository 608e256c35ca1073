"""Chunked kernel execution: serial, threaded, and process-based.

An executor runs ``kernel(slice) -> partial`` over every row chunk of a
table and returns the partials in chunk order; the caller reduces them
(sums of bincounts, ORs of masks, ...).  This mirrors the paper's OpenMP
parallel-for + reduction structure.

* :class:`SerialExecutor` — reference implementation.
* :class:`ThreadExecutor` — a persistent :class:`ThreadTeam`; real
  parallelism because NumPy kernels drop the GIL.
* :class:`ProcessExecutor` — fork-based; workers inherit the parent's
  address space copy-on-write, so read-only column arrays are shared for
  free.  Exists mainly for the thread-vs-process ablation; fork+IPC cost
  is part of what it measures.

All executors share one instrumented execution path: when observability
is enabled (:mod:`repro.obs`) or a :class:`ProfileCollector` is passed,
every chunk's wall time and worker identity is recorded and fed to the
span/metrics layer.  With observability off and no collector, the cost
is a single flag check per map call.

Fault tolerance: chunks are pure functions of their row range, so every
recovery is a re-execution.  A :class:`ChunkRetryPolicy` retries a
chunk whose kernel raised a transient error; :class:`ProcessExecutor`
additionally detects dead workers (a fork child that segfaulted or was
OOM-killed), re-dispatches their in-flight chunk to a fresh worker, and
can duplicate chunks that straggle past a deadline (first result wins).
All of it is off the hot path: with no retry policy and no fault
injector installed, kernels run exactly as before.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection as _mpconn
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.faults import injector as _faults
from repro.faults.injector import TransientFault
from repro.obs import metrics as _metrics
from repro.obs import state as _obs
from repro.obs import telemetry as _telemetry
from repro.obs.profile import ProfileCollector
from repro.obs.trace import span as _span
from repro.obs.trace import tracer as _tracer
from repro.parallel.chunking import row_chunks
from repro.parallel.pool import ThreadTeam

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "ChunkRetryPolicy",
    "CancelToken",
    "QueryCancelled",
    "default_chunk_rows",
]

T = TypeVar("T")

logger = logging.getLogger(__name__)


class QueryCancelled(Exception):
    """Raised inside a map call when its :class:`CancelToken` fires.

    Cancellation is cooperative: the executor checks the token before
    each chunk, so an in-progress kernel finishes but no further chunk
    is started.  The serving layer maps this to a ``DEADLINE_EXCEEDED``
    shed, never an error — a cancelled query did nothing wrong.
    """


class CancelToken:
    """Cooperative cancellation: an explicit flag plus an optional deadline.

    ``deadline_s`` is an absolute :func:`time.monotonic` timestamp; the
    token reads as cancelled once it passes.  :meth:`cancel` fires it
    immediately from any thread.  Checking is lock-free — a bool read
    and a clock read — so the per-chunk cost is negligible next to any
    real kernel.
    """

    __slots__ = ("deadline_s", "_cancelled", "reason")

    def __init__(self, deadline_s: float | None = None) -> None:
        self.deadline_s = deadline_s
        self._cancelled = False
        self.reason = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        if self._cancelled:
            return True
        if self.deadline_s is not None and time.monotonic() > self.deadline_s:
            self.reason = "deadline"
            self._cancelled = True
            return True
        return False

    def check(self) -> None:
        """Raise :class:`QueryCancelled` when the token has fired."""
        if self.cancelled:
            raise QueryCancelled(self.reason)


@dataclass(frozen=True, slots=True)
class ChunkRetryPolicy:
    """Bounded re-execution of chunks whose kernel raised transiently.

    Chunk kernels are pure reads over immutable columns, so re-running
    one is always safe.  A chunk that raises :class:`TransientFault` is
    re-run at once, up to ``max_attempts`` runs in all.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def default_chunk_rows(n_rows: int, n_workers: int) -> int:
    """Chunk size giving each worker ~4 morsels (load balance without
    drowning in kernel-launch overhead)."""
    return max(65_536, -(-n_rows // max(1, 4 * n_workers)))


class Executor:
    """Base class; subclasses implement :meth:`_run`."""

    n_workers: int = 1
    #: Optional per-chunk retry policy (set by subclass constructors).
    retry: ChunkRetryPolicy | None = None
    #: True when workers count ``rows_scanned_total`` themselves and ship
    #: it back via the telemetry delta (ProcessExecutor) — the parent
    #: must then not double-count it.
    _rows_counted_in_child: bool = False

    def _maybe_resilient(
        self, kernel: Callable[[slice], T]
    ) -> Callable[[slice], T]:
        """Wrap ``kernel`` with the fault point + retry loop when needed.

        The wrapper is applied only when a retry policy is set or a
        fault injector targets ``executor.chunk`` — otherwise the
        caller's kernel passes through untouched and the map hot path
        costs one attribute check.
        """
        policy = self.retry
        if policy is None:
            if not _faults.site_active("executor.chunk"):
                return kernel
            policy = ChunkRetryPolicy()
        name = type(self).__name__

        def resilient(sl: slice) -> T:
            attempt = 0
            while True:
                try:
                    _faults.fault_point(
                        "executor.chunk",
                        key=f"{sl.start}:{sl.stop}",
                        attempt=attempt,
                    )
                    return kernel(sl)
                except TransientFault:
                    attempt += 1
                    if attempt >= policy.max_attempts:
                        raise
                    _metrics.counter("chunk_retries_total", executor=name).inc()
                    _telemetry.flight().record(
                        "chunk_retry",
                        executor=name,
                        chunk=f"{sl.start}:{sl.stop}",
                        attempt=attempt,
                    )

        return resilient

    @staticmethod
    def _with_cancel(
        kernel: Callable[[slice], T], cancel: CancelToken
    ) -> Callable[[slice], T]:
        """Check the token before every chunk dispatch.

        The check runs on whichever worker thread picks the chunk up, so
        a deadline that passes mid-map stops every not-yet-started chunk
        — the workers return to the pool instead of scanning for a
        caller that has already given up.
        """

        def checked(sl: slice) -> T:
            cancel.check()
            return kernel(sl)

        return checked

    def _plan(self, n_rows: int, chunk_rows: int | None) -> list[slice]:
        """Chunk ``[0, n_rows)`` into the slices one map call executes."""
        if chunk_rows is None:
            chunk_rows = default_chunk_rows(n_rows, self.n_workers)
        return row_chunks(n_rows, chunk_rows)

    def map_chunks(
        self,
        kernel: Callable[[slice], T],
        n_rows: int,
        chunk_rows: int | None = None,
        profile: ProfileCollector | None = None,
        cancel: CancelToken | None = None,
    ) -> list[T]:
        """Run ``kernel`` over every chunk of ``[0, n_rows)``; ordered results.

        When ``profile`` is given, per-chunk timings are recorded into it
        regardless of the global observability switch.  ``cancel`` is
        checked before each chunk; a fired token aborts the map with
        :class:`QueryCancelled` instead of scanning to the end.
        """
        return self._execute(kernel, self._plan(n_rows, chunk_rows), profile, cancel)

    def map_slices(
        self,
        kernel: Callable[[slice], T],
        slices: Sequence[slice],
        profile: ProfileCollector | None = None,
        cancel: CancelToken | None = None,
    ) -> list[T]:
        """Run ``kernel`` over an explicit (possibly non-contiguous) slice
        list — the planner's entry point for pruned scans.  Results come
        back in ``slices`` order."""
        return self._execute(kernel, list(slices), profile, cancel)

    # -- instrumented execution -------------------------------------------

    def _execute(
        self,
        kernel: Callable[[slice], T],
        chunks: Sequence[slice],
        profile: ProfileCollector | None,
        cancel: CancelToken | None = None,
    ) -> list[T]:
        """Run chunks, recording per-chunk timings when asked to.

        The fast path — observability off, no collector — dispatches
        straight to :meth:`_run` with the caller's kernel untouched.
        """
        kernel = self._maybe_resilient(kernel)
        if cancel is not None:
            kernel = self._with_cancel(kernel, cancel)
        if profile is None and not _obs._enabled:
            return self._run(kernel, chunks)
        collector = profile if profile is not None else ProfileCollector()
        with _span(
            "executor.map_chunks",
            executor=type(self).__name__,
            chunks=len(chunks),
            workers=self.n_workers,
        ) as sp:
            parent = getattr(sp, "span_id", None)
            results = self._finalize(
                self._run(self._wrap(kernel, collector, parent), chunks),
                collector,
                parent,
            )
        if _obs._enabled and chunks:
            name = type(self).__name__
            rows = sum(sl.stop - sl.start for sl in chunks)
            _metrics.counter("executor_map_calls_total", executor=name).inc()
            _metrics.counter("executor_chunks_total", executor=name).inc(len(chunks))
            if not self._rows_counted_in_child:
                _metrics.counter("rows_scanned_total", executor=name).inc(rows)
            hist = _metrics.histogram("chunk_seconds", executor=name)
            busy = 0.0
            for c in collector.timings():
                hist.observe(c.seconds)
                busy += c.seconds
            _metrics.counter("worker_busy_seconds_total", executor=name).inc(busy)
        return results

    def _wrap(
        self,
        kernel: Callable[[slice], T],
        collector: ProfileCollector,
        parent: int | None,
    ) -> Callable[[slice], T]:
        """Wrap ``kernel`` to time each chunk on the executing thread."""
        record_spans = _obs._enabled

        def wrapped(sl: slice) -> T:
            t0 = time.perf_counter_ns()
            result = kernel(sl)
            t1 = time.perf_counter_ns()
            collector.add(
                sl.start, sl.stop, t0 / 1e9, t1 / 1e9,
                threading.current_thread().name,
            )
            if record_spans:
                _tracer().add_complete(
                    "executor.chunk", t0, t1, parent=parent,
                    rows=sl.stop - sl.start,
                )
            return result

        return wrapped

    def _finalize(
        self, results: list, collector: ProfileCollector, parent: int | None
    ) -> list:
        """Post-process instrumented results (hook for fork executors)."""
        return results

    def _run(self, kernel: Callable[[slice], T], chunks: Sequence[slice]) -> list[T]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Single-threaded chunk-by-chunk execution."""

    n_workers = 1

    def _run(self, kernel, chunks):
        return [kernel(sl) for sl in chunks]


class ThreadExecutor(Executor):
    """A persistent thread team running chunks concurrently."""

    def __init__(
        self,
        n_threads: int | None = None,
        retry: ChunkRetryPolicy | None = None,
    ) -> None:
        self.n_workers = n_threads or (os.cpu_count() or 1)
        self.retry = retry
        self._team: ThreadTeam | None = None

    def _ensure_team(self) -> ThreadTeam:
        if self._team is None:
            self._team = ThreadTeam(self.n_workers)
        return self._team

    def _run(self, kernel, chunks):
        return self._ensure_team().run(kernel, list(chunks))

    def close(self) -> None:
        if self._team is not None:
            self._team.close()
            self._team = None


# --- process executor -----------------------------------------------------

# Fork-inherited kernel registry: populated in the parent immediately
# before the pool forks, read by children.  _FORK_LOCK serializes
# concurrent map calls (from different threads or different
# ProcessExecutor instances) so one call's kernel can never leak into
# another call's forked children.
_FORK_KERNEL: list = [None]
_FORK_LOCK = threading.Lock()


def _invoke_forked(sl: slice):
    kernel = _FORK_KERNEL[0]
    return kernel(sl)


def _pool_worker(wid: int, task_q, result_q) -> None:
    """Fork-worker loop: pull (idx, start, stop, base_attempt) tasks,
    run the fork-inherited kernel, ship results back.

    Every task is bracketed by a ``start`` message and a ``done`` /
    ``error`` message, so the parent always knows which chunk an
    abruptly-dead worker was holding.  ``base_attempt`` carries the
    attempt count a previous (crashed) worker already consumed, keeping
    deterministic fail-after-N fault semantics across process
    boundaries.
    """
    while True:
        task = task_q.get()
        if task is None:
            return
        idx, start, stop, base_attempt = task
        _faults.set_base_attempt(base_attempt)
        result_q.put(("start", wid, idx, None))
        try:
            payload = _invoke_forked(slice(start, stop))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            result_q.put(("error", wid, idx, exc))
            continue
        try:
            result_q.put(("done", wid, idx, payload))
        except Exception as exc:  # unpicklable partial
            result_q.put(
                ("error", wid, idx,
                 RuntimeError(f"unpicklable chunk result: {exc!r}"))
            )


@dataclass(slots=True)
class _ForkChunk:
    """A chunk result measured inside a forked worker (pickled back).

    ``telemetry`` carries the compact metrics/span delta the worker
    recorded while running this chunk (None when it recorded nothing or
    observability is off) — the parent folds it into its own registry
    and tracer so worker-side telemetry survives the child's exit.
    """

    result: object
    start_row: int
    stop_row: int
    t0_ns: int
    t1_ns: int
    pid: int
    telemetry: object | None = None


class ProcessExecutor(Executor):
    """Fork-pool execution (one fresh pool per map call).

    The kernel and the arrays it closes over reach workers through fork
    copy-on-write rather than pickling, so arbitrary closures over huge
    read-only columns work; only the *partials* are pickled back.  Pool
    setup cost is intentionally included — it is precisely the overhead
    the thread-vs-process ablation quantifies.

    Unlike ``multiprocessing.Pool`` (which deadlocks if a worker dies
    mid-task), the pool is supervised: a dead worker's in-flight chunk
    is re-dispatched to a fresh fork, and with ``straggler_deadline_s``
    set, a chunk running past the deadline is duplicated onto another
    worker — whichever copy finishes first wins.
    """

    _rows_counted_in_child = True

    def __init__(
        self,
        n_workers: int | None = None,
        retry: ChunkRetryPolicy | None = None,
        straggler_deadline_s: float | None = None,
    ) -> None:
        self.n_workers = n_workers or (os.cpu_count() or 1)
        self.retry = retry
        self.straggler_deadline_s = straggler_deadline_s
        if multiprocessing.get_start_method(allow_none=True) not in (None, "fork"):
            raise RuntimeError("ProcessExecutor requires the fork start method")

    def _wrap(self, kernel, collector, parent):
        # Timings are taken inside the child and shipped back with the
        # partial; perf_counter_ns is CLOCK_MONOTONIC-based on Linux, so
        # child timestamps share the parent's timeline.  With obs on,
        # the child also counts its own scanned rows and captures a
        # registry/tracer delta around the kernel, so metrics and spans
        # recorded inside the fork ride the result pipe back instead of
        # dying with the worker.
        ship_telemetry = _obs._enabled

        def wrapped(sl: slice) -> _ForkChunk:
            baseline = _telemetry.capture_baseline() if ship_telemetry else None
            t0 = time.perf_counter_ns()
            result = kernel(sl)
            t1 = time.perf_counter_ns()
            delta = None
            if ship_telemetry:
                _metrics.counter(
                    "rows_scanned_total", executor="ProcessExecutor"
                ).inc(sl.stop - sl.start)
                delta = _telemetry.capture_delta(baseline)
            return _ForkChunk(
                result, sl.start, sl.stop, t0, t1, os.getpid(), delta
            )

        return wrapped

    def _finalize(self, results, collector, parent):
        record_spans = _obs._enabled
        out = []
        for item in results:
            worker = f"pid-{item.pid}"
            collector.add(
                item.start_row, item.stop_row,
                item.t0_ns / 1e9, item.t1_ns / 1e9, worker,
            )
            if record_spans:
                _tracer().add_complete(
                    "executor.chunk", item.t0_ns, item.t1_ns, parent=parent,
                    thread_name=worker, rows=item.stop_row - item.start_row,
                )
            _telemetry.merge_worker_telemetry(item.telemetry, parent=parent)
            out.append(item.result)
        return out

    def _run(self, kernel, chunks):
        chunks = list(chunks)
        if not chunks:
            return []
        with _FORK_LOCK:
            _FORK_KERNEL[0] = kernel
            try:
                return self._run_pool(chunks)
            finally:
                _FORK_KERNEL[0] = None

    def _run_pool(self, chunks: list[slice]) -> list:
        """Supervised fork pool: dispatch all chunks, collect results,
        replace dead workers, duplicate stragglers."""
        ctx = multiprocessing.get_context("fork")
        n = len(chunks)
        n_workers = max(1, min(self.n_workers, n))
        # SimpleQueue (not Queue): puts pickle synchronously in the
        # sender, so a worker can catch its own serialization failures,
        # and there is no feeder thread to lose messages.
        task_q = ctx.SimpleQueue()
        result_q = ctx.SimpleQueue()
        results: list = [None] * n
        have = [False] * n
        dispatches = [0] * n
        in_flight: dict[int, tuple[int, float]] = {}  # wid -> (idx, started)
        workers: dict[int, multiprocessing.Process] = {}
        relaunched: set[int] = set()
        next_wid = 0
        respawns = 0
        respawn_cap = max(4, 2 * n_workers)
        error: BaseException | None = None

        def spawn() -> None:
            nonlocal next_wid
            wid = next_wid
            next_wid += 1
            p = ctx.Process(
                target=_pool_worker, args=(wid, task_q, result_q), daemon=True
            )
            p.start()
            workers[wid] = p

        def dispatch(idx: int) -> None:
            # base_attempt = prior dispatches, so a chunk that crashed a
            # worker k times re-runs at attempt k (fail_attempts-aware).
            sl = chunks[idx]
            task_q.put((idx, sl.start, sl.stop, dispatches[idx]))
            dispatches[idx] += 1

        for _ in range(n_workers):
            spawn()
        for idx in range(n):
            dispatch(idx)

        try:
            while not all(have) and error is None:
                # Wake on a result message OR a worker death.
                handles = [result_q._reader]
                handles.extend(p.sentinel for p in workers.values())
                _mpconn.wait(handles, timeout=0.1)
                # Deaths are noted before the drain: a worker seen dead
                # here has every message it sent already in the pipe, so
                # its last "start" is read before its chunk is looked up
                # (the other order can lose a chunk that crashed fast).
                dead = [w for w, p in workers.items() if p.exitcode is not None]
                while not result_q.empty():
                    msg, wid, idx, payload = result_q.get()
                    if msg == "start":
                        in_flight[wid] = (idx, time.monotonic())
                    elif msg == "done":
                        in_flight.pop(wid, None)
                        if not have[idx]:  # duplicates: first result wins
                            have[idx] = True
                            results[idx] = payload
                    else:  # "error"
                        in_flight.pop(wid, None)
                        if error is None and not have[idx]:
                            error = payload
                if error is not None:
                    break
                for wid in dead:
                    p = workers.pop(wid)
                    held = in_flight.pop(wid, None)
                    _metrics.counter("executor_workers_died_total").inc()
                    _telemetry.flight().record(
                        "worker_death",
                        wid=wid,
                        exitcode=p.exitcode,
                        chunk=held[0] if held else None,
                    )
                    logger.warning(
                        "fork worker %d died (exit %s)%s",
                        wid, p.exitcode,
                        f" holding chunk {held[0]}" if held else "",
                    )
                    if held is not None and not have[held[0]]:
                        _metrics.counter("chunks_redispatched_total").inc()
                        _telemetry.flight().record(
                            "chunk_redispatch", wid=wid, chunk=held[0]
                        )
                        dispatch(held[0])
                    if all(have):
                        break
                    if respawns >= respawn_cap:
                        error = RuntimeError(
                            f"ProcessExecutor: gave up after {respawns} "
                            "worker deaths"
                        )
                        break
                    respawns += 1
                    spawn()
                if self.straggler_deadline_s is not None and error is None:
                    now = time.monotonic()
                    for wid, (idx, t0) in list(in_flight.items()):
                        if have[idx] or idx in relaunched:
                            continue
                        if now - t0 > self.straggler_deadline_s:
                            relaunched.add(idx)
                            _metrics.counter("stragglers_relaunched_total").inc()
                            _telemetry.flight().record(
                                "straggler_relaunch",
                                wid=wid,
                                chunk=idx,
                                running_s=round(now - t0, 3),
                            )
                            logger.warning(
                                "chunk %d straggling on worker %d "
                                "(%.2fs > %.2fs); duplicating",
                                idx, wid, now - t0, self.straggler_deadline_s,
                            )
                            dispatch(idx)
        finally:
            for _ in workers:
                task_q.put(None)
            join_by = time.monotonic() + 5.0
            for p in workers.values():
                p.join(max(0.0, join_by - time.monotonic()))
            for p in workers.values():
                if p.exitcode is None:
                    p.terminate()
                    p.join(1.0)
            task_q.close()
            result_q.close()
        if error is not None:
            # Post-mortem state (worker deaths, redispatches, recent
            # spans) must survive the abort — dump before raising.
            _telemetry.flight().record(
                "pool_abort", error=f"{type(error).__name__}: {error}"
            )
            _telemetry.crash_dump(f"ProcessExecutor abort: {type(error).__name__}")
            raise error
        return results
