"""Chunked kernel execution: serial and threaded.

An executor runs ``kernel(slice) -> partial`` over every row chunk of a
table and returns the partials in chunk order; the caller reduces them
(sums of bincounts, ORs of masks, ...).  This mirrors the paper's OpenMP
parallel-for + reduction structure.

* :class:`SerialExecutor` — reference implementation.
* :class:`ThreadExecutor` — a persistent :class:`ThreadTeam`; real
  parallelism because NumPy kernels drop the GIL.

Work across processes and nodes is :mod:`repro.shard`'s job, not an
executor's.

All executors share one instrumented execution path: when observability
is enabled (:mod:`repro.obs`) or a :class:`ProfileCollector` is passed,
every chunk's wall time and worker identity is recorded and fed to the
span/metrics layer.  With observability off and no collector, the cost
is a single flag check per map call.

Fault tolerance: chunks are pure functions of their row range, so every
recovery is a re-execution.  While a fault injector targets
``executor.chunk``, a chunk whose kernel raised :class:`TransientFault`
is re-run, up to :data:`CHUNK_ATTEMPTS` runs in all, and the
:class:`ThreadTeam` revives a worker thread that died.  All of it is off
the hot path: with no fault injector installed, kernels run exactly as
written.
"""

from __future__ import annotations

import os
import threading
import time
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
    "CHUNK_ATTEMPTS",
    "CancelToken",
    "QueryCancelled",
    "default_chunk_rows",
]

T = TypeVar("T")


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


#: Runs a chunk gets when its kernel keeps raising :class:`TransientFault`
#: (chunk kernels are pure reads over immutable columns, so a re-run is
#: always safe).
CHUNK_ATTEMPTS = 3


def default_chunk_rows(n_rows: int, n_workers: int) -> int:
    """Chunk size giving each worker ~4 morsels (load balance without
    drowning in kernel-launch overhead)."""
    return max(65_536, -(-n_rows // max(1, 4 * n_workers)))


class Executor:
    """Base class; subclasses implement :meth:`_run`."""

    n_workers: int = 1

    def _maybe_resilient(
        self, kernel: Callable[[slice], T]
    ) -> Callable[[slice], T]:
        """Wrap ``kernel`` with the fault point + retry loop when needed.

        The wrapper is applied only when a fault injector targets
        ``executor.chunk`` — otherwise the caller's kernel passes
        through untouched and the map hot path costs one check.
        """
        if not _faults.site_active("executor.chunk"):
            return kernel
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
                    if attempt >= CHUNK_ATTEMPTS:
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
            results = self._run(self._wrap(kernel, collector, parent), chunks)
        if _obs._enabled and chunks:
            name = type(self).__name__
            rows = sum(sl.stop - sl.start for sl in chunks)
            _metrics.counter("executor_map_calls_total", executor=name).inc()
            _metrics.counter("executor_chunks_total", executor=name).inc(len(chunks))
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

    def __init__(self, n_threads: int | None = None) -> None:
        self.n_workers = n_threads or (os.cpu_count() or 1)
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
