"""A persistent thread team with OpenMP-style dynamic scheduling.

NumPy kernels release the GIL while they run, so a team of Python
threads executing vectorized kernels over disjoint row ranges achieves
real shared-memory parallelism — the same execution model as the paper's
``#pragma omp parallel for schedule(dynamic)`` loops: each row range is
pulled from a shared queue by whichever worker frees up first.

Workers are long-lived; a team is created once and reused across
queries, avoiding per-query thread spawn cost.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Sequence

from repro.obs import metrics as _metrics
from repro.obs import state as _obs
from repro.obs import telemetry as _telemetry

__all__ = ["ThreadTeam"]

_SENTINEL = object()


class ThreadTeam:
    """Fixed-size worker team executing task batches.

    Usage::

        with ThreadTeam(8) as team:
            partials = team.run(kernel, chunks)
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = n_threads
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._shutdown = False
        # Per-worker busy nanoseconds; each slot is written only by its
        # own worker thread, so no lock is needed.  Only accumulated
        # while observability is enabled.
        self._busy_ns = [0] * n_threads
        self._workers = [self._spawn(i) for i in range(n_threads)]

    def _spawn(self, index: int) -> threading.Thread:
        w = threading.Thread(
            target=self._worker, args=(index,), name=f"team-{index}", daemon=True
        )
        w.start()
        return w

    def _revive_dead(self) -> None:
        """Replace any worker thread that has died (a kernel that killed
        its thread must not silently shrink the team)."""
        for i, w in enumerate(self._workers):
            if not w.is_alive():
                _metrics.counter("team_worker_restarts_total").inc()
                _telemetry.flight().record("thread_revive", worker=w.name)
                self._workers[i] = self._spawn(i)

    # -- worker loop -----------------------------------------------------

    def _worker(self, index: int) -> None:
        while True:
            item = self._tasks.get()
            if item is _SENTINEL:
                return
            fn, done = item
            try:
                if _obs._enabled:
                    t0 = time.perf_counter_ns()
                    try:
                        fn()
                    finally:
                        self._busy_ns[index] += time.perf_counter_ns() - t0
                else:
                    fn()
            finally:
                done.release()

    def _submit_and_wait(self, thunks: Sequence[Callable[[], None]]) -> None:
        self._revive_dead()
        done = threading.Semaphore(0)
        for t in thunks:
            self._tasks.put((t, done))
        for _ in thunks:
            done.acquire()

    # -- public API --------------------------------------------------------

    def run(
        self,
        kernel: Callable[[object], object],
        items: Sequence[object],
    ) -> list[object]:
        """Run ``kernel(item)`` for every item; returns results in order.

        Each item is an independent task pulled by whichever worker is
        free, so skewed chunk costs balance themselves.

        A kernel exception cancels nothing — other chunks still run — but
        the first exception is re-raised afterwards.
        """
        if self._shutdown:
            raise RuntimeError("team is closed")
        obs_on = _obs._enabled
        busy0 = sum(self._busy_ns) if obs_on else 0
        wall0 = time.perf_counter_ns() if obs_on else 0
        n = len(items)
        results: list[object] = [None] * n
        errors: list[BaseException] = []
        lock = threading.Lock()

        def run_one(i: int) -> None:
            try:
                results[i] = kernel(items[i])
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with lock:
                    errors.append(exc)

        thunks = [lambda i=i: run_one(i) for i in range(n)]
        self._submit_and_wait(thunks)
        if obs_on:
            # Busy/idle accounting for this batch: busy is summed worker
            # kernel time, idle is the remainder of (wall x team size).
            busy_s = (sum(self._busy_ns) - busy0) / 1e9
            wall_s = (time.perf_counter_ns() - wall0) / 1e9
            _metrics.counter("team_tasks_total").inc(len(thunks))
            _metrics.counter("team_busy_seconds_total").inc(busy_s)
            _metrics.counter("team_idle_seconds_total").inc(
                max(0.0, wall_s * self.n_threads - busy_s)
            )
        if errors:
            raise errors[0]
        return results

    def busy_seconds(self) -> list[float]:
        """Cumulative per-worker busy time (observability-enabled runs only)."""
        return [ns / 1e9 for ns in self._busy_ns]

    def close(self) -> None:
        """Stop all workers (idempotent)."""
        if self._shutdown:
            return
        self._shutdown = True
        for _ in self._workers:
            self._tasks.put(_SENTINEL)
        for w in self._workers:
            w.join()

    def __enter__(self) -> "ThreadTeam":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
