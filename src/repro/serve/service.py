"""The concurrent query service: submission, admission, execution.

:class:`QueryService` turns the single-caller engine into a
multi-tenant server in two stages:

1. **Admission** (:mod:`repro.serve.admission`) — every
   :meth:`~QueryService.submit` passes the rate-limit / queue-bound /
   deadline gate; rejected requests resolve immediately to ``shed``
   responses and never touch the engine.
2. **Execution** — each worker pass takes up to ``max_batch``
   requests straight from the priority queue, pins one store
   generation, and compiles each request.  Requests already past their
   deadline are shed instead of scanned; identical ones (same planner
   canonical key) single-flight: one leader executes, duplicates attach
   to its in-flight entry and receive copies of the same value.  The
   worker hands the leaders to the engine's runner
   (:func:`repro.engine.query.run_batch` — the same plan → result
   cache → fused scan path every ``store.query(...)`` terminal runs,
   whose cache also holds the views' pinned answers) on its own serial
   executor, and resolves every waiter.  A crashed pass resolves what
   it took and the loop restarts in place.

Graceful drain: :meth:`~QueryService.close` stops admitting (late
submissions shed with ``SHUTTING_DOWN``), waits for queued and
in-flight work to finish, then stops the threads.

The fault site ``serve.request`` fires on the execution path (key =
request id), so a :mod:`repro.faults` plan can slow or abort specific
requests to prove shedding kicks in and clients retry.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque

from repro.engine.executor import (
    CancelToken,
    Executor,
    QueryCancelled,
    SerialExecutor,
)
from repro.engine.planner import _copy_value
from repro.engine.query import ExecutableOp, QueryResult, run_batch
from repro.engine.store import GdeltStore
from repro.faults import injector as _faults
from repro.obs import metrics as _metrics
from repro.obs import telemetry as _telemetry
from repro.obs.profile import percentiles
from repro.obs.telemetry import SloTracker
from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerBoard
from repro.serve.lifecycle import StoreLease, StoreLifecycle
from repro.serve.protocol import ErrorCode, store_meta
from repro.serve.request import QueryRequest, QueryResponse, compile_request

__all__ = ["PendingRequest", "QueryService"]

logger = logging.getLogger(__name__)

#: How many completed-request latencies the service profile remembers.
_LATENCY_WINDOW = 4096

#: Shed reasons the admission controller itself accounts (its metrics
#: already count them; the service must not count them twice).
_ADMISSION_REASONS = frozenset(
    {ErrorCode.RATE_LIMITED, ErrorCode.QUEUE_FULL, ErrorCode.RETRY_AFTER}
)

#: How long an idle worker waits in admission before rechecking for
#: shutdown (close and kill_worker also wake it directly).
_IDLE_WAIT_S = 0.1


class _WorkerKilled(RuntimeError):
    """Raised at the start of a pass claimed by :meth:`QueryService.kill_worker`."""


class PendingRequest:
    """A submitted request's future response.

    Returned by :meth:`QueryService.submit`; resolved exactly once —
    possibly synchronously, for sheds and validation errors.
    """

    __slots__ = ("request", "arrival_s", "_event", "_response")

    def __init__(self, request: QueryRequest) -> None:
        self.request = request
        self.arrival_s = time.monotonic()
        self._event = threading.Event()
        self._response: QueryResponse | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> QueryResponse:
        """Block until resolved.

        Raises:
            TimeoutError: if ``timeout`` elapses first (the request
                itself stays pending and will still resolve).
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.id} not resolved within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def _resolve(self, response: QueryResponse) -> None:
        if self._event.is_set():  # first resolution wins
            return
        response.id = self.request.id
        self._response = response
        self._event.set()


class _InFlight:
    """Single-flight entry: the leader plus every attached duplicate."""

    __slots__ = ("leader", "followers")

    def __init__(self, leader: PendingRequest) -> None:
        self.leader = leader
        self.followers: list[PendingRequest] = []


class QueryService:
    """Thread-safe concurrent query serving over one read-only store.

    Args:
        store: the store to serve (never mutated).
        workers: number of service worker threads (passes in flight
            concurrently).  Each scans serially; concurrency comes from
            the worker threads themselves (NumPy kernels drop the GIL).
        max_queue / max_batch: admission queue bound and the most
            requests one worker takes per pass.
        rate_limit / burst: per-client token bucket (requests/second);
            None disables rate limiting.
        default_deadline_s: applied to requests that carry none.
        slo: burn-rate tracker for this service's objectives (default:
            :func:`repro.obs.telemetry.default_serve_objectives`).
        lifecycle: optional :class:`~repro.serve.lifecycle.StoreLifecycle`
            — enables zero-downtime hot reload; queries pin the
            generation they compile against.  Exactly one of ``store``
            / ``lifecycle`` drives serving (``lifecycle`` wins).
        breakers: per-failure-class circuit breakers; a fresh board by
            default.  The ``"execute"`` class gates :meth:`submit` —
            while open, requests shed immediately with ``CIRCUIT_OPEN``.
        views: optional :class:`~repro.views.catalog.ViewCatalog`
            whose views the server streams to subscribers.  A view hit
            needs no catalog here: a fresh view's answer is a pinned
            result-cache entry (``stats["source"] == "view"``).
    """

    def __init__(
        self,
        store: GdeltStore | None = None,
        workers: int = 2,
        max_queue: int = 256,
        max_batch: int = 16,
        rate_limit: float | None = None,
        burst: float | None = None,
        default_deadline_s: float | None = None,
        slo: SloTracker | None = None,
        lifecycle: StoreLifecycle | None = None,
        breakers: BreakerBoard | None = None,
        views=None,
    ) -> None:
        if store is None and lifecycle is None:
            raise ValueError("QueryService needs a store or a lifecycle")
        self._store = store
        #: Optional hot-reload manager.  When set, every worker pass
        #: pins the current generation until its last group resolves, so
        #: a reload mid-scan cannot free arrays under a worker.
        self.lifecycle = lifecycle
        #: Per-failure-class circuit breakers gating :meth:`submit`.
        self.breakers = breakers if breakers is not None else BreakerBoard()
        #: Optional materialized-view catalog (subscriptions, ``/varz``).
        self.views = views
        self.workers = max(1, workers)
        #: SLO burn-rate tracker fed by every resolution.  Sheds count as
        #: bad events — from the client's side a shed IS a failed request;
        #: the tracker is what tells operators the shedding is material.
        self.slo = slo if slo is not None else SloTracker()
        self.max_batch = max(1, max_batch)
        self.default_deadline_s = default_deadline_s
        self.admission = AdmissionController(
            max_queue=max_queue,
            workers=self.workers,
            rate_limit=rate_limit,
            burst=burst,
        )
        self._inflight: dict[tuple, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._counts: dict[str, int] = {
            "submitted": 0, "ok": 0, "shed": 0, "error": 0,
            "dedup_hits": 0, "cache_hits": 0, "scans": 0, "batches": 0,
            "deadline_cancelled": 0, "worker_revives": 0, "view_hits": 0,
        }
        self._shed_reasons: dict[str, int] = {}
        self._started_s = time.monotonic()
        self._closed = False
        self._stop = threading.Event()
        #: Chaos kills requested by :meth:`kill_worker` not yet claimed.
        self._kills = threading.Semaphore(0)
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission --------------------------------------------------------

    @property
    def store(self) -> GdeltStore:
        """The store generation new requests compile against.

        Static services return their constructor store; lifecycle-backed
        services return the live generation (an unpinned peek — query
        paths pin via the lifecycle instead).
        """
        if self.lifecycle is not None:
            return self.lifecycle.current
        return self._store

    def submit(self, request: QueryRequest) -> PendingRequest:
        """Thread-safe submission; always returns a pending response.

        Sheds and validation failures resolve synchronously; admitted
        requests resolve when a worker (or an in-flight leader) does.
        """
        pending = PendingRequest(request)
        self._count("submitted")
        if self._closed:
            self._shed(pending, ErrorCode.SHUTTING_DOWN, 1.0)
            return pending
        try:
            request.validate()
        except ValueError as exc:
            self._error(pending, exc, ErrorCode.BAD_REQUEST)
            return pending
        if request.deadline_s is None and self.default_deadline_s is not None:
            request.deadline_s = self.default_deadline_s
        allowed, breaker_retry = self.breakers.allow("execute")
        if not allowed:
            self._shed(pending, ErrorCode.CIRCUIT_OPEN, breaker_retry)
            return pending
        rejected = self.admission.offer(
            pending, request.client_id, request.priority, request.deadline_s
        )
        if rejected is not None:
            reason, retry_after = rejected
            self._shed(pending, reason, retry_after)
        return pending

    def query(
        self, table: str = "mentions", timeout: float | None = 30.0, **kw
    ) -> QueryResponse:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(QueryRequest(table=table, **kw)).result(timeout)

    # -- workers -----------------------------------------------------------

    def kill_worker(self) -> None:
        """Chaos hook: the next worker to start a pass crashes.

        Its loop restarts on the same thread (:meth:`_worker_loop`); the
        soak harness uses this to prove serving survives a worker crash
        with no lost requests.
        """
        self._kills.release()
        self.admission.wake_all()

    def _worker_loop(self) -> None:
        """Serve passes until close; a crashed pass restarts the loop.

        The pass has already resolved every request it took, so the
        restart only accounts the crash and carries on with the same
        engine executor.
        """
        name = threading.current_thread().name
        executor = SerialExecutor()
        while not self._stop.is_set():
            try:
                self._serve_pass(executor)
            except Exception as exc:
                if isinstance(exc, _WorkerKilled):
                    _metrics.counter("serve_worker_kills_total").inc()
                    _telemetry.flight().record("worker_killed", thread=name)
                else:
                    logger.exception("serve worker %s crashed", name)
                self._count("worker_revives")
                _metrics.counter("serve_worker_revives_total").inc()
                _telemetry.flight().record("worker_revived", thread=name)
                logger.warning("revived serve worker %s", name)

    def _serve_pass(self, executor: Executor) -> None:
        """Take one batch from admission and resolve every request in it."""
        if self._kills.acquire(blocking=False):
            raise _WorkerKilled("chaos kill")
        owed = deque(self.admission.take(self.max_batch, timeout=_IDLE_WAIT_S))
        if not owed:
            return
        # Pin one generation for the whole pass: every request compiles
        # and executes against one store, and a reload publishing
        # mid-scan cannot release arrays this worker is still walking.
        lease = None
        leaders: list[tuple[PendingRequest, ExecutableOp]] = []
        try:
            lease = self.lifecycle.pin() if self.lifecycle is not None else None
            store = lease.store if lease is not None else self._store
            now = time.monotonic()
            while owed:
                op = self._prepare(owed[0], store, now)
                if op is not None:
                    leaders.append((owed[0], op))
                owed.popleft()
        except Exception as exc:
            # Still owed a response: the unprepared rest, and every
            # flight this pass already leads.
            for pending in owed:
                self._error(pending, exc)
                self.admission.done()
            self._fail_flights(leaders, exc)
            if lease is not None:
                lease.release()
            raise
        try:
            if leaders:
                self._execute(leaders, executor, lease)
        except Exception as exc:
            logger.exception("serve batch failed")
            self.breakers.failure("execute")
            self._fail_flights(leaders, exc)
        finally:
            if lease is not None:
                lease.release()

    def _prepare(
        self, pending: PendingRequest, store: GdeltStore, now: float
    ) -> ExecutableOp | None:
        """Compile a taken request; None if it resolved or joined a flight.

        Requests already past their deadline are shed instead of wasting
        a scan; identical in-flight requests single-flight.
        """
        req = pending.request
        if req.deadline_s is not None and now - pending.arrival_s > req.deadline_s:
            self._shed_deadline(pending)
            self.admission.done()
            return None
        try:
            op = compile_request(store, req)
        except (KeyError, ValueError) as exc:  # unknown column or group key
            self._error(pending, exc, ErrorCode.BAD_REQUEST)
            self.admission.done()
            return None
        except Exception as exc:
            self._error(pending, exc)
            self.admission.done()
            return None
        return None if self._attach_duplicate(pending, op.key) else op

    def _fail_flights(
        self, batch: list[tuple[PendingRequest, ExecutableOp]], exc: Exception
    ) -> None:
        """Resolve each leader in ``batch`` and its duplicates with ``exc``."""
        for pending, op in batch:
            for waiter in self._pop_flight(op.key, pending):
                self._error(waiter, exc)
                self.admission.done()

    def _attach_duplicate(self, pending: PendingRequest, key: tuple | None) -> bool:
        """Attach to an identical in-flight request; True if attached.

        A ``None`` key (unfingerprintable request) is never
        single-flighted.  When no identical request is in flight, this
        registers ``pending`` as the new leader for ``key``.
        """
        if key is None:
            return False
        with self._inflight_lock:
            entry = self._inflight.get(key)
            if entry is not None:
                entry.followers.append(pending)
                self._count("dedup_hits")
                _metrics.counter("serve_dedup_total").inc()
                return True
            self._inflight[key] = _InFlight(pending)
            return False

    def _pop_flight(
        self, key: tuple | None, leader: PendingRequest
    ) -> list[PendingRequest]:
        """Leader + every duplicate attached while it executed."""
        if key is None:
            return [leader]
        with self._inflight_lock:
            entry = self._inflight.pop(key, None)
        if entry is None:
            return [leader]
        return [entry.leader, *entry.followers]

    # -- execution ---------------------------------------------------------

    def _batch_cancel_token(
        self, batch: list[tuple[PendingRequest, ExecutableOp]]
    ) -> CancelToken | None:
        """One cooperative token for a fused batch.

        The scan serves every member, so it may only be abandoned when
        *all* of them are past their deadlines: the token fires at the
        latest member deadline.  Any member without a deadline keeps the
        scan uncancellable (None).
        """
        latest = 0.0
        for pending, _op in batch:
            d = pending.request.deadline_s
            if d is None:
                return None
            latest = max(latest, pending.arrival_s + d)
        return CancelToken(deadline_s=latest)

    def _execute(
        self,
        batch: list[tuple[PendingRequest, ExecutableOp]],
        executor: Executor,
        lease: StoreLease | None = None,
    ) -> None:
        t_start = time.monotonic()
        #: Per member: a QueryResult, or the exception it failed with.
        results: list = [None] * len(batch)
        run: list[int] = []
        for i, (pending, op) in enumerate(batch):
            try:
                # The injectable request-path fault site: ``slow`` here
                # inflates service time until shedding engages; ``abort``
                # turns into an error response the client can retry.
                _faults.fault_point("serve.request", key=str(pending.request.id))
            except Exception as exc:
                results[i] = exc
                continue
            # A member already past its deadline (queue delay, or the
            # slow fault above) is cancelled before costing any scan.
            req = pending.request
            if (
                req.deadline_s is not None
                and time.monotonic() - pending.arrival_s > req.deadline_s
            ):
                results[i] = QueryCancelled("deadline")
                continue
            run.append(i)

        if run:
            answers = run_batch(
                [batch[i][1] for i in run], executor,
                cancel=self._batch_cancel_token(batch),
            )
            hits = views = 0
            for i, res in zip(run, answers):
                results[i] = res
                if isinstance(res, QueryResult) and res.plan.cache_status == "hit":
                    if res.plan.source == "view":
                        views += 1
                        _metrics.counter("view_hits_total", view=res.plan.view).inc()
                    else:
                        hits += 1
            if views:
                self._count("view_hits", views)
            for name, n in (("cache_hits", hits), ("scans", len(run) - hits - views)):
                if n:
                    self._count(name, n)
                    _metrics.counter(f"serve_{name}_total").inc(n)

        # Breaker outcome: infrastructure failures (injected aborts,
        # kernel crashes) count; deadline cancellations are the client's
        # patience, not the engine's health, and do not.
        if any(
            isinstance(r, Exception) and not isinstance(r, QueryCancelled)
            for r in results
        ):
            self.breakers.failure("execute")
        else:
            self.breakers.success("execute")

        self._count("batches")
        _metrics.histogram("serve_batch_size").observe(len(batch))

        exec_s = time.monotonic() - t_start
        _metrics.histogram("serve_exec_seconds").observe(exec_s)
        self.admission.observe_service(exec_s / len(batch))

        now = time.monotonic()
        for (pending, op), res in zip(batch, results):
            queue_delay = t_start - pending.arrival_s
            _metrics.histogram("serve_queue_delay_seconds").observe(queue_delay)
            waiters = self._pop_flight(op.key, pending)
            if isinstance(res, QueryCancelled):
                for waiter in waiters:
                    self._shed_deadline(waiter)
                    self.admission.done()
                continue
            if isinstance(res, Exception):
                for waiter in waiters:
                    self._error(waiter, res)
                    self.admission.done()
                continue
            plan = res.plan
            viewed = plan.source == "view"
            # The plan accounting lets a RemoteStore reconstruct the
            # pruning story a local QueryResult carries on its Plan.
            stats = {
                "queue_delay_s": round(queue_delay, 6),
                "exec_s": round(exec_s, 6),
                "batch_size": len(batch),
                "cache": "view" if viewed else plan.cache_status,
                "source": plan.source,
                "rows_planned": plan.rows_planned,
                "store_gen": lease.generation if lease is not None else 0,
                "pruning": plan.pruning,
                "chunks_total": plan.n_chunks_total,
                "chunks_pruned": plan.n_chunks_pruned,
                "chunks_full": plan.n_chunks_full,
                "rows_total": plan.rows_total,
            }
            if viewed:
                stats["view"] = plan.view
            for n, waiter in enumerate(waiters):
                value = res.value if n == 0 else _copy_value(res.value)
                self._resolve_ok(waiter, value, dict(stats, deduped=n > 0), now)
                self.admission.done()

    # -- resolution --------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + n

    def _resolve_ok(
        self, pending: PendingRequest, value, stats: dict, now: float
    ) -> None:
        latency = now - pending.arrival_s
        with self._lock:
            self._latencies.append(latency)
            self._counts["ok"] += 1
        _metrics.counter("serve_requests_total", status="ok").inc()
        self.slo.observe(latency)
        pending._resolve(QueryResponse(status="ok", value=value, stats=stats))

    def _shed_deadline(self, pending: PendingRequest) -> None:
        """Shed a request whose deadline expired (in line or mid-scan)."""
        self._count("deadline_cancelled")
        _metrics.counter("serve_deadline_cancelled_total").inc()
        self._shed(
            pending, ErrorCode.DEADLINE_EXCEEDED,
            max(self.admission.ewma_service_s, 0.001),
        )

    def _shed(self, pending: PendingRequest, reason: str, retry_after: float) -> None:
        self._count("shed")
        with self._lock:
            self._shed_reasons[reason] = self._shed_reasons.get(reason, 0) + 1
        if reason not in _ADMISSION_REASONS:
            # Admission-origin sheds are already counted by the
            # controller; service-origin reasons are counted here.
            _metrics.counter("serve_shed_total", reason=reason).inc()
        _metrics.counter("serve_requests_total", status="shed").inc()
        self.slo.observe(None, error=True)
        _telemetry.flight().record(
            "shed",
            reason=reason,
            client=pending.request.client_id,
            request=str(pending.request.id),
            retry_after_s=round(retry_after, 6),
        )
        pending._resolve(
            QueryResponse(status="shed", reason=reason, retry_after_s=retry_after)
        )

    def _error(
        self, pending: PendingRequest, exc: Exception, reason: str | None = None
    ) -> None:
        self._count("error")
        _metrics.counter("serve_requests_total", status="error").inc()
        self.slo.observe(None, error=True)
        _telemetry.flight().record(
            "request_error",
            request=str(pending.request.id),
            error=f"{type(exc).__name__}: {exc}",
        )
        pending._resolve(QueryResponse(
            status="error", reason=reason, error=f"{type(exc).__name__}: {exc}"
        ))

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Point-in-time service counters (the serving profile's core)."""
        with self._lock:
            counts = dict(self._counts)
            lat = list(self._latencies)
            shed_reasons = dict(self._shed_reasons)
        return {
            **counts,
            "queue_depth": self.admission.depth(),
            "peak_queue_depth": self.admission.peak_depth,
            "shed_reasons": shed_reasons,
            "ewma_service_s": round(self.admission.ewma_service_s, 6),
            "latency": percentiles(lat),
            "uptime_s": round(time.monotonic() - self._started_s, 3),
            "workers": self.workers,
            "alive_workers": self.alive_workers(),
            "store_generation": (
                self.lifecycle.generation if self.lifecycle is not None else 0
            ),
            "breakers": self.breakers.states(),
        }

    def alive_workers(self) -> int:
        """How many service worker threads are currently alive."""
        return sum(1 for t in self._threads if t.is_alive())

    def health(self) -> dict:
        """Operational health for the ops plane's probes.

        ``live`` is pure liveness (the process answered).  ``ready``
        means the admission controller would accept traffic right now:
        not draining, queue below its bound, and no dead workers.  The
        SLO detail rides along so ``/healthz`` can show budget burn
        without flipping liveness.
        """
        draining = self._closed
        depth = self.admission.depth()
        saturated = depth >= self.admission.max_queue
        dead_workers = self.workers - self.alive_workers()
        reloading = self.lifecycle.reloading if self.lifecycle is not None else False
        reasons = []
        if draining:
            reasons.append("draining")
        if saturated:
            reasons.append("queue_saturated")
        if dead_workers:
            reasons.append(f"dead_workers={dead_workers}")
        return {
            "live": True,
            # Reloading does NOT flip readiness — the old generation
            # keeps serving; it is surfaced so operators expect the
            # brief latency bump while the swap validates and publishes.
            "ready": not reasons,
            "reasons": reasons,
            "draining": draining,
            "reloading": reloading,
            "queue_depth": depth,
            "max_queue": self.admission.max_queue,
            "dead_workers": dead_workers,
            "slo_ok": self.slo.healthy(),
            "slo": self.slo.snapshot(),
        }

    def meta(self) -> dict:
        """Backend self-description for the wire ``meta`` verb.

        The shard router calls this (via :class:`ServeServer`) on every
        backend to derive its shard map: row counts, zone-map column
        bounds, and group cardinalities of the store generation
        currently being served.
        """
        return store_meta(self.store)

    def profile(self) -> dict:
        """The service profile: stats plus configuration, JSON-ready."""
        return {
            "kind": "service_profile",
            "config": {
                "workers": self.workers,
                "max_batch": self.max_batch,
                "max_queue": self.admission.max_queue,
                "rate_limit": self.admission.rate_limit,
                "default_deadline_s": self.default_deadline_s,
                "views": len(self.views) if self.views is not None else 0,
            },
            "stats": self.stats(),
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service; idempotent.

        ``drain=True`` (default) finishes queued and in-flight work
        first; late submissions shed with ``SHUTTING_DOWN`` either way.
        ``drain=False`` abandons queued work but never strands it: each
        worker finishes the pass it is in (resolving every request and
        duplicate that pass took), and every request still queued in
        admission resolves with a ``SHUTTING_DOWN`` shed, so no client
        blocks forever on ``result()`` for a response that can no
        longer arrive.
        """
        if self._closed:
            return
        self._closed = True
        if drain:
            self.admission.wait_idle(timeout)
        self._stop.set()
        self.admission.wake_all()
        for t in self._threads:
            t.join(timeout=5.0)
        for pending in self.admission.drain_all():
            self._shed(pending, ErrorCode.SHUTTING_DOWN, 1.0)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
