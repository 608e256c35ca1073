"""Admission control: bounded priority queues, rate limits, load shedding.

The gate every request passes before it may consume engine resources.
Three independent rejections, checked in order:

1. **Rate limiting** — a per-client token bucket (``rate_limit``
   requests/second, burst ``burst``).  A client over its budget is shed
   with ``RATE_LIMITED`` and the time until its next token.
2. **Queue bound** — the priority queue holds at most ``max_queue``
   requests; beyond that the service is saturated and new arrivals are
   shed with ``QUEUE_FULL`` rather than queued into unbounded latency.
3. **Deadline-aware shedding** — the controller tracks an EWMA of
   per-request service time; if the estimated queue delay
   (``queued / workers * ewma``) already exceeds the request's
   deadline, the request can only time out in line, so it is shed
   *immediately* with ``RETRY_AFTER`` and the estimate as the hint.
   Shedding early under overload is what keeps the queue short enough
   for requests with workable deadlines to meet them.

Admitted requests wait in a strict priority queue (lower number first,
FIFO within a priority).  :meth:`AdmissionController.take` hands the
scheduler up to one batch of admitted requests at a time.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass

from repro.obs import metrics as _metrics
from repro.serve.protocol import ErrorCode

__all__ = ["TokenBucket", "AdmissionController", "Admitted"]

#: EWMA smoothing for the per-request service-time estimate.
_EWMA_ALPHA = 0.25


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity ``burst``."""

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.burst = max(1.0, burst)
        self._tokens = self.burst
        self._stamp = now

    def try_acquire(self, now: float) -> float:
        """Take one token; returns 0.0 on success, else seconds until
        the next token becomes available."""
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


@dataclass(slots=True)
class Admitted:
    """One queued admission: the pending request plus queue bookkeeping."""

    priority: int
    seq: int
    pending: object  # PendingRequest (kept loose to avoid an import cycle)

    def __lt__(self, other: "Admitted") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class AdmissionController:
    """Thread-safe admission gate + bounded priority queue.

    ``workers`` is the service's execution width, used only for the
    queue-delay estimate.  All mutation happens under one lock; *why*
    a request was shed comes back as a reason string so the service
    can build the client-visible response (this module knows nothing
    about responses).
    """

    def __init__(
        self,
        max_queue: int = 256,
        workers: int = 1,
        rate_limit: float | None = None,
        burst: float | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = max_queue
        self.workers = max(1, workers)
        self.rate_limit = rate_limit
        self.burst = burst if burst is not None else (rate_limit or 0) * 2
        self._heap: list[Admitted] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._seq = 0
        self._buckets: dict[str, TokenBucket] = {}
        self._ewma_service_s = 0.0
        self._in_flight = 0
        self.shed_counts: dict[str, int] = {}
        self.admitted_total = 0
        self.peak_depth = 0

    # -- estimates ---------------------------------------------------------

    @property
    def ewma_service_s(self) -> float:
        return self._ewma_service_s

    def observe_service(self, seconds: float) -> None:
        """Feed one completed request's service time into the EWMA."""
        with self._lock:
            if self._ewma_service_s == 0.0:
                self._ewma_service_s = seconds
            else:
                self._ewma_service_s += _EWMA_ALPHA * (
                    seconds - self._ewma_service_s
                )

    def _estimate_locked(self, extra: int = 0) -> float:
        waiting = len(self._heap) + self._in_flight + extra
        return self._ewma_service_s * waiting / self.workers

    # -- admission ---------------------------------------------------------

    def offer(
        self, pending, client_id: str, priority: int, deadline_s: float | None
    ) -> tuple[str, float] | None:
        """Try to admit; ``None`` on success, else ``(reason, retry_after_s)``.

        On success the pending request is queued and a waiting
        :meth:`take` is woken.
        """
        now = time.monotonic()
        with self._lock:
            if self.rate_limit is not None:
                bucket = self._buckets.get(client_id)
                if bucket is None:
                    bucket = TokenBucket(self.rate_limit, self.burst, now)
                    self._buckets[client_id] = bucket
                wait = bucket.try_acquire(now)
                if wait > 0.0:
                    return self._shed_locked(ErrorCode.RATE_LIMITED, wait)
            if len(self._heap) >= self.max_queue:
                return self._shed_locked(
                    ErrorCode.QUEUE_FULL, max(self._estimate_locked(), 0.001)
                )
            est = self._estimate_locked(extra=1)
            if deadline_s is not None and est > deadline_s:
                return self._shed_locked(ErrorCode.RETRY_AFTER, est)
            self._seq += 1
            heapq.heappush(self._heap, Admitted(priority, self._seq, pending))
            self.admitted_total += 1
            self.peak_depth = max(self.peak_depth, len(self._heap))
            _metrics.gauge("serve_queue_depth").set(len(self._heap))
            self._not_empty.notify()
            return None

    def _shed_locked(self, reason: str, retry_after: float) -> tuple[str, float]:
        reason = str(reason)
        self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        _metrics.counter("serve_shed_total", reason=reason).inc()
        return reason, retry_after

    # -- consumption -------------------------------------------------------

    def take(self, max_n: int, timeout: float | None = None) -> list:
        """Pop up to ``max_n`` pending requests in priority order.

        Blocks up to ``timeout`` for the first one (None = forever);
        never blocks for more once one is available.  Everything popped
        is accounted as in flight until :meth:`done` is called for it.
        """
        out: list = []
        with self._not_empty:
            if not self._heap:
                self._not_empty.wait(timeout)
            while self._heap and len(out) < max_n:
                out.append(heapq.heappop(self._heap).pending)
            self._in_flight += len(out)
            _metrics.gauge("serve_queue_depth").set(len(self._heap))
        return out

    def done(self, n: int = 1) -> None:
        """Mark ``n`` taken requests as finished (any outcome)."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - n)
            if self._in_flight == 0 and not self._heap:
                self._not_empty.notify_all()

    def drain_all(self) -> list:
        """Pop every queued (not in-flight) pending request.

        The non-drain shutdown path: the service resolves each returned
        pending with ``SHUTTING_DOWN`` so no submitted request can block
        forever on a queue nobody will ever take from.  The popped
        entries are *not* accounted as in flight.
        """
        with self._lock:
            out = [a.pending for a in self._heap]
            self._heap.clear()
            _metrics.gauge("serve_queue_depth").set(0)
            self._not_empty.notify_all()
        return out

    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    def bucket_states(self) -> dict[str, dict[str, float]]:
        """Per-client token-bucket state for the ops plane's ``/varz``.

        Token counts are projected to "now" without mutating the
        buckets, so reading the state never affects admission.
        """
        now = time.monotonic()
        with self._lock:
            return {
                client: {
                    "tokens": round(
                        min(b.burst, b._tokens + (now - b._stamp) * b.rate), 3
                    ),
                    "rate": b.rate,
                    "burst": b.burst,
                }
                for client, b in self._buckets.items()
            }

    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        with self._lock:
            return not self._heap and self._in_flight == 0

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until idle (the drain step of a graceful shutdown)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while self._heap or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._not_empty.wait(remaining if remaining is not None else 0.1)
        return True

    def wake_all(self) -> None:
        """Wake every blocked :meth:`take`/:meth:`wait_idle` (shutdown)."""
        with self._not_empty:
            self._not_empty.notify_all()
