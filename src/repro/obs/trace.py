"""Lightweight nested tracing spans.

A span is one timed region with a name, attributes, a thread, and an
optional parent.  Nesting is tracked per thread with a thread-local
stack, so concurrently executing kernels record disjoint span trees; a
span started on a worker thread can still be parented to a span on the
submitting thread by passing ``parent=`` explicitly (the executors do
this so per-chunk spans hang under the ``executor.map_chunks`` span that
spawned them).

Timings use ``time.perf_counter_ns()``: monotonic and comparable across
threads of one process, so chunk spans from every worker thread share
one timeline.

Exports: :meth:`Tracer.to_json` (one dict per span, seconds-based) and
:meth:`Tracer.to_chrome` (a ``chrome://tracing`` / Perfetto event list).

When observability is disabled (:mod:`repro.obs.state`), :func:`span`
returns a shared no-op context manager — one flag check, zero
allocation — so instrumented code stays effectively free.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.obs import state

__all__ = ["SpanRecord", "Tracer", "span", "tracer", "reset"]


@dataclass(slots=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    thread_id: int
    thread_name: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _NullSpan:
    """Do-nothing span returned while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Ignore attributes (disabled path)."""


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span context manager (create via :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "start_ns")

    def __init__(self, tracer: "Tracer", name: str, parent: int | None, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.parent_id = parent
        self.span_id = tracer._next_id()
        self.start_ns = 0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (row counts, sizes...)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1]
        stack.append(self.span_id)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end_ns = time.perf_counter_ns()
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        cur = threading.current_thread()
        self._tracer._record(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_ns=self.start_ns,
                end_ns=end_ns,
                thread_id=cur.ident or 0,
                thread_name=cur.name,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects spans from all threads of the process."""

    def __init__(self, capacity: int | None = None) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._local = threading.local()
        self._id = 0
        self._capacity = capacity

    # -- internals ---------------------------------------------------------

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, rec: SpanRecord) -> None:
        with self._lock:
            self._records.append(rec)
            if self._capacity is not None and len(self._records) > self._capacity:
                del self._records[: len(self._records) - self._capacity]

    # -- public API --------------------------------------------------------

    def span(self, name: str, parent: int | None = None, **attrs) -> _Span:
        """Start building a span; use as a context manager."""
        return _Span(self, name, parent, attrs)

    def add_complete(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: int | None = None,
        **attrs,
    ) -> None:
        """Record an already-timed span (executors use this for chunks
        measured inside worker threads)."""
        cur = threading.current_thread()
        self._record(
            SpanRecord(
                span_id=self._next_id(),
                parent_id=parent,
                name=name,
                start_ns=start_ns,
                end_ns=end_ns,
                thread_id=cur.ident or 0,
                thread_name=cur.name,
                attrs=attrs,
            )
        )

    def records(self) -> list[SpanRecord]:
        """Snapshot of finished spans in completion order."""
        with self._lock:
            return list(self._records)

    def recent(self, n: int = 100) -> list[SpanRecord]:
        """The last ``n`` finished spans (flight recorder / ``/tracez``)."""
        with self._lock:
            return list(self._records[-n:]) if n > 0 else []

    def count(self) -> int:
        """Number of spans currently buffered."""
        with self._lock:
            return len(self._records)

    def reset(self) -> None:
        """Drop all recorded spans (per-thread stacks are untouched)."""
        with self._lock:
            self._records.clear()

    def to_json(self) -> list[dict]:
        """Spans as plain dicts, sorted by start time, seconds-based."""
        recs = sorted(self.records(), key=lambda r: r.start_ns)
        return [
            {
                "span_id": r.span_id,
                "parent_id": r.parent_id,
                "name": r.name,
                "start_s": r.start_ns / 1e9,
                "duration_s": r.seconds,
                "thread": r.thread_name,
                "attrs": r.attrs,
            }
            for r in recs
        ]

    def to_chrome(self) -> list[dict]:
        """``chrome://tracing`` complete ("X") events, microsecond-based.

        Load the list (as the ``traceEvents`` key or bare) in Chrome's
        tracer or https://ui.perfetto.dev to see the per-thread timeline.
        """
        pid = os.getpid()
        return [
            {
                "name": r.name,
                "ph": "X",
                "ts": r.start_ns / 1e3,
                "dur": (r.end_ns - r.start_ns) / 1e3,
                "pid": pid,
                "tid": r.thread_id,
                "args": {**r.attrs, "span_id": r.span_id, "parent_id": r.parent_id},
            }
            for r in sorted(self.records(), key=lambda r: r.start_ns)
        ]


#: Process-global tracer used by :func:`span` and all instrumentation.
_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def span(name: str, parent: int | None = None, **attrs):
    """Start a span on the global tracer; no-op when obs is disabled.

    Usage::

        with span("query.scan", rows=n) as sp:
            ...
            sp.set(chunks=len(parts))
    """
    if not state._enabled:
        return _NULL_SPAN
    return _TRACER.span(name, parent, **attrs)


def reset() -> None:
    """Clear the global tracer's records."""
    _TRACER.reset()
