"""The harness's own in-memory span recorder.

Spans are recorded from the benchmark's files only, around every call
into a layer's public function; time spent inside a server enters as
child spans synthesised from what the protocol reports (``queue_delay_s``,
``exec_s``, ``merge_ms``).  Spans inside ``src/repro`` are a later issue.

A span is ``(id, name, layer, start, end, parent, op, tid)``; spans of
one operation share ``op``.  A layer's self time is its spans' duration
minus the part their child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Layers a span may be charged to: the repo's modules that some workload
#: calls inside its timed phase, plus ``wire`` (client-side round trip the
#: server does not account for: JSON, socket, result revival), ``backend``
#: (a router waiting on its shards) and ``bench`` (the harness itself).
LAYERS = (
    "ingest", "engine", "analysis", "serve", "shard", "views",
    "wire", "backend", "bench",
)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; thread-safe, one parent stack per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, op: int | None = None, **args):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(
            id=next(self._ids), name=name, layer=layer,
            start=time.perf_counter(), end=0.0,
            parent=parent.id if parent else None,
            op=op if op is not None else (parent.op if parent else None),
            tid=threading.get_ident(), args=args,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def child(self, parent: Span, name: str, layer: str, dur: float,
              offset: float = 0.0, **args) -> Span:
        """A synthesised child of ``parent`` (server-reported time).

        Placed ``offset`` seconds after the parent's start and clamped
        to the parent's interval, so spans always nest.  Call it after
        the parent's ``with`` block has closed.
        """
        start = min(parent.start + max(offset, 0.0), parent.end)
        end = min(start + max(dur, 0.0), parent.end)
        sp = Span(
            id=next(self._ids), name=name, layer=layer, start=start, end=end,
            parent=parent.id, op=parent.op, tid=parent.tid, args=args,
        )
        self.spans.append(sp)
        return sp

    # -- reduction ---------------------------------------------------------

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds of self time per layer over every recorded span."""
        covered: dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] = covered.get(sp.parent, 0.0) + sp.dur
        out = dict.fromkeys(LAYERS, 0.0)
        for sp in self.spans:
            out[sp.layer] += max(sp.dur - covered.get(sp.id, 0.0), 0.0)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [sp.dur * 1e3 for sp in self.spans if sp.name == name]

    def nesting_violations(self, slack_s: float = 1e-6) -> int:
        """Spans that start before or end after their parent."""
        by_id = {sp.id: sp for sp in self.spans}
        bad = 0
        for sp in self.spans:
            parent = by_id.get(sp.parent) if sp.parent is not None else None
            if sp.parent is not None and parent is None:
                bad += 1
            elif parent is not None and (
                sp.start < parent.start - slack_s or sp.end > parent.end + slack_s
            ):
                bad += 1
        return bad

    def root_ops(self) -> int:
        """Root spans that carry an operation id."""
        return sum(1 for sp in self.spans if sp.parent is None and sp.op is not None)

    def write_chrome(self, path: Path) -> None:
        """chrome://tracing / Perfetto "complete event" format."""
        t0 = min((sp.start for sp in self.spans), default=0.0)
        tids = {tid: i for i, tid in enumerate(sorted({sp.tid for sp in self.spans}))}
        events = [
            {
                "name": sp.name, "cat": sp.layer, "ph": "X", "pid": 1,
                "tid": tids[sp.tid],
                "ts": round((sp.start - t0) * 1e6, 3),
                "dur": round(sp.dur * 1e6, 3),
                "args": {"id": sp.id, "parent": sp.parent, "op": sp.op, **sp.args},
            }
            for sp in sorted(self.spans, key=lambda s: s.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )


class _NullSpan:
    """Stand-in span of the untraced run: costs one attribute lookup."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """The untraced run's tracer: records nothing."""

    enabled = False
    _null = _NullSpan()

    def span(self, name, layer, op=None, **args):
        return self._null

    def child(self, parent, name, layer, dur, offset=0.0, **args):
        return None
