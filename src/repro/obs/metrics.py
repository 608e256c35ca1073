"""Process-global metrics registry: counters, gauges, log2 histograms.

Series are identified by ``(name, labels)`` — e.g.
``counter("codec_bytes_in_total", codec="zlib")`` and the same name with
``codec="delta-rle"`` are distinct series, mirroring Prometheus label
semantics.  The registry dumps to Prometheus text exposition
(:meth:`MetricsRegistry.to_prometheus`) and to JSON
(:meth:`MetricsRegistry.to_json`).

Histograms bucket observations by powers of two between ``2**-20``
(~1 µs when observing seconds) and ``2**20``, plus a ``+Inf`` overflow
bucket — log2 bucketing keeps ``observe`` at one ``frexp`` call, cheap
enough for per-chunk timings.

Instrumented call sites guard on :func:`repro.obs.state.enabled`
themselves; the registry records unconditionally when called, so tests
can exercise it without flipping the global switch.
"""

from __future__ import annotations

import json
import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "reset",
]

#: Finite histogram bucket upper bounds: 2**-20 .. 2**20.
_BUCKET_EXPS = list(range(-20, 21))
_BOUNDS = [2.0**e for e in _BUCKET_EXPS]


def _bucket_index(v: float) -> int:
    """Index of the first bucket whose upper bound is >= ``v``.

    Values <= the smallest bound (including zero and negatives) land in
    bucket 0; values beyond the largest bound land in the +Inf bucket
    (index ``len(_BOUNDS)``).
    """
    if v <= _BOUNDS[0]:
        return 0
    if v > _BOUNDS[-1]:
        return len(_BOUNDS)
    m, e = math.frexp(v)  # v = m * 2**e with 0.5 <= m < 1
    exp = e - 1 if m == 0.5 else e  # ceil(log2(v))
    return exp - _BUCKET_EXPS[0]


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, v: float) -> None:
        self._value = float(v)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """log2-bucketed histogram with sum/count/min/max."""

    kind = "histogram"
    __slots__ = ("name", "labels", "_buckets", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self._buckets = [0] * (len(_BOUNDS) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        idx = _bucket_index(v)
        with self._lock:
            self._buckets[idx] += 1
            self._sum += v
            self._count += 1
            self._min = min(self._min, v)
            self._max = max(self._max, v)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Non-cumulative ``(upper_bound, count)`` pairs, +Inf last."""
        bounds = _BOUNDS + [math.inf]
        return [(bounds[i], c) for i, c in enumerate(self._buckets)]


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(v: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and line-feed must be backslash-escaped."""
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(v: str) -> str:
    """Escape HELP text (only backslash and line-feed are special)."""
    return v.replace("\\", "\\\\").replace("\n", "\\n")


def _label_text(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
        + "}"
    )


def _fmt(v: float) -> str:
    """Integers without a trailing .0, floats via repr."""
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


class MetricsRegistry:
    """All metric series of one process, keyed by (name, labels)."""

    def __init__(self, prefix: str = "repro_") -> None:
        self.prefix = prefix
        self._lock = threading.Lock()
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._help: dict[str, str] = {}

    def describe(self, name: str, help_text: str) -> None:
        """Register HELP text for a metric family (un-prefixed name)."""
        with self._lock:
            self._help[name] = help_text

    def _get(self, cls, name: str, labels: dict[str, str]):
        key = (name, _label_key(labels))
        with self._lock:
            m = self._series.get(key)
            if m is None:
                m = cls(name, key[1])
                self._series[key] = m
            elif not isinstance(m, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {type(m).__name__}"
                )
            return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def series(self) -> list[object]:
        """All registered series, sorted by (name, labels)."""
        with self._lock:
            return [self._series[k] for k in sorted(self._series)]

    def n_series(self) -> int:
        with self._lock:
            return len(self._series)

    def reset(self) -> None:
        """Forget every series (tests and fresh measurement runs)."""
        with self._lock:
            self._series.clear()

    # -- exports -----------------------------------------------------------

    def to_json(self) -> str:
        """JSON registry dump (one entry per series)."""
        out = []
        for m in self.series():
            entry: dict = {
                "name": m.name,
                "kind": m.kind,
                "labels": dict(m.labels),
            }
            if isinstance(m, Histogram):
                entry["count"] = m.count
                entry["sum"] = m.sum
                entry["buckets"] = [
                    {"le": ("+Inf" if math.isinf(b) else b), "count": c}
                    for b, c in m.bucket_counts()
                    if c
                ]
                if m.count:
                    entry["min"] = m._min
                    entry["max"] = m._max
            else:
                entry["value"] = m.value
            out.append(entry)
        return json.dumps({"metrics": out}, indent=2)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every series.

        Histogram buckets are cumulative; empty buckets are elided (the
        ``+Inf`` bucket is always present), which keeps dumps readable
        for log2 bucket ranges.
        """
        with self._lock:
            help_texts = dict(self._help)
        lines: list[str] = []
        seen_types: set[str] = set()
        for m in self.series():
            full = self.prefix + m.name
            if full not in seen_types:
                help_text = help_texts.get(m.name, m.name.replace("_", " "))
                lines.append(f"# HELP {full} {_escape_help(help_text)}")
                lines.append(f"# TYPE {full} {m.kind}")
                seen_types.add(full)
            if isinstance(m, Histogram):
                cum = 0
                for bound, c in m.bucket_counts():
                    cum += c
                    if c == 0 and not math.isinf(bound):
                        continue
                    le = "+Inf" if math.isinf(bound) else _fmt(bound)
                    labels = m.labels + (("le", le),)
                    lines.append(f"{full}_bucket{_label_text(labels)} {cum}")
                lines.append(f"{full}_sum{_label_text(m.labels)} {_fmt(m.sum)}")
                lines.append(f"{full}_count{_label_text(m.labels)} {m.count}")
            else:
                lines.append(f"{full}{_label_text(m.labels)} {_fmt(m.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


#: Process-global registry used by all instrumentation.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def counter(name: str, **labels) -> Counter:
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return _REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels) -> Histogram:
    return _REGISTRY.histogram(name, **labels)


def reset() -> None:
    """Clear the global registry."""
    _REGISTRY.reset()
