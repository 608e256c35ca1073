"""Live telemetry plane: flight recorder, SLO burn rates.

Two capabilities that turn the obs substrate into an *operational*
plane (served over HTTP by :mod:`repro.serve.ops`):

* **Flight recorder** — a bounded ring buffer of notable runtime events
  (shed decisions, chunk retries, worker revivals, injected faults).
  :meth:`FlightRecorder.dump` snapshots the ring plus the tracer's most
  recent spans; it is wired to ``SIGUSR1``
  (:func:`install_signal_dump`).  Recording is unconditional — the
  events are rare and the cost is one lock + deque append.

* **SLO tracking** — :class:`SloTracker` evaluates declarative latency
  / error-rate objectives over rolling multi-window event counts and
  computes Google-SRE-style burn rates
  (``bad_fraction / error_budget``); a burn rate above 1.0 means the
  service is consuming error budget faster than the objective allows.
  Exported as ``repro_slo_burn_rate{slo=...,window=...}`` gauges and
  surfaced in ``/healthz``.
"""

from __future__ import annotations

import json
import logging
import math
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "FlightEvent",
    "FlightRecorder",
    "flight",
    "install_signal_dump",
    "SloObjective",
    "SloTracker",
    "default_serve_objectives",
]

logger = logging.getLogger(__name__)

#: Environment variable naming the file signal dumps are written to.
FLIGHT_DUMP_ENV = "REPRO_FLIGHT_DUMP"


# --- flight recorder ------------------------------------------------------


@dataclass(slots=True)
class FlightEvent:
    """One recorded runtime event."""

    unix_time: float
    kind: str
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"unix_time": self.unix_time, "kind": self.kind, **self.fields}


class FlightRecorder:
    """Bounded ring buffer of notable runtime events.

    Producers call :meth:`record` with a short event kind plus free-form
    fields; consumers call :meth:`dump` for a post-mortem snapshot or
    :meth:`events` for the raw ring.  Thread-safe; oldest events fall
    off when the ring is full.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[FlightEvent] = deque(maxlen=capacity)
        self._counts: dict[str, int] = {}

    def record(self, kind: str, **fields) -> None:
        ev = FlightEvent(unix_time=time.time(), kind=kind, fields=fields)
        with self._lock:
            self._ring.append(ev)
            self._counts[kind] = self._counts.get(kind, 0) + 1

    def events(self) -> list[dict]:
        """The ring's events, oldest first, as plain dicts."""
        with self._lock:
            return [ev.to_dict() for ev in self._ring]

    def counts(self) -> dict[str, int]:
        """Lifetime event counts per kind (survive ring eviction)."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._counts.clear()

    # -- dumping -----------------------------------------------------------

    def dump(self, reason: str = "manual", max_spans: int = 100) -> dict:
        """Post-mortem snapshot: the event ring plus recent spans."""
        spans = [
            {
                "span_id": r.span_id,
                "parent_id": r.parent_id,
                "name": r.name,
                "start_s": r.start_ns / 1e9,
                "duration_s": r.seconds,
                "thread": r.thread_name,
                "attrs": r.attrs,
            }
            for r in _trace.tracer().recent(max_spans)
        ]
        return {
            "kind": "flight_dump",
            "reason": reason,
            "unix_time": time.time(),
            "pid": os.getpid(),
            "event_counts": self.counts(),
            "events": self.events(),
            "recent_spans": spans,
        }

    def dump_to(self, path: str | os.PathLike, reason: str = "manual") -> dict:
        """Write :meth:`dump` as JSON to ``path``; returns the dump."""
        doc = self.dump(reason)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=str)
            fh.write("\n")
        return doc


#: Process-global flight recorder used by all hook sites.
_FLIGHT = FlightRecorder()


def flight() -> FlightRecorder:
    """The process-global flight recorder."""
    return _FLIGHT


def install_signal_dump(
    path: str | os.PathLike | None = None, signum: int = signal.SIGUSR1
):
    """Dump the flight recorder whenever ``signum`` (default SIGUSR1)
    arrives.

    ``path=None`` falls back to ``REPRO_FLIGHT_DUMP`` or, failing that,
    ``flight-<pid>.json`` in the working directory.  Must be called from
    the main thread (a CPython signal rule); returns the previous
    handler so tests can restore it.
    """

    def _handler(sig, frame) -> None:
        target = path or os.environ.get(FLIGHT_DUMP_ENV, "").strip() or (
            f"flight-{os.getpid()}.json"
        )
        try:
            _FLIGHT.dump_to(target, reason=f"signal {sig}")
            logger.warning("flight recorder dumped to %s (signal %d)", target, sig)
        except Exception:  # noqa: BLE001 - a handler must never propagate
            logger.exception("flight recorder signal dump failed")

    return signal.signal(signum, _handler)


# --- SLO tracking ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SloObjective:
    """One declarative service-level objective.

    ``target`` is the good-event fraction promised (0.99 = "99% of
    requests succeed [within ``latency_threshold_s``]"); the error
    budget is ``1 - target``.  With ``latency_threshold_s`` set, a slow
    success burns budget like an error; without it the objective is a
    pure error-rate SLO.
    """

    name: str
    target: float
    latency_threshold_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    def is_bad(self, latency_s: float | None, error: bool) -> bool:
        if error:
            return True
        if self.latency_threshold_s is not None and latency_s is not None:
            return latency_s > self.latency_threshold_s
        return False


def default_serve_objectives(
    latency_threshold_s: float = 0.5, target: float = 0.99
) -> tuple[SloObjective, ...]:
    """The serve layer's stock objectives: availability + latency."""
    return (
        SloObjective("availability", target=max(target, 0.999)),
        SloObjective(
            "latency", target=target, latency_threshold_s=latency_threshold_s
        ),
    )


class _Epoch:
    """Good/bad counts for one epoch, indexed per objective."""

    __slots__ = ("index", "good", "bad")

    def __init__(self, index: int, n_objectives: int) -> None:
        self.index = index
        self.good = [0] * n_objectives
        self.bad = [0] * n_objectives


class SloTracker:
    """Multi-window burn-rate computation over rolling event counts.

    Observations land in fixed-width epochs (a ring holding enough
    epochs to cover the longest window); a window's burn rate is its
    bad-event fraction divided by the objective's error budget.  A
    burn rate of exactly 1.0 spends the budget precisely over the
    window — sustained values above 1.0 are the alerting signal.

    Following the SRE multi-window convention, :meth:`breaches` flags
    an objective only when *every* configured window burns above the
    threshold: the long window proves the problem is material, the
    short one proves it is still happening.

    ``clock`` is injectable for tests (defaults to
    :func:`time.monotonic`).
    """

    def __init__(
        self,
        objectives: tuple[SloObjective, ...] | list[SloObjective] | None = None,
        windows: tuple[float, ...] = (60.0, 300.0),
        epoch_s: float | None = None,
        clock=time.monotonic,
    ) -> None:
        self.objectives = tuple(objectives or default_serve_objectives())
        if not self.objectives:
            raise ValueError("need at least one objective")
        self.windows = tuple(sorted(set(windows)))
        if not self.windows or self.windows[0] <= 0:
            raise ValueError("windows must be positive")
        self.epoch_s = epoch_s if epoch_s is not None else max(
            self.windows[0] / 30.0, 0.25
        )
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        self._clock = clock
        n_epochs = int(math.ceil(self.windows[-1] / self.epoch_s)) + 1
        self._epochs: deque[_Epoch] = deque(maxlen=n_epochs)
        self._lock = threading.Lock()
        self.total_good = 0
        self.total_bad = 0
        _metrics.registry().describe(
            "slo_burn_rate",
            "error-budget burn rate per objective and window (>1 = burning)",
        )

    # -- recording ---------------------------------------------------------

    def _epoch_locked(self, now: float) -> _Epoch:
        index = int(now // self.epoch_s)
        if self._epochs and self._epochs[-1].index == index:
            return self._epochs[-1]
        ep = _Epoch(index, len(self.objectives))
        self._epochs.append(ep)
        return ep

    def observe(self, latency_s: float | None, error: bool = False) -> None:
        """Feed one completed request (latency in seconds, or an error)."""
        now = self._clock()
        with self._lock:
            ep = self._epoch_locked(now)
            any_bad = False
            for i, obj in enumerate(self.objectives):
                if obj.is_bad(latency_s, error):
                    ep.bad[i] += 1
                    any_bad = True
                else:
                    ep.good[i] += 1
            if any_bad:
                self.total_bad += 1
            else:
                self.total_good += 1

    # -- evaluation --------------------------------------------------------

    def _window_counts_locked(self, window: float, now: float) -> list[tuple[int, int]]:
        """(good, bad) per objective over the trailing ``window`` seconds."""
        cutoff = int((now - window) // self.epoch_s)
        good = [0] * len(self.objectives)
        bad = [0] * len(self.objectives)
        for ep in self._epochs:
            if ep.index <= cutoff:
                continue
            for i in range(len(self.objectives)):
                good[i] += ep.good[i]
                bad[i] += ep.bad[i]
        return list(zip(good, bad))

    def burn_rates(self) -> dict[str, dict[str, float]]:
        """``{objective: {"60s": rate, "300s": rate, ...}}``.

        Zero traffic in a window reads as a zero burn rate — an idle
        service is not burning budget.
        """
        now = self._clock()
        out: dict[str, dict[str, float]] = {
            obj.name: {} for obj in self.objectives
        }
        with self._lock:
            for window in self.windows:
                counts = self._window_counts_locked(window, now)
                for obj, (good, bad) in zip(self.objectives, counts):
                    total = good + bad
                    frac = bad / total if total else 0.0
                    out[obj.name][f"{window:g}s"] = frac / obj.budget
        return out

    def breaches(self, threshold: float = 1.0) -> list[str]:
        """Objectives burning above ``threshold`` in **every** window."""
        rates = self.burn_rates()
        return [
            name
            for name, by_window in rates.items()
            if by_window and all(r > threshold for r in by_window.values())
        ]

    def healthy(self, threshold: float = 1.0) -> bool:
        return not self.breaches(threshold)

    def update_gauges(self) -> None:
        """Publish current burn rates as ``repro_slo_burn_rate`` gauges."""
        for name, by_window in self.burn_rates().items():
            for window, rate in by_window.items():
                _metrics.gauge("slo_burn_rate", slo=name, window=window).set(rate)

    def snapshot(self) -> dict:
        """JSON-ready state for ``/healthz`` and ``/varz``."""
        rates = self.burn_rates()
        return {
            "objectives": [
                {
                    "name": obj.name,
                    "target": obj.target,
                    "latency_threshold_s": obj.latency_threshold_s,
                    "burn_rates": rates[obj.name],
                }
                for obj in self.objectives
            ],
            "windows_s": list(self.windows),
            "total_good": self.total_good,
            "total_bad": self.total_bad,
            "breaches": self.breaches(),
        }
