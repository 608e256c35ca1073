"""Query planner: zone-map chunk pruning and plan/result caching.

Before a terminal operation runs, the planner turns (table, row range,
filter) into an explicit :class:`Plan`:

1. **Prune** — the filter's :meth:`~repro.engine.expr.Expr.prune_chunks`
   interval analysis runs against the table's zone maps
   (:mod:`repro.storage.stats`).  Chunks the filter provably cannot
   match are dropped before any kernel is dispatched; chunks it provably
   matches everywhere are scanned without evaluating the filter mask.
2. **Coalesce** — surviving chunks merge into contiguous runs of equal
   mask-need, then split into executor-sized morsels, so pruning never
   degrades load balance.
3. **Cache** — plans carry a cache key built from the store fingerprint
   and the filter's canonical form; terminal results are kept in a
   process-wide LRU bounded by bytes (:class:`QueryCache`) so a repeated
   identical query returns a byte-identical copy without scanning at
   all; a materialized view's answer is a pinned entry of the same
   cache.

Everything is conservative: a table without zone maps, or a filter the
interval analysis cannot bound, degrades to the unpruned full scan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.executor import Executor, default_chunk_rows
from repro.obs import metrics as _metrics
from repro.obs import state as _obs
from repro.obs.trace import span as _span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.expr import Expr
    from repro.engine.store import GdeltStore
    from repro.storage.stats import ZoneMaps

__all__ = [
    "ScanUnit",
    "Plan",
    "FusedUnit",
    "QueryCache",
    "plan_query",
    "request_key",
    "fuse_plans",
    "result_cache",
    "invalidate_cache",
]

#: Result-cache budget: the bytes its LRU entries may hold (pins sit
#: outside it).  A hot pool of small answers fits in a few dozen KB; a
#: 6 000-group vector costs 48-96 KB, and a ``stats`` partial (every
#: passing key/value pair) can run to megabytes, so a server keeps a
#: handful of wide answers and none larger than the whole budget.
CACHE_BUDGET_BYTES = 1 << 20

#: Flat charge of one LRU entry for its key and slot, beside its arrays'
#: ``nbytes``: a served request's key, dict slot and scalar answer hold
#: ~400 B, a grouped answer's key and array header ~600 B (tracemalloc).
ENTRY_OVERHEAD_BYTES = 512


@dataclass(slots=True)
class ScanUnit:
    """One dispatchable piece of a plan.

    ``rows`` is an *absolute* table slice.  ``need_mask=False`` means the
    zone maps proved every row in the unit passes the filter, so the
    kernel may skip mask evaluation entirely.
    """

    rows: slice
    need_mask: bool


@dataclass(slots=True)
class Plan:
    """An executable scan plan for one terminal operation."""

    table: str
    rows: slice
    op: str
    where_canonical: str | None
    units: list[ScanUnit]
    #: Zone-map chunk accounting (all zero when pruning was unavailable).
    n_chunks_total: int = 0
    n_chunks_pruned: int = 0
    n_chunks_full: int = 0
    zone_chunk_rows: int | None = None
    #: "zone-map" | "unavailable" | "unfiltered"
    pruning: str = "unfiltered"
    cache_key: tuple | None = None
    #: "off" | "miss" | "hit" — filled in by the terminal that runs the plan.
    cache_status: str = "off"
    #: The materialized view whose pinned answer the plan returned.
    view: str | None = None

    @property
    def source(self) -> str:
        """"view" when a view's pinned answer served the plan, else "scan"."""
        return "scan" if self.view is None else "view"

    @property
    def rows_planned(self) -> int:
        """Rows the plan will actually scan (after pruning)."""
        return sum(u.rows.stop - u.rows.start for u in self.units)

    @property
    def rows_total(self) -> int:
        """Rows in the (possibly time-restricted) view before pruning."""
        return self.rows.stop - self.rows.start

    def describe(self) -> str:
        """Multi-line human-readable plan (the body of ``explain()``)."""
        lines = [f"scan {self.table} [{self.rows.start:,}, {self.rows.stop:,})"]
        if self.where_canonical is None:
            lines.append("  filter none")
        else:
            lines.append(f"  filter {self.where_canonical}")
        if self.pruning == "zone-map":
            kept = self.n_chunks_total - self.n_chunks_pruned
            lines.append(
                f"  zone-map pruning: {self.n_chunks_pruned}/"
                f"{self.n_chunks_total} chunks pruned, {kept} scanned "
                f"({self.n_chunks_full} mask-free), "
                f"chunk_rows={self.zone_chunk_rows}"
            )
            lines.append(
                f"  rows scanned {self.rows_planned:,} of {self.rows_total:,}"
            )
        elif self.pruning == "unavailable":
            lines.append("  zone-map pruning: unavailable (full scan)")
        else:
            lines.append("  zone-map pruning: not needed (no filter)")
        lines.append(f"  dispatch {len(self.units)} morsel(s)")
        if self.cache_key is not None:
            lines.append(f"  result cache: {self.cache_status}")
        if self.view is not None:
            lines.append(f"  source: view {self.view}")
        return "\n".join(lines)


class _StatsView:
    """Zone-map accessor restricted to the chunks overlapping a row range.

    This is the ``stats`` object :meth:`Expr.prune_chunks` analyses
    against: ``min``/``max``/``nulls`` return per-chunk arrays for the
    window, or ``None`` for columns the zone maps do not cover.
    """

    __slots__ = ("_zm", "_c0", "_c1")

    def __init__(self, zm: "ZoneMaps", c0: int, c1: int) -> None:
        self._zm = zm
        self._c0, self._c1 = c0, c1

    def min(self, name: str):
        a = self._zm.mins.get(name)
        return None if a is None else a[self._c0 : self._c1]

    def max(self, name: str):
        a = self._zm.maxs.get(name)
        return None if a is None else a[self._c0 : self._c1]

    def nulls(self, name: str):
        a = self._zm.nulls.get(name)
        return None if a is None else a[self._c0 : self._c1]


def _morselize(runs: list[ScanUnit], n_workers: int) -> list[ScanUnit]:
    """Split coalesced runs into executor-sized morsels.

    Sizing uses the *selected* row count, so a heavily pruned plan still
    hands every worker multiple morsels.
    """
    selected = sum(r.rows.stop - r.rows.start for r in runs)
    if selected == 0:
        return []
    step = default_chunk_rows(selected, n_workers)
    units: list[ScanUnit] = []
    for run in runs:
        for lo in range(run.rows.start, run.rows.stop, step):
            units.append(
                ScanUnit(slice(lo, min(lo + step, run.rows.stop)), run.need_mask)
            )
    return units


def plan_query(
    store: "GdeltStore",
    table: str,
    where: "Expr | None",
    rows: slice,
    op: str,
    executor: Executor,
    sig: tuple | None = (),
    prune: bool = True,
) -> Plan:
    """Build the scan plan for one terminal operation.

    Args:
        sig: extra cache-key components identifying the terminal (e.g.
            the summed column, or a named group key).  Pass ``None`` to
            mark the terminal uncacheable (e.g. grouping by a caller-
            supplied raw array the planner cannot fingerprint).
        prune: consult zone maps (default).  ``False`` forces the
            unpruned full scan — the ablation baseline, which carries no
            cache key so it always executes.
    """
    n_workers = getattr(executor, "n_workers", 1)
    canonical = where.canonical() if where is not None else None
    cache_key = request_key(store, table, canonical, rows, op, sig, prune)

    with _span("planner.plan", table=table, op=op) as sp:
        if where is None:
            plan = Plan(
                table=table, rows=rows, op=op, where_canonical=None,
                units=_morselize([ScanUnit(rows, False)], n_workers),
                pruning="unfiltered", cache_key=cache_key,
            )
            return plan

        zm = store.zone_maps(table) if prune else None
        pruned = None
        if zm is not None and zm.n_chunks:
            c0, c1 = zm.chunk_range(rows)
            if c1 > c0:
                pruned = where.prune_chunks(_StatsView(zm, c0, c1))
        if pruned is None:
            return Plan(
                table=table, rows=rows, op=op, where_canonical=canonical,
                units=_morselize([ScanUnit(rows, True)], n_workers),
                pruning="unavailable", cache_key=cache_key,
            )

        may, all_ = pruned
        # Coalesce surviving chunks into runs of equal mask-need, clipped
        # to the view's row range.
        runs: list[ScanUnit] = []
        for i in range(c1 - c0):
            if not may[i]:
                continue
            sl = zm.chunk_slice(c0 + i)
            lo = max(sl.start, rows.start)
            hi = min(sl.stop, rows.stop)
            if hi <= lo:
                continue
            need = not bool(all_[i])
            if runs and runs[-1].rows.stop == lo and runs[-1].need_mask == need:
                runs[-1].rows = slice(runs[-1].rows.start, hi)
            else:
                runs.append(ScanUnit(slice(lo, hi), need))

        n_total = c1 - c0
        n_kept = int(np.count_nonzero(may))
        n_full = int(np.count_nonzero(may & all_))
        plan = Plan(
            table=table, rows=rows, op=op, where_canonical=canonical,
            units=_morselize(runs, n_workers),
            n_chunks_total=n_total,
            n_chunks_pruned=n_total - n_kept,
            n_chunks_full=n_full,
            zone_chunk_rows=zm.chunk_rows,
            pruning="zone-map",
            cache_key=cache_key,
        )
        sp.set(chunks=n_total, pruned=plan.n_chunks_pruned)
        if _obs._enabled:
            _metrics.counter("planner_chunks_total", table=table).inc(n_total)
            _metrics.counter("planner_chunks_pruned", table=table).inc(
                plan.n_chunks_pruned
            )
            _metrics.counter("planner_chunks_full_match", table=table).inc(n_full)
        return plan


def request_key(
    store: "GdeltStore",
    table: str,
    canonical: str | None,
    rows: slice,
    op: str,
    sig: tuple | None = (),
    prune: bool = True,
) -> tuple | None:
    """The canonical identity of one terminal request.

    ``canonical`` is the filter's :meth:`~repro.engine.expr.Expr
    .canonical` form (``None`` when unfiltered).  This is the tuple
    :func:`plan_query` stamps on ``Plan.cache_key`` — the serving layer
    uses it to single-flight identical in-flight requests without
    building a full plan first.  ``None`` means the request has no
    canonical identity: an unfingerprintable ``sig``, or an unpruned
    baseline that must execute rather than reuse a pruned run's value.
    """
    if sig is None or not prune:
        return None
    return (store.fingerprint(), table, rows.start, rows.stop, canonical, op, sig)


# --- shared-scan fusion ------------------------------------------------------


@dataclass(slots=True)
class FusedUnit:
    """One morsel of a fused multi-request scan.

    ``members`` lists ``(plan index, need_mask)`` for every fused plan
    whose surviving chunks cover this row range; plans whose zone maps
    pruned the range are simply absent, so a fused pass still does no
    work a solo pass would have skipped.
    """

    rows: slice
    members: tuple[tuple[int, bool], ...]


def fuse_plans(plans: "list[Plan]", n_workers: int = 1) -> list[FusedUnit]:
    """Fuse the scan units of several same-table plans into one pass.

    The union of all plans' unit boundaries cuts the table into
    elementary segments; each segment carries the set of plans covering
    it (with their per-plan mask-need).  Adjacent segments with the same
    membership merge, then split into executor-sized morsels — so one
    dispatch serves every fused request while preserving each
    plan's own pruning and mask-free decisions.

    A batch of one is its own plan: its morsels come back as they are,
    without the boundary sweep.
    """
    if len(plans) == 1:
        return [FusedUnit(u.rows, ((0, u.need_mask),)) for u in plans[0].units]
    bounds: set[int] = set()
    for p in plans:
        for u in p.units:
            bounds.add(u.rows.start)
            bounds.add(u.rows.stop)
    if not bounds:
        return []
    pts = sorted(bounds)
    # Membership per elementary segment [pts[i], pts[i+1]).
    members: list[list[tuple[int, bool]]] = [[] for _ in range(len(pts) - 1)]
    for idx, p in enumerate(plans):
        for u in p.units:
            lo = np.searchsorted(pts, u.rows.start)
            hi = np.searchsorted(pts, u.rows.stop)
            for s in range(lo, hi):
                members[s].append((idx, u.need_mask))
    # Coalesce adjacent segments with identical membership.
    runs: list[FusedUnit] = []
    for i, mem in enumerate(members):
        if not mem:
            continue
        key = tuple(mem)
        lo, hi = pts[i], pts[i + 1]
        if runs and runs[-1].rows.stop == lo and runs[-1].members == key:
            runs[-1].rows = slice(runs[-1].rows.start, hi)
        else:
            runs.append(FusedUnit(slice(lo, hi), key))
    # Morselize by *selected* rows, like _morselize, keeping membership.
    selected = sum(r.rows.stop - r.rows.start for r in runs)
    if selected == 0:
        return []
    step = default_chunk_rows(selected, n_workers)
    units: list[FusedUnit] = []
    for run in runs:
        for lo in range(run.rows.start, run.rows.stop, step):
            units.append(
                FusedUnit(slice(lo, min(lo + step, run.rows.stop)), run.members)
            )
    return units


# --- result cache -----------------------------------------------------------


def _copy_value(value):
    """Defensive copy so cached results can never be mutated by callers."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, dict):
        return {k: _copy_value(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_copy_value(v) for v in value)
    return value


def _nbytes(value) -> int:
    """Array bytes held by a (copied) result value."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(_nbytes(v) for v in value.values())
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _note_bytes(held: int) -> None:
    if _obs._enabled:
        _metrics.gauge("planner_cache_bytes").set(held)


class QueryCache:
    """LRU cache of terminal-operation results, plus pinned view answers.

    Keys are ``(store fingerprint, table, row range, canonical filter,
    op, sig)``; the store fingerprint includes a generation counter, so
    :meth:`GdeltStore.invalidate` implicitly orphans every stale entry
    (and :meth:`invalidate` evicts them eagerly).

    The LRU is bounded by bytes, not entries: an entry costs its arrays'
    ``nbytes`` plus :data:`ENTRY_OVERHEAD_BYTES`, least recently used
    entries go until the total (``stats()["bytes"]``) fits
    ``budget_bytes``, and an answer costing more than the whole budget
    is returned to its caller but never kept.

    A *pinned* entry (:meth:`pin`) is a materialized view's answer under
    the request key it answers.  Pins sit outside the byte budget and
    never age out; :meth:`get` finds them with the same one probe.
    ``stats()["pinned"]`` counts them; ``size``, ``bytes`` and ``len()``
    do not.  A pin counts its holders, so the views of two catalogs that
    answer one request share the entry until both let go of it.

    Thread-safe: one process-wide instance is shared by every query —
    including the serving subsystem's worker threads — so every access
    to the ordered dict, the byte total and the hit/miss counters
    happens under a lock.  (``OrderedDict.move_to_end`` during a
    concurrent iteration, or two racing ``popitem`` evictions, would
    otherwise corrupt the LRU order or raise.)  Values are copied on the
    way in and out, outside the lock — cached objects are never handed
    to two callers.
    """

    def __init__(self, budget_bytes: int = CACHE_BUDGET_BYTES) -> None:
        self.budget_bytes = budget_bytes
        #: Request key -> ``(value, cost in bytes)``.
        self._data: "OrderedDict[tuple, tuple[object, int]]" = OrderedDict()
        #: Request key -> ``(value, view name)``.
        self._pins: dict[tuple, tuple[object, str]] = {}
        #: Request key -> how many views hold its pin.
        self._holders: dict[tuple, int] = {}
        self._lock = threading.Lock()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: tuple) -> tuple[object, str | None] | None:
        """``(value copy, pinning view's name or None)`` or None; counts
        the hit/miss."""
        with self._lock:
            value, view = self._pins.get(key, (None, None))
            if value is None and (entry := self._data.get(key)) is not None:
                value = entry[0]
                self._data.move_to_end(key)
            if value is not None:
                self.hits += 1
            else:
                self.misses += 1
        if value is not None:
            if _obs._enabled:
                _metrics.counter("planner_cache_hits_total").inc()
            return _copy_value(value), view
        if _obs._enabled:
            _metrics.counter("planner_cache_misses_total").inc()
        return None

    def put(self, key: tuple, value) -> None:
        """Keep a copy of ``value`` under ``key`` unless it alone costs
        more than the budget, evicting least recently used entries until
        the held bytes fit."""
        value = _copy_value(value)
        cost = _nbytes(value) + ENTRY_OVERHEAD_BYTES
        if cost > self.budget_bytes:
            return
        evicted = 0
        with self._lock:
            old = self._data.pop(key, None)
            self.bytes += cost - (0 if old is None else old[1])
            self._data[key] = (value, cost)
            while self.bytes > self.budget_bytes:
                self.bytes -= self._data.popitem(last=False)[1][1]
                evicted += 1
            self.evictions += evicted
            held = self.bytes
        if evicted and _obs._enabled:
            _metrics.counter("planner_cache_evictions_total").inc(evicted)
        _note_bytes(held)

    def pin(self, key: tuple, value, view: str) -> None:
        """Keep ``value`` as view ``view``'s answer to ``key`` until its
        last holder is discarded or :meth:`invalidate` removes it;
        pinning a pinned key adds a holder."""
        value = _copy_value(value)
        with self._lock:
            self._pins[key] = (value, view)
            self._holders[key] = self._holders.get(key, 0) + 1

    def discard(self, key: tuple | None) -> None:
        """Remove ``key``'s LRU entry and one holder of its pin; the pin
        goes with its last holder (a no-op when absent)."""
        with self._lock:
            if (entry := self._data.pop(key, None)) is not None:
                self.bytes -= entry[1]
            holders = self._holders.pop(key, 0) - 1
            if holders > 0:
                self._holders[key] = holders
            else:
                self._pins.pop(key, None)
            held = self.bytes
        _note_bytes(held)

    def invalidate(self, store_token: str | None = None) -> int:
        """Evict entries, pins included, for one store (by fingerprint
        token) or all."""
        with self._lock:
            n = len(self._data) + len(self._pins)
            for entries in (self._data, self._pins, self._holders):
                for k in [k for k in entries if store_token in (None, k[0][0])]:
                    del entries[k]
            self.bytes = held = sum(cost for _, cost in self._data.values())
            n -= len(self._data) + len(self._pins)
        _note_bytes(held)
        return n

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "bytes": self.bytes,
                "pinned": len(self._pins),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_CACHE = QueryCache()


def result_cache() -> QueryCache:
    """The process-wide terminal-result cache."""
    return _CACHE


def invalidate_cache(store_token: str | None = None) -> int:
    """Evict cached results for one store fingerprint token (or all)."""
    return _CACHE.invalidate(store_token)
