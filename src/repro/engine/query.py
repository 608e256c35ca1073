"""User-facing query API and the paper's aggregated country query.

:class:`Query` is a small fluent builder over one store table: filter
with expressions, then count / aggregate / group, optionally fanned out
over an executor.  It covers what the paper's "user-defined queries" do
(filtered scans and grouped aggregations); the heavyweight analyses live
in :mod:`repro.analysis` as dedicated kernels.

Every terminal operation binds to an :class:`ExecutableOp` and runs
through :func:`run_batch`, the one runner shared with the serving
layer: the planner (:mod:`repro.engine.planner`) prunes chunks the
filter cannot match, chunks the filter provably matches skip mask
evaluation, results land in an LRU cache keyed by the canonicalized
filter, and the misses of a batch are fused into one scan.  A
:class:`Query` terminal is a batch of one.  The preferred entry point
is :meth:`GdeltStore.query`, whose terminals return
:class:`QueryResult` (value + profile + plan).  Grouped aggregation is
spelled ``q.group_by("Quarter").count()``.  What each aggregate
computes per chunk and how chunk partials combine lives in
:mod:`repro.engine.terminal`; this module plans, dispatches and caches.

:func:`aggregated_country_query` is the paper's Section VI-G workload:
one pass over the mentions table that simultaneously produces the inputs
of Tables V, VI and VII (country co-reporting, cross-reporting counts,
and percentages).  It is the query whose OpenMP scaling Fig 12 plots,
so it supports chunked parallel execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.engine.aggregate import group_count_2d
from repro.engine.executor import CancelToken, Executor, SerialExecutor
from repro.engine.expr import Expr
from repro.engine.planner import (
    Plan,
    fuse_plans,
    plan_query,
    request_key,
    result_cache,
)
from repro.engine.store import GdeltStore
from repro.engine.terminal import Terminal, TerminalSpec
from repro.kernels import cooccurrence, distinct
from repro.obs import metrics as _metrics
from repro.obs import state as _obs
from repro.obs.profile import ProfileCollector, QueryProfile
from repro.obs.trace import span as _span

__all__ = [
    "Query",
    "QueryResult",
    "GroupedQuery",
    "CountryQueryResult",
    "ExecutableOp",
    "aggregated_country_query",
    "bind_terminal",
    "run_batch",
    "window_rows",
]


def bind_terminal(
    store: GdeltStore,
    table: str,
    spec: TerminalSpec,
    where: Expr | None = None,
) -> tuple[Terminal, Callable[[slice, bool], object]]:
    """Resolve a terminal description against a store.

    Returns the terminal bound to the store's facts (canonical group
    name and width from :meth:`GdeltStore.group_key`, the aggregated
    column's dtype) and its chunk kernel ``kernel(sl, need_mask)`` over
    absolute row slices of ``table``.

    Raises:
        KeyError: unknown column, group key or filter column — up
            front, never from inside a worker kernel.
    """
    cols = store.table(table)
    if spec.column is not None and spec.column not in cols:
        raise KeyError(f"unknown column {spec.column!r} for table {table!r}")
    if where is not None:
        missing = [c for c in where.columns() if c not in cols]
        if missing:
            raise KeyError(
                f"unknown filter column(s) {', '.join(sorted(missing))} "
                f"for table {table!r}"
            )
    keys = n_groups = None
    if spec.group is not None:
        group, keys, n_groups = store.group_key(table, spec.group)
        spec = TerminalSpec(spec.op, spec.column, group, spec.k)
    values = cols[spec.column] if spec.column is not None else None
    terminal = spec.bind(n_groups, None if values is None else values.dtype)

    def mask_of(sl: slice) -> np.ndarray:
        return np.asarray(where.evaluate(cols, sl), dtype=bool)

    return terminal, terminal.kernel(keys, values, mask_of)


@dataclass(slots=True)
class QueryResult:
    """What a query terminal returns: the answer plus how it ran.

    Attributes:
        value: the terminal's result (count, array, stats dict, ...).
        plan: the executed :class:`~repro.engine.planner.Plan`, carrying
            pruning counts and the cache status (``hit``/``miss``).
        profile: per-chunk execution profile (None when observability is
            off or the result came from the cache).
        stats: serving telemetry for results produced by a remote server
            (:func:`repro.connect`) — queue delay, batch size, shard
            fan-out, ``missing_shards`` on partial results.  None for
            local execution.
    """

    value: object
    plan: Plan | None = field(default=None, compare=False)
    profile: QueryProfile | None = field(default=None, compare=False)
    stats: dict | None = field(default=None, compare=False)


class ExecutableOp:
    """One terminal bound to a store: kernel, fold and identity.

    ``partial(sl, need_mask)`` computes the chunk partial for an
    absolute row slice; ``need_mask=False`` means the planner proved
    every row in the slice passes the filter, so mask evaluation is
    skipped.  ``reduce(parts)`` folds the partials and finalizes — or,
    for ``partials=True``, returns the mergeable wire form instead;
    ``terminal`` is the bound :class:`~repro.engine.terminal.Terminal`
    that does both.

    Raises:
        KeyError: unknown column, group key or filter column.
    """

    def __init__(
        self,
        store: GdeltStore,
        table: str,
        spec: TerminalSpec,
        where: Expr | None,
        rows: slice,
        partials: bool = False,
        prune: bool = True,
    ) -> None:
        self.store, self.table, self.where, self.rows = store, table, where, rows
        self.spec, self.partials, self.prune = spec, partials, prune
        self.terminal, self._kernel = bind_terminal(store, table, spec, where)
        self.op_name = spec.op_name
        self.sig = self.terminal.signature(partial=partials)

    @cached_property
    def key(self) -> tuple | None:
        """The request identity (:func:`~repro.engine.planner.request_key`)
        the serving layer single-flights on; ``None`` for an unpruned op,
        which never touches the result cache.  Built on first read, so a
        local terminal, whose plan stamps the same tuple, never pays for
        it twice."""
        canonical = self.where.canonical() if self.where is not None else None
        return request_key(
            self.store, self.table, canonical, self.rows, self.op_name,
            self.sig, self.prune,
        )

    def plan(self, executor: Executor) -> Plan:
        """This op's scan plan (result-cache key included)."""
        return plan_query(
            self.store, self.table, self.where, self.rows, self.op_name,
            executor, self.sig, prune=self.prune,
        )

    def partial(self, sl: slice, need_mask: bool):
        return self._kernel(sl, need_mask and self.where is not None)

    def reduce(self, parts: list):
        terminal = self.terminal
        folded = terminal.fold(parts)
        if self.partials:
            return terminal.to_wire(folded)
        return terminal.finalize(folded)


def run_batch(
    ops: list[ExecutableOp],
    executor: Executor,
    cancel: CancelToken | None = None,
) -> list[QueryResult | Exception]:
    """Plan → cache probe → fused scan → reduce → cache fill, for N ops.

    Each op is planned and its ``plan.cache_key`` probed in the
    process-wide result cache; a hit completes without scanning
    (``plan.cache_status == "hit"``); a materialized view's pinned
    answer also names its view (``plan.view``, so ``plan.source ==
    "view"``).  The misses of each table are fused
    (:func:`~repro.engine.planner.fuse_plans`) into one ``map_slices``
    pass that reads each morsel's columns once for every member
    covering it; a plan with no cache key (``prune=False``) always
    scans and reports ``"off"``.

    Returns one entry per op, in order: a :class:`QueryResult`, or the
    exception that op failed with.  ``cancel`` is checked before every
    morsel; when it fires, every op of the scan fails with
    :class:`~repro.engine.executor.QueryCancelled`.

    Float caveat: fused morsel boundaries are the union of the members'
    boundaries, so float-column sums may associate differently than a
    solo run (the same last-ulp variation as changing the worker
    count).  Counts and integer-column aggregates are exact either way.
    """
    out: list = [None] * len(ops)
    misses: dict[str, list[tuple[int, Plan]]] = {}
    for i, op in enumerate(ops):
        try:
            plan = op.plan(executor)
        except Exception as exc:  # bad column resolved late, etc.
            out[i] = exc
            continue
        if plan.cache_key is not None:
            hit = result_cache().get(plan.cache_key)
            if hit is not None:
                hit, plan.view = hit
                plan.cache_status = "hit"
                if _obs._enabled:
                    _metrics.counter("queries_total", op=op.op_name).inc()
                out[i] = QueryResult(value=hit, plan=plan)
                continue
            plan.cache_status = "miss"
        misses.setdefault(op.table, []).append((i, plan))
    for group in misses.values():
        _scan(ops, group, executor, cancel, out)
    return out


def _scan(ops, group, executor, cancel, out) -> None:
    """One fused pass over the ``(index, plan)`` misses of one table;
    fills ``out[index]`` for each."""
    n_workers = getattr(executor, "n_workers", 1)
    fused = fuse_plans([plan for _, plan in group], n_workers)
    by_range = {(u.rows.start, u.rows.stop): u.members for u in fused}

    def kernel(sl: slice):
        return [
            (j, ops[group[j][0]].partial(sl, need))
            for j, need in by_range[(sl.start, sl.stop)]
        ]

    slices = [u.rows for u in fused]
    profile = None
    try:
        if not _obs._enabled:
            part_lists = executor.map_slices(kernel, slices, cancel=cancel)
        else:
            plans = [plan for _, plan in group]
            name = f"query.{plans[0].op}" if len(plans) == 1 else "query.batch"
            n_rows = sum(p.rows_total for p in plans)
            collector = ProfileCollector()
            with _span(
                name, table=plans[0].table, rows=n_rows, size=len(plans),
                chunks_pruned=sum(p.n_chunks_pruned for p in plans),
            ):
                t0 = time.perf_counter()
                part_lists = executor.map_slices(
                    kernel, slices, profile=collector, cancel=cancel
                )
                wall = time.perf_counter() - t0
            profile = collector.finish(
                name=name, n_rows=n_rows, n_workers=n_workers, wall_seconds=wall,
            )
            for plan in plans:
                _metrics.counter("queries_total", op=plan.op).inc()
                _metrics.histogram("query_seconds", op=plan.op).observe(wall)
    except Exception as exc:  # cancellation, injected aborts, kernel failures
        for i, _ in group:
            out[i] = exc
        return
    parts: list[list] = [[] for _ in group]
    for plist in part_lists:
        for j, part in plist:
            parts[j].append(part)
    for (i, plan), mine in zip(group, parts):
        try:
            value = ops[i].reduce(mine)
        except Exception as exc:
            out[i] = exc
            continue
        if plan.cache_key is not None:
            result_cache().put(plan.cache_key, value)
        out[i] = QueryResult(value=value, plan=plan, profile=profile)


def window_rows(
    store: GdeltStore, table: str, window: tuple[int, int] | None
) -> slice:
    """The rows of ``table`` a capture window ``[lo, hi)`` selects.

    The whole table without a window; with one, the capture-sorted
    mentions rows of :meth:`GdeltStore.interval_rows`.  The one place a
    window becomes rows: a :class:`Query` terminal and a served request
    (:func:`repro.serve.request.compile_request`) both resolve it here,
    so a served request and its local twin share one cache key.
    """
    if window is None:
        return slice(0, store.n_rows(table))
    return store.interval_rows(*window)


class Query:
    """A filtered view over one table of a store.

    Examples::

        q = store.query("mentions").filter(col("Delay") > 96)
        q.count()                      # QueryResult(value=..., plan=...)
        q.group_by("Quarter").count()  # per-quarter counts

    One builder for every store: a local
    :class:`~repro.engine.store.GdeltStore` and a
    :class:`~repro.serve.remote.RemoteStore` both return it from
    ``query()``.  The store supplies how a terminal runs
    (``run_terminal(query, spec)``) and how a group key resolves
    (``group_width(table, key)``); everything else is written here
    once.  :attr:`rows`, :meth:`explain`, :meth:`mask`,
    :meth:`with_executor` and :meth:`with_pruning` act on local
    columns and raise :class:`TypeError` on any other store.

    Re-entrancy: a ``Query`` is cheap per-call state — builder methods
    return fresh instances and terminals touch only locals plus the
    thread-safe store/planner caches — so any number of threads may
    build and run queries against one store concurrently, each from its
    own ``store.query(...)`` chain.  Only :attr:`last_profile` /
    :attr:`last_plan` are instance-mutable; don't share one instance's
    terminals across threads if you read those afterwards.
    """

    def __init__(
        self,
        store,
        table: str,
        where: Expr | None = None,
        executor: Executor | None = None,
        window: tuple[int, int] | None = None,
        prune: bool = True,
    ) -> None:
        store.n_rows(table)  # an unknown table raises ValueError here
        self.store = store
        self.table_name = table
        self.where = where
        self.executor = executor or SerialExecutor()
        #: Capture-interval window ``(lo, hi)`` from :meth:`time_range`.
        self.window = window
        self.prune = prune
        #: Execution profile of the most recent terminal operation run
        #: with observability enabled (None otherwise).
        self.last_profile: QueryProfile | None = None
        #: Plan of the most recent terminal operation.
        self.last_plan: Plan | None = None

    def _local(self, what: str) -> None:
        if not isinstance(self.store, GdeltStore):
            raise TypeError(
                f"{what} needs a local GdeltStore; "
                f"{type(self.store).__name__} runs terminals on its server"
            )

    @property
    def rows(self) -> slice:
        """The table rows the query's window selects (local stores)."""
        self._local("rows")
        return window_rows(self.store, self.table_name, self.window)

    @property
    def n_rows(self) -> int:
        """Rows in the query's (possibly time-restricted) view."""
        rows = self.rows
        return rows.stop - rows.start

    def _clone(self, **kw) -> "Query":
        args = dict(
            store=self.store,
            table=self.table_name,
            where=self.where,
            executor=self.executor,
            window=self.window,
            prune=self.prune,
        )
        args.update(kw)
        return Query(**args)

    def filter(self, expr: Expr) -> "Query":
        """Add a conjunct to the filter; returns a new query."""
        combined = expr if self.where is None else (self.where & expr)
        return self._clone(where=combined)

    def with_executor(self, executor: Executor) -> "Query":
        """Run subsequent terminal operations on ``executor``."""
        self._local("with_executor")
        return self._clone(executor=executor)

    def with_pruning(self, enabled: bool) -> "Query":
        """Enable/disable zone-map pruning (the ablation baseline runs
        with ``False``); results are identical either way."""
        self._local("with_pruning")
        return self._clone(prune=enabled)

    def time_range(self, start_interval: int, end_interval: int) -> "Query":
        """Restrict a *mentions* query to capture intervals in
        [start_interval, end_interval).

        The mentions table is stored sorted by capture interval, so the
        restriction is two binary searches narrowing the scanned row
        range — a time slice costs O(log n) plus the rows it selects,
        never a full-table predicate scan.  Chained windows intersect
        (and may come out empty).

        Raises:
            ValueError: on the events table (stored in id order) or an
                inverted range.
        """
        if self.table_name != "mentions":
            raise ValueError("time_range requires the capture-sorted mentions table")
        if end_interval < start_interval:
            raise ValueError("inverted time range")
        lo, hi = start_interval, end_interval
        if self.window is not None:
            lo = max(lo, self.window[0])
            hi = max(lo, min(hi, self.window[1]))
        return self._clone(window=(lo, hi))

    def group_by(self, key: str) -> "GroupedQuery":
        """Group passing rows by a named key (``"Quarter"``,
        ``"SourceCountry"``, any integer column, ...).

        See :meth:`GdeltStore.group_key` for the registry.

        Raises:
            KeyError: unknown group key.
        """
        return GroupedQuery(self, key)

    def explain(self) -> str:
        """Human-readable execution plan for this query.

        Shows the scanned table, the (possibly time-restricted) row
        range, the filter, the zone-map pruning decision (chunks
        pruned / scanned / mask-free), cache status, and the executor —
        everything the engine decides before running the query.
        """
        rows = self.rows
        total = self.store.n_rows(self.table_name)
        plan = plan_query(
            self.store, self.table_name, self.where, rows, "explain",
            self.executor, None, prune=self.prune,
        )
        lines = [f"scan {self.table_name}"]
        n_rows = rows.stop - rows.start
        if n_rows != total:
            pct = 100.0 * n_rows / total if total else 0.0
            lines.append(
                f"  rows [{rows.start:,}, {rows.stop:,}) "
                f"of {total:,} ({pct:.1f}%) via sorted-range restriction"
            )
        else:
            lines.append(f"  rows [0, {total:,}) (full table)")
        if self.where is not None:
            lines.append(f"  filter {self.where!r}")
            lines.append(
                "  columns " + ", ".join(sorted(self.where.columns()))
            )
        else:
            lines.append("  filter none")
        if plan.pruning == "zone-map":
            kept = plan.n_chunks_total - plan.n_chunks_pruned
            lines.append(
                f"  zone-map pruning: {plan.n_chunks_pruned}/"
                f"{plan.n_chunks_total} chunks pruned, {kept} scanned "
                f"({plan.n_chunks_full} mask-free), "
                f"chunk_rows={plan.zone_chunk_rows}"
            )
            lines.append(
                f"  rows scanned {plan.rows_planned:,} of {plan.rows_total:,}"
            )
        elif plan.pruning == "unavailable":
            lines.append("  zone-map pruning: unavailable (full scan)")
        else:
            lines.append("  zone-map pruning: not needed (no filter)")
        lines.append(f"  dispatch {len(plan.units)} morsel(s)")
        cache = result_cache()
        lines.append(
            f"  result cache: {len(cache)} entries, "
            f"{cache.hits} hits / {cache.misses} misses"
        )
        lines.append(
            f"  executor {type(self.executor).__name__}"
            f" x{getattr(self.executor, 'n_workers', 1)}"
        )
        return "\n".join(lines)

    def _aggregate(self, spec: TerminalSpec) -> QueryResult:
        """Run one aggregate terminal on the query's store."""
        spec.validate()
        result = self.store.run_terminal(self, spec)
        self.last_plan = result.plan
        if result.profile is not None:
            self.last_profile = result.profile
        return result

    # -- terminal operations -------------------------------------------------

    def mask(self) -> QueryResult:
        """Full boolean filter mask over the view (all-true when
        unfiltered): the filter evaluated directly, neither planned nor
        cached."""
        rows = self.rows
        if self.where is None:
            return QueryResult(value=np.ones(rows.stop - rows.start, dtype=bool))
        cols = self.store.table(self.table_name)
        return QueryResult(value=np.asarray(self.where.evaluate(cols, rows), dtype=bool))

    def count(self) -> QueryResult:
        """Number of rows passing the filter."""
        return self._aggregate(TerminalSpec("count"))

    def sum(self, column: str) -> QueryResult:
        """Sum of a column over passing rows."""
        return self._aggregate(TerminalSpec("sum", column))

    def mean(self, column: str) -> QueryResult:
        """Mean of a column over passing rows (NaN when empty)."""
        return self._aggregate(TerminalSpec("mean", column))


class GroupedQuery:
    """Grouped aggregation over a query's passing rows.

    Built by :meth:`Query.group_by`; the key name resolves through the
    store's ``group_width`` (aliases share one canonical name, so
    ``group_by("Quarter")`` and ``group_by("MentionQuarter")`` share
    cache entries; a remote store reads the same answer from its
    ``meta``).  Terminals return a :class:`QueryResult` wrapping
    arrays of length :attr:`n_groups`.
    """

    def __init__(self, query: Query, key: str) -> None:
        self._q = query
        self._name = key
        self.key, self.n_groups = query.store.group_width(query.table_name, key)

    def _aggregate(self, op: str, column: str | None = None, k: int | None = None):
        return self._q._aggregate(TerminalSpec(op, column, self._name, k))

    def count(self) -> QueryResult:
        """Rows per group."""
        return self._aggregate("count")

    def sum(self, column: str) -> QueryResult:
        """Sum of ``column`` per group."""
        return self._aggregate("sum", column)

    def mean(self, column: str) -> QueryResult:
        """Mean of ``column`` per group (NaN for empty groups)."""
        return self._aggregate("mean", column)

    def stats(self, column: str) -> QueryResult:
        """min/max/mean/median of ``column`` per group."""
        return self._aggregate("stats", column)

    def top(self, k: int) -> QueryResult:
        """The ``k`` busiest groups: ``{"keys", "counts"}`` arrays sorted
        by descending row count (ascending key on ties)."""
        return self._aggregate("top", k=k)


# --- the paper's aggregated country query ------------------------------------


@dataclass(slots=True)
class CountryQueryResult:
    """Everything Tables V-VII derive from (roster-indexed).

    Attributes:
        cross_counts: [event-country, publisher-country] article counts
            (Table VI is its top-10 block; Fig 8 the top-50 block).
        co_events: [i, j] number of distinct events reported by sources
            of both countries (diagonal: e_i) — Table V's numerator.
        publisher_articles: total attributed articles per publisher
            country (Table VII's denominators).
        profile: execution profile of the producing run (None when the
            query ran without observability or profiling).
    """

    cross_counts: np.ndarray
    co_events: np.ndarray
    publisher_articles: np.ndarray
    profile: QueryProfile | None = field(default=None, compare=False)

    def jaccard(self) -> np.ndarray:
        """Country co-reporting c_ij = e_ij / (e_i + e_j - e_ij)."""
        e = np.diag(self.co_events).astype(np.float64)
        denom = e[:, None] + e[None, :] - self.co_events
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(denom > 0, self.co_events / denom, 0.0)
        np.fill_diagonal(out, 0.0)
        return out

    def percentages(self) -> np.ndarray:
        """Table VII: cross_counts as % of each publisher column's total."""
        tot = self.publisher_articles.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(tot > 0, 100.0 * self.cross_counts / tot, 0.0)


def aggregated_country_query(
    store: GdeltStore,
    executor: Executor | None = None,
    chunk_rows: int | None = None,
    profile: bool | None = None,
) -> CountryQueryResult:
    """One parallel pass over mentions producing Tables V, VI and VII.

    Per chunk: gather each mention's event country (via the join column)
    and publisher country (via the TLD rule), accumulate the 2-D article
    count matrix, and mark (event, country) incidence bits.  Articles
    about untagged events (or whose event row is missing) count in an
    extra row ``n_c`` of the matrix, so each publisher's total output —
    Table VII's denominator — is a column sum of the same pass.  The
    reduce step sums count matrices, ORs incidence, and turns incidence
    into the country-pair co-event matrix with one co-occurrence count.

    Args:
        profile: force profile collection on (True) or off (False);
            default None collects exactly when observability is enabled.
            The collected :class:`QueryProfile` lands on the result's
            ``profile`` attribute.
    """
    executor = executor or SerialExecutor()
    n_c = store.n_countries
    src_country = store.source_country_idx()
    ev_country = store.event_country_idx()
    ev_row = store.mention_event_row()
    source_id = store.mentions["SourceId"]

    def kernel(sl: slice) -> tuple[np.ndarray, np.ndarray]:
        rows = ev_row[sl]
        pub = src_country[source_id[sl]]
        evc = np.where(rows >= 0, ev_country[np.clip(rows, 0, None)], -1)
        counts = group_count_2d(np.where(evc >= 0, evc, n_c), pub, (n_c + 1, n_c))
        ok = (rows >= 0) & (pub >= 0)
        # Compact (event, publisher-country) incidence keys: far smaller
        # than a per-chunk boolean matrix, and cheap to union at reduce.
        pairs = distinct(rows[ok] * np.int64(n_c) + pub[ok])
        return counts, pairs

    collect = _obs._enabled if profile is None else profile
    collector = ProfileCollector() if collect else None

    with _span("query.aggregated_country", rows=store.n_mentions):
        with _span("query.scan", rows=store.n_mentions, table="mentions"):
            t0 = time.perf_counter()
            partials = executor.map_chunks(
                kernel, store.n_mentions, chunk_rows, profile=collector
            )
            scan_wall = time.perf_counter() - t0

        with _span("query.aggregate", chunks=len(partials)):
            cross = np.zeros((n_c + 1, n_c), dtype=np.int64)
            pair_parts = []
            for counts, pairs in partials:
                cross += counts
                pair_parts.append(pairs)
            all_pairs = (
                distinct(np.concatenate(pair_parts))
                if pair_parts
                else np.empty(0, dtype=np.int64)
            )

        with _span("query.reduce", pairs=int(len(all_pairs))):
            # e_ij = I^T I over the (events x countries) incidence whose
            # nonzeros are the unique (event, publisher country) pairs,
            # already sorted by event: O(pairs), not O(events x countries).
            co_events = cooccurrence(all_pairs // n_c, all_pairs % n_c, n_c)
            publisher_articles = cross.sum(axis=0)

    query_profile = None
    if collector is not None:
        # Sequentially streamed column bytes per mention row: the join
        # column and the source-id column (the gathers read dictionary-
        # sized tables that stay cache-resident).  This is the number a
        # STREAM bandwidth figure for the host is compared against.
        bytes_per_row = ev_row.dtype.itemsize + source_id.dtype.itemsize
        query_profile = collector.finish(
            name="aggregated_country_query",
            n_rows=store.n_mentions,
            n_workers=getattr(executor, "n_workers", 1),
            wall_seconds=scan_wall,
            bytes_scanned=store.n_mentions * bytes_per_row,
        )
        if _obs._enabled:
            _metrics.counter("queries_total", op="aggregated_country").inc()
            _metrics.histogram("query_seconds", op="aggregated_country").observe(
                scan_wall
            )

    return CountryQueryResult(
        cross_counts=cross[:n_c],
        co_events=co_events,
        publisher_articles=publisher_articles,
        profile=query_profile,
    )

