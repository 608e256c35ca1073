"""Shared-scan batching: one pass over the data serving N pending queries.

Every admitted request compiles to an :class:`ExecutableOp` — the
request's terminal (:mod:`repro.engine.terminal`) bound to the store,
the same kernel and fold a :class:`~repro.engine.query.Query` terminal
runs, so a value computed here is interchangeable with one computed by
``store.query(...)`` and both share the planner's result cache.

Compatible requests against the same table are then *fused*: the
planner builds each request's pruned plan, :func:`~repro.engine.planner
.fuse_plans` unions the surviving row ranges, and one executor
dispatch walks the union — each morsel's columns are read once, while
hot, for every member request that covers it.  Requests whose zone
maps pruned a region contribute no work there, so fusion never scans
more than the sum of its parts; it just stops scanning it N times.

Float caveat: fused morsel boundaries are the union of the members'
boundaries, so float-column sums may associate differently than a solo
run (same class of last-ulp variation as changing the worker count).
Counts and integer-column aggregates are exact and identical either
way — which is what the serving acceptance tests pin byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.executor import CancelToken, Executor, QueryCancelled
from repro.engine.planner import Plan, fuse_plans, plan_query, request_key
from repro.engine.query import bind_terminal
from repro.engine.store import GdeltStore
from repro.serve.request import QueryRequest

__all__ = ["ExecutableOp", "BatchItem", "compile_request", "execute_batch"]


class ExecutableOp:
    """One request bound to a store: terminal + kernel + identity.

    ``partial(sl, need_mask)`` computes the chunk partial for an
    absolute row slice; ``need_mask=False`` means the planner proved
    every row in the slice passes the filter, so mask evaluation is
    skipped (identical to the Query terminals' mask-free fast path).
    ``reduce(parts)`` folds the partials and finalizes — or, for a
    ``partials`` request, returns the mergeable wire form instead.
    """

    __slots__ = (
        "store", "req", "rows", "op_name", "sig", "key", "_terminal", "_kernel",
    )

    def __init__(self, store: GdeltStore, req: QueryRequest) -> None:
        self.store = store
        self.req = req
        if req.time_range is not None:
            self.rows = store.interval_rows(*req.time_range)
        else:
            self.rows = slice(0, store.n_rows(req.table))
        spec = req.terminal()
        self._terminal, self._kernel = bind_terminal(
            store, req.table, spec, req.where
        )
        self.op_name = spec.op_name
        self.sig = self._terminal.signature(partial=req.partials)
        self.key = request_key(
            store, req.table, req.where, self.rows, self.op_name, self.sig
        )

    def plan(self, executor: Executor) -> Plan:
        """This request's pruned scan plan (planner cache key included)."""
        return plan_query(
            self.store, self.req.table, self.req.where, self.rows,
            self.op_name, executor, self.sig,
        )

    def partial(self, sl: slice, need_mask: bool):
        return self._kernel(sl, need_mask and self.req.where is not None)

    def reduce(self, parts: list):
        terminal = self._terminal
        folded = terminal.fold(parts)
        if self.req.partials:
            return terminal.to_wire(folded)
        return terminal.finalize(folded)


def compile_request(store: GdeltStore, req: QueryRequest) -> ExecutableOp:
    """Compile one validated request into its executable form.

    Raises:
        KeyError / ValueError: unknown column or group key — surfaced
        to the client as an ``error`` response, never a crash.
    """
    req.validate()
    return ExecutableOp(store, req)


@dataclass(slots=True)
class BatchItem:
    """One unique (post-single-flight) request inside a fused batch."""

    op: ExecutableOp
    plan: Plan | None = None
    value: object = None
    error: Exception | None = None
    #: Filled by the worker: rows this item's plan selected.
    rows_planned: int = 0
    extra: dict = field(default_factory=dict)


def execute_batch(
    items: list[BatchItem],
    executor: Executor,
    cancel: CancelToken | None = None,
) -> None:
    """Plan, fuse, and execute a batch of unique requests in one pass.

    Fills each item's ``value`` (or ``error``).  Items whose planning
    fails are excluded from the fused scan; the survivors still run.

    ``cancel`` is checked before every fused morsel: when it fires
    (deadline passed or explicit cancel), the scan stops and every live
    item's error becomes :class:`~repro.engine.executor.QueryCancelled`
    — the service maps that to a deadline shed, and the worker thread
    is back in service without finishing the walk.
    """
    live: list[BatchItem] = []
    for item in items:
        try:
            item.plan = item.op.plan(executor)
            item.rows_planned = item.plan.rows_planned
            live.append(item)
        except Exception as exc:  # bad column resolved late, etc.
            item.error = exc
    if not live:
        return

    fused = fuse_plans([it.plan for it in live], getattr(executor, "n_workers", 1))
    members_by_range = {
        (u.rows.start, u.rows.stop): u.members for u in fused
    }

    def kernel(sl: slice):
        members = members_by_range[(sl.start, sl.stop)]
        return [
            (idx, live[idx].op.partial(sl, need)) for idx, need in members
        ]

    try:
        part_lists = executor.map_slices(
            kernel, [u.rows for u in fused], cancel=cancel
        )
    except QueryCancelled as exc:
        for item in live:
            item.error = exc
        return
    except Exception as exc:  # injected aborts, kernel failures
        for item in live:
            item.error = exc
        return

    per_item: list[list] = [[] for _ in live]
    for plist in part_lists:
        for idx, part in plist:
            per_item[idx].append(part)
    for item, parts in zip(live, per_item):
        try:
            item.value = item.op.reduce(parts)
        except Exception as exc:
            item.error = exc
