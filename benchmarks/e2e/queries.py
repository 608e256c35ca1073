"""Seeded query streams, as plain specs any surface can run.

A spec is ``(table, conjuncts, group_by, op, column)`` with conjuncts
``(column, operator, value)``; ``run_fluent`` runs it on anything with the
fluent ``.query()`` surface (a local ``GdeltStore`` or a ``RemoteStore``)
and ``wire_kwargs`` turns it into ``ServeClient.query`` arguments.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.engine import col

_OPS = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "==": operator.eq,
}


@dataclass(frozen=True)
class Spec:
    table: str
    where: tuple[tuple[str, str, object], ...] = ()
    group_by: str | None = None
    op: str = "count"
    column: str | None = None

    @property
    def kind(self) -> str:
        """Which slice of the mix this spec belongs to (for counters)."""
        if self.group_by is not None:
            return "grouped"
        if any(c[0] == "MentionInterval" for c in self.where):
            return "window"
        return "lowcard"


def _expr(conjunct):
    name, op, value = conjunct
    if op == "in":
        return col(name).isin(list(value))
    return _OPS[op](col(name), value)


def run_fluent(store, spec: Spec, prune: bool = True):
    """Run ``spec`` and return the ``QueryResult``."""
    q = store.query(spec.table)
    for conjunct in spec.where:
        q = q.filter(_expr(conjunct))
    if not prune:
        q = q.with_pruning(False)
    if spec.group_by is not None:
        q = q.group_by(spec.group_by)
    if spec.op == "count":
        return q.count()
    return getattr(q, spec.op)(spec.column)


def wire_kwargs(spec: Spec) -> dict:
    """``ServeClient.query`` keyword arguments for ``spec``."""
    where = [
        f"{name} in {','.join(str(v) for v in value)}" if op == "in"
        else f"{name} {op} {value}"
        for name, op, value in spec.where
    ]
    kw: dict = {"table": spec.table, "op": spec.op}
    if where:
        kw["where"] = where
    if spec.column is not None:
        kw["column"] = spec.column
    if spec.group_by is not None:
        kw["group_by"] = spec.group_by
    return kw


def window(rng, truth: dict, quarters: float) -> tuple[int, int]:
    """A capture-time window ``quarters`` long, anywhere in the corpus."""
    span = truth["interval_max"] - truth["interval_min"]
    width = max(1, int(span * quarters / 20.0))  # the corpus spans 20 quarters
    lo = truth["interval_min"] + int(rng.integers(0, max(1, span - width)))
    return lo, lo + width


def _subset(rng, n: int, k: int, base: int = 0) -> tuple[int, ...]:
    return tuple(sorted(int(v) + base for v in rng.choice(n, k, replace=False)))


#: adhoc_scan's mix as a repeating block of ten: 4 low-cardinality
#: filters, 3 time windows, 3 grouped aggregates.  The *composition* is
#: fixed — a window of the run always holds the same share of cheap and
#: expensive shapes — and only the parameters are drawn from the seed.
_ADHOC_BLOCK = "LWGLWGLWGL"
_WINDOW_SHAPES = [
    (quarters, op, column)
    for quarters in (0.125, 0.5, 1.0, 2.0, 4.0)
    for op, column in (("count", None), ("sum", "Delay"), ("mean", "Confidence"))
]
_GROUP_SHAPES = [
    (group, op)
    for group in ("Quarter", "SourceCountry", "Source")
    for op in ("stats", "mean", "sum")
]


def _lowcard(rng, variant: int, n_sources: int) -> Spec:
    if variant == 0:
        return Spec("events", (
            ("RootCode", "in", _subset(rng, 20, 3, base=1)),
            ("QuadClass", "==", int(rng.integers(1, 5))),
            ("NumMentions", ">=", int(rng.integers(1, 40))),
        ))
    if variant == 1:
        return Spec("events", (("CountryCode", "in", _subset(rng, 65, 5)),))
    if variant == 2:
        return Spec("mentions", (
            ("Confidence", ">=", int(rng.integers(10, 101))),
            ("Delay", ">", int(rng.integers(0, 4000))),
        ))
    return Spec("mentions", (
        ("Confidence", "==", int(rng.integers(1, 11)) * 10),
        ("SourceId", "<", int(rng.integers(1, n_sources))),
    ), op="mean", column="Delay")


def adhoc_stream(rng, truth: dict):
    """Endless stream of *unique* ad-hoc specs (result cache always misses).

    40% non-prunable low-cardinality filters, 30% ``MentionInterval``
    windows of 1/8 ... 4 quarters (prunable), 30% grouped aggregates of
    ``Delay``, every shape of each kind in turn.  Uniqueness is enforced,
    not assumed: a repeated draw is redrawn.
    """
    seen: set[Spec] = set()
    turn = {"L": 0, "W": 0, "G": 0}
    while True:
        for kind in _ADHOC_BLOCK:
            while True:
                k = turn[kind]
                if kind == "L":
                    spec = _lowcard(rng, k % 4, truth["n_sources"])
                elif kind == "W":
                    quarters, op, column = _WINDOW_SHAPES[k % len(_WINDOW_SHAPES)]
                    lo, hi = window(rng, truth, quarters)
                    spec = Spec("mentions", (
                        ("MentionInterval", ">=", lo), ("MentionInterval", "<", hi),
                    ), op=op, column=column)
                else:
                    group, op = _GROUP_SHAPES[k % len(_GROUP_SHAPES)]
                    spec = Spec("mentions", (
                        ("Delay", ">=", int(rng.integers(0, 2000))),
                        ("Confidence", ">=", int(rng.integers(10, 60))),
                    ), group_by=group, op=op, column="Delay")
                if spec not in seen:
                    break
            seen.add(spec)
            turn[kind] += 1
            yield spec


def wide_stream(rng, truth: dict):
    """Endless unique time-windowed specs with wide (per-``Source``) answers.

    Every third window lies inside one half of the capture-sorted table —
    where a two-way split prunes a whole shard — and the others straddle
    the middle; the three terminals take turns.
    """
    seen: set[Spec] = set()
    lo_all, hi_all, mid = (
        truth["interval_min"], truth["interval_max"], truth["interval_median"],
    )
    margin = max(1, (hi_all - lo_all) // 50)
    terminals = (("count", None), ("sum", "Delay"), ("mean", "Delay"))
    i = 0
    while True:
        if i % 3 == 0:  # inside one half, the halves alternating
            a, b = (lo_all, mid - margin) if i % 6 == 0 else (mid + margin, hi_all)
            lo = int(rng.integers(a, max(a + 1, b - margin)))
            hi = int(rng.integers(lo + 1, max(lo + 2, b)))
        else:  # straddles the middle
            lo = int(rng.integers(lo_all, mid - margin))
            hi = int(rng.integers(mid + margin, hi_all + 1))
        op, column = terminals[(i // 3) % 3]
        spec = Spec("mentions", (
            ("MentionInterval", ">=", lo), ("MentionInterval", "<", hi),
        ), group_by="Source", op=op, column=column)
        if spec not in seen:
            seen.add(spec)
            i += 1
            yield spec


def hot_pool(rng, size: int) -> list[Spec]:
    """A fixed pool of distinct small-result queries (scalar and per-quarter).

    The shape of every rank is fixed — the filter by ``rank % 3``, grouped
    on even ranks — so the hot head of the Zipf mix costs the same under
    every seed; only the thresholds are drawn.
    """
    pool: list[Spec] = []
    seen: set[Spec] = set()
    while len(pool) < size:
        rank = len(pool)
        where = (
            (("Delay", ">", int(rng.integers(1, 3000))),),
            (("Confidence", ">=", int(rng.integers(10, 100))),),
            (("Delay", ">", int(rng.integers(1, 500))),
             ("Confidence", ">=", int(rng.integers(10, 80)))),
        )[rank % 3]
        spec = Spec("mentions", where, group_by="Quarter" if rank % 2 == 0 else None)
        if spec not in seen:
            seen.add(spec)
            pool.append(spec)
    return pool


def zipf_draws(rng, n_items: int, s: float, n: int) -> list[int]:
    """``n`` ranks in ``[0, n_items)`` with P(rank r) ~ (r+1)^-s."""
    import numpy as np

    weights = 1.0 / np.arange(1, n_items + 1) ** s
    return rng.choice(n_items, size=n, p=weights / weights.sum()).tolist()
