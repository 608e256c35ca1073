"""Exact merges of per-shard partial aggregates.

Each backend answers a ``partials=True`` query with the *mergeable*
wire form of its terminal; the shapes, and the fold that makes merging
them equal to a single-store run, are documented in
:mod:`repro.engine.terminal`, which these two functions call.
"""

from __future__ import annotations

from repro.engine.terminal import TerminalSpec

__all__ = ["merge_parts", "zero_value"]


def merge_parts(
    op: str,
    group_by: str | None,
    k: int | None,
    parts: list,
    n_groups: int | None = None,
):
    """Merge shard partials into the finalized terminal value.

    ``parts`` are the partial values in shard order (= global row
    order), JSON-decoded or still arrays; ``n_groups`` is the *global*
    group width hint (shard-local vectors are padded up to it; it is
    further widened by any longer part).  An empty ``parts`` list
    yields the op's zero value — what a router answers when pruning
    skipped every shard.
    """
    return TerminalSpec(op, group=group_by, k=k).bind(n_groups).merge(parts)


def zero_value(
    op: str,
    group_by: str | None,
    k: int | None,
    n_groups: int | None,
    dtype: str | None = None,
):
    """The value of a query no shard can contain (all pruned/empty).

    ``dtype`` is the value column's numpy dtype name: grouped
    ``stats``' empty-group min/max sentinels are iinfo extremes for
    integer columns but ±inf for floats, so a caller that knows it must
    pass it to get the same bytes a shard that scanned-and-matched-
    nothing would have produced.
    """
    return TerminalSpec(op, group=group_by, k=k).bind(n_groups, dtype).merge([])
