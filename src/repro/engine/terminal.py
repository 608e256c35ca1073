"""The terminal algebra: how an aggregate is computed, merged, finalized
and encoded — the one op table behind every query surface.

A *terminal* is the aggregate that ends a query (``count``, ``sum``,
``mean``; grouped additionally ``stats`` and ``top``).  Every surface
runs the same four steps, and this is the only module that knows what
they are per op:

``chunk(keys, values, mask, n_rows) -> partial``
    the per-morsel kernel (``mask=None`` = every row passes);
``fold(parts) -> partial``
    combine partials in row order; ``fold([])`` is the zero partial and
    already carries the group width and the value column's dtype, so no
    caller patches empty-group sentinels afterwards;
``finalize(partial) -> value``
    the answer the fluent API returns;
``to_wire`` / ``from_wire`` / ``revive``
    the codec: a partial's ``partials=True`` wire shape (below), its
    decoding (JSON lists or the arrays themselves), and the decoding of
    a *finalized* wire value back to local types (null -> NaN, int vs
    float arrays).

The engine runner (:func:`~repro.engine.query.run_batch`, which runs
``store.query(...)`` terminals, served requests and view refreshes),
materialized views (which fold each refresh's delta into their one
retained partial), the shard merge and ``repro.connect()`` are all
callers.

=============  ====================================================
op             partial on the wire (one per shard / view)
=============  ====================================================
count          int
sum            float
mean           ``[n, sum]``
group count    int vector (sender-local group width)
group sum      float vector
group mean     ``{"count": vector, "sum": vector}``
group stats    ``{"keys": [...], "values": [...], "dtype": name}``
               — compacted passing pairs in row order; the dtype
               rides along because the empty-group min/max sentinels
               (iinfo extremes vs ±inf) depend on it
group top      ``{"keys": [...], "counts": [...]}`` — every nonzero
               group (sparse over-fetch, not the local top-k: a group
               outside one shard's top-k can still make the global one)
=============  ====================================================

Folding mirrors a single-store run exactly: vectors are padded to the
widest part (or the ``n_groups`` hint) and summed in part order, stats
pairs are concatenated and handed to
:func:`~repro.engine.aggregate.group_stats_dict` once, top counts are
densified, summed and cut by
:func:`~repro.engine.aggregate.topk_from_counts`.  Counts and
integer-column aggregates are bit-exact under any partition of the
rows; float-column sums may associate differently across part
boundaries (the usual last-ulp caveat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.aggregate import (
    group_count,
    group_stats_dict,
    group_sum,
    topk_from_counts,
)

__all__ = ["OPS", "GROUP_OPS", "Terminal", "TerminalSpec", "jsonable"]


def jsonable(value):
    """JSON-safe form of a query value: arrays -> lists, NaN -> null.

    A 1-D bool, int or float array is one ``tolist()`` (its NaNs then
    set to None): a grouped answer is thousands of elements.
    """
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind in "biuf":
            out = value.tolist()
            if value.dtype.kind == "f":
                for i in np.flatnonzero(np.isnan(value)).tolist():
                    out[i] = None
            return out
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and value != value:  # NaN -> null
        return None
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass(frozen=True, slots=True)
class TerminalSpec:
    """A terminal's description: ``(op, column, group, k)``.

    ``group`` is a group-key name (any alias); binding against a store
    replaces it with the canonical name.
    """

    op: str
    column: str | None = None
    group: str | None = None
    k: int | None = None

    @property
    def op_name(self) -> str:
        """Planner op name (``groupby_`` prefix for grouped terminals)."""
        return f"groupby_{self.op}" if self.group is not None else self.op

    def _shape(self) -> type["Terminal"]:
        table = _GROUPED if self.group is not None else _SCALAR
        shape = table.get(self.op)
        if shape is None:
            raise ValueError(
                f"unknown op {self.op!r} (expected one of {', '.join(table)})"
            )
        return shape

    def validate(self) -> None:
        """Structural validation (no store access).

        Raises:
            ValueError: unknown op, a missing/extra column, a missing/
                extra or non-positive ``k``.
        """
        shape = self._shape()
        if shape.needs_column and not self.column:
            raise ValueError(f"op {self.op!r} requires a column")
        if not shape.needs_column and self.column:
            raise ValueError(f"op {self.op!r} takes no column")
        if shape.needs_k:
            if self.k is None or int(self.k) < 1:
                raise ValueError(f"op {self.op!r} requires k >= 1")
        elif self.k is not None:
            raise ValueError(f"op {self.op!r} takes no k")

    def bind(self, n_groups: int | None = None, value_dtype=None) -> "Terminal":
        """The op's algebra for a group width and value-column dtype.

        Both may be ``None`` when unknown (a router merging foreign
        parts): the width then comes from the parts, and an empty
        ``stats`` fold is float64.
        """
        return self._shape()(self, n_groups, value_dtype)


class Terminal:
    """One op's algebra, bound to a group width and value dtype.

    Store-free: built from a description and two shape facts.  Partials
    are in NumPy form in process; the subclasses below are the op table.
    """

    needs_column = False
    needs_k = False

    def __init__(self, spec: TerminalSpec, n_groups, value_dtype) -> None:
        self.spec = spec
        self.n_groups = n_groups
        self.value_dtype = None if value_dtype is None else np.dtype(value_dtype)

    def signature(self, partial: bool = False) -> tuple:
        """Cache-key signature of this terminal.

        The single source of truth for the planner's result cache, the
        serving single-flight layer and view matching: whoever computes
        a terminal fills the entry every other surface probes.  A
        ``partial`` (un-finalized, wire-shaped) result has a different
        value shape, so it occupies a different entry.
        """
        s = self.spec
        if s.group is not None:
            sig: tuple = ("group", s.group, self.n_groups, s.op, s.column)
        elif s.column is not None:
            sig = (s.op, s.column)
        else:
            sig = ()
        if s.k is not None:
            sig += (int(s.k),)
        if partial:
            sig += ("partial",)
        return sig

    def kernel(self, keys, values, mask_of):
        """The chunk kernel closed over whole-table arrays.

        Returns ``kernel(sl, need_mask) -> partial`` for absolute row
        slices; ``need_mask=False`` means the planner proved every row
        of the slice passes, so ``mask_of`` is not evaluated.
        """
        chunk = self.chunk

        def kernel(sl: slice, need_mask: bool):
            return chunk(
                None if keys is None else keys[sl],
                None if values is None else values[sl],
                mask_of(sl) if need_mask else None,
                sl.stop - sl.start,
            )

        return kernel

    def merge(self, wire_parts) -> object:
        """Finalized value of wire-shaped partials in row order."""
        return self.finalize(self.fold([self.from_wire(p) for p in wire_parts]))

    # -- the algebra (identity codec / finalize unless overridden) ---------

    def chunk(self, keys, values, mask, n_rows):
        """Partial of one morsel (arrays already sliced; ``mask=None``
        means every one of its ``n_rows`` rows passes)."""
        raise NotImplementedError

    def fold(self, parts: list):
        """Combine partials in row order; ``fold([])`` is the zero partial."""
        raise NotImplementedError

    def finalize(self, partial):
        """The value the fluent terminal returns."""
        return partial

    def to_wire(self, partial):
        """The partial's ``partials=True`` wire shape (arrays not yet listified)."""
        return partial

    def from_wire(self, wire):
        """Decode a wire partial — JSON lists or the arrays themselves."""
        return wire

    def revive(self, value):
        """Decode a *finalized* wire value to the local terminal's types."""
        return self.from_wire(value)


class _Count(Terminal):
    def chunk(self, keys, values, mask, n_rows):
        return n_rows if mask is None else int(mask.sum())

    def fold(self, parts):
        return int(sum(parts))

    def from_wire(self, wire):
        return int(wire)


class _Sum(Terminal):
    needs_column = True

    def chunk(self, keys, values, mask, n_rows):
        return float((values if mask is None else values[mask]).sum())

    def fold(self, parts):
        return float(sum(parts))

    def from_wire(self, wire):
        return float(wire)


class _Mean(Terminal):
    """Fused ``(n, sum)``: one pass, not two."""

    needs_column = True

    def chunk(self, keys, values, mask, n_rows):
        if mask is None:
            return n_rows, float(values.sum())
        return int(mask.sum()), float(values[mask].sum())

    def fold(self, parts):
        return sum(p[0] for p in parts), sum(p[1] for p in parts)

    def finalize(self, partial):
        n, s = partial
        return s / n if n else float("nan")

    def to_wire(self, partial):
        return [int(partial[0]), float(partial[1])]

    def from_wire(self, wire):
        return int(wire[0]), 0.0 if wire[1] is None else float(wire[1])

    def revive(self, value):
        return float("nan") if value is None else float(value)


def _pad(vec: np.ndarray, width: int) -> np.ndarray:
    if len(vec) == width:
        return vec
    out = np.zeros(width, dtype=vec.dtype)
    out[: len(vec)] = vec
    return out


class _GroupVector(Terminal):
    """Dense per-group vectors; parts narrower than the fold are padded."""

    dtype = np.int64

    def _width(self, lengths) -> int:
        return max([self.n_groups or 0, *lengths])

    def fold(self, parts):
        width = self._width(map(len, parts))
        if not parts:
            return np.zeros(width, dtype=self.dtype)
        return np.sum([_pad(p, width) for p in parts], axis=0)

    def from_wire(self, wire):
        return np.asarray(wire, dtype=self.dtype)  # null -> NaN for floats


class _GroupCount(_GroupVector):
    def chunk(self, keys, values, mask, n_rows):
        return group_count(keys, self.n_groups, mask)


class _GroupSum(_GroupVector):
    needs_column = True
    dtype = np.float64

    def chunk(self, keys, values, mask, n_rows):
        return group_sum(keys, values, self.n_groups, mask)


class _GroupMean(_GroupVector):
    needs_column = True

    def chunk(self, keys, values, mask, n_rows):
        n = self.n_groups
        return group_count(keys, n, mask), group_sum(keys, values, n, mask)

    def fold(self, parts):
        width = self._width(len(c) for c, _ in parts)
        counts = np.zeros(width, dtype=np.int64)
        sums = np.zeros(width, dtype=np.float64)
        for c, s in parts:
            counts[: len(c)] += c
            sums[: len(s)] += s
        return counts, sums

    def finalize(self, partial):
        counts, sums = partial
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / counts, np.nan)

    def to_wire(self, partial):
        return {"count": partial[0], "sum": partial[1]}

    def from_wire(self, wire):
        return (
            np.asarray(wire["count"], dtype=np.int64),
            np.asarray(wire["sum"], dtype=np.float64),
        )

    def revive(self, value):
        return np.asarray(value, dtype=np.float64)


class _GroupStats(Terminal):
    """min/max/mean/median per group.

    Each chunk compacts its passing (key, value) pairs — pruned chunks
    contribute nothing — and the group kernels run once over the
    (typically far smaller) concatenated selection.
    """

    needs_column = True

    def chunk(self, keys, values, mask, n_rows):
        if mask is not None:
            keys, values = keys[mask], values[mask]
        return np.asarray(keys), np.asarray(values)

    def fold(self, parts):
        if not parts:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=self.value_dtype)
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
        )

    def finalize(self, partial):
        return group_stats_dict(partial[0], partial[1], self.n_groups or 0)

    def to_wire(self, partial):
        keys, values = partial
        return {"keys": keys, "values": values, "dtype": values.dtype.name}

    def from_wire(self, wire):
        return (
            np.asarray(wire["keys"], dtype=np.int64),
            np.asarray(wire["values"], dtype=wire["dtype"]),
        )

    def revive(self, value):
        # min/max of an integer column stay integers unless a float
        # column's empty groups put ±inf (or a null) among them.
        out = {}
        for name, vals in value.items():
            ints = name in ("min", "max") and all(isinstance(v, int) for v in vals)
            out[name] = np.asarray(vals, dtype=np.int64 if ints else np.float64)
        return out


class _GroupTop(_GroupCount):
    """Top-``k`` groups by row count (descending, key ties ascending;
    zero-count groups excluded)."""

    needs_k = True

    def finalize(self, partial):
        return topk_from_counts(partial, int(self.spec.k))

    def to_wire(self, partial):
        nz = np.flatnonzero(partial)
        return {"keys": nz.astype(np.int64), "counts": partial[nz]}

    def from_wire(self, wire):
        keys = np.asarray(wire["keys"], dtype=np.int64)
        counts = np.zeros(int(keys.max()) + 1 if len(keys) else 0, dtype=np.int64)
        counts[keys] = np.asarray(wire["counts"], dtype=np.int64)
        return counts

    def revive(self, value):
        return {
            "keys": np.asarray(value["keys"], dtype=np.int64),
            "counts": np.asarray(value["counts"], dtype=np.int64),
        }


_SCALAR: dict[str, type[Terminal]] = {"count": _Count, "sum": _Sum, "mean": _Mean}
_GROUPED: dict[str, type[Terminal]] = {
    "count": _GroupCount,
    "sum": _GroupSum,
    "mean": _GroupMean,
    "stats": _GroupStats,
    "top": _GroupTop,
}

#: Scalar terminal operations.
OPS = tuple(_SCALAR)
#: Grouped terminal operations (require a group key).
GROUP_OPS = tuple(_GROUPED)
