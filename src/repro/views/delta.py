"""Delta evaluation: per-chunk mergeable partials over a row window.

The incremental-maintenance kernel.  Given a view definition and a row
window ``[row_lo, row_hi)`` (typically "everything published since the
last refresh"), :func:`compute_segments` produces one mergeable partial
per zone-map chunk the window touches, in the terminal's wire shape
(:mod:`repro.engine.terminal`) — the shapes a ``partials=True`` server
emits and every fold merges exactly.

The pass is planned: :func:`~repro.engine.planner.plan_query` runs the
zone-map pruning over just the window, so chunks the filter provably
cannot match contribute an (explicit, tiny) zero partial without being
scanned, and provably all-matching chunks skip mask evaluation — a
delta refresh costs what a planner-pruned scan of *only the new rows*
costs, never a rescan of the dataset.

Segments are aligned to zone-map chunk boundaries (clipped at the
window edges), tile the window with no gaps, and are produced in row
order — the invariants :mod:`repro.views.catalog` relies on for exact
merging and for subtracting retracted chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.executor import SerialExecutor
from repro.engine.planner import plan_query
from repro.engine.query import bind_terminal
from repro.engine.terminal import jsonable

__all__ = ["Segment", "compute_segments", "segment_parts"]


@dataclass(slots=True)
class Segment:
    """One retained per-chunk partial: absolute row range + partial value.

    ``part`` is the mergeable partial in wire shape (JSON-able after
    :func:`repro.engine.terminal.jsonable`; freshly computed segments
    hold numpy arrays, which :meth:`Terminal.from_wire
    <repro.engine.terminal.Terminal.from_wire>` takes without copying).
    """

    row_lo: int
    row_hi: int
    part: object

    def to_dict(self) -> dict:
        return {"rows": [int(self.row_lo), int(self.row_hi)],
                "part": jsonable(self.part)}

    @classmethod
    def from_dict(cls, raw: dict) -> "Segment":
        lo, hi = raw["rows"]
        return cls(row_lo=int(lo), row_hi=int(hi), part=raw["part"])


def segment_parts(segments: list[Segment]) -> list:
    """The partials of ``segments`` in row order (merge input)."""
    return [s.part for s in sorted(segments, key=lambda s: s.row_lo)]


def compute_segments(
    store,
    definition,
    row_lo: int,
    row_hi: int,
    executor=None,
) -> list[Segment]:
    """Compute one partial per zone-map chunk of ``[row_lo, row_hi)``.

    Returns segments in row order, tiling the window exactly.  An empty
    window returns ``[]``.

    Raises:
        KeyError / ValueError: unknown column or group key for this
            store — surfaced at registration/refresh, never mid-serve.
    """
    row_lo, row_hi = int(row_lo), int(row_hi)
    if row_hi <= row_lo:
        return []
    where = definition.parsed_where()
    terminal, kernel = bind_terminal(store, definition.table, definition.spec, where)
    executor = executor if executor is not None else SerialExecutor()
    plan = plan_query(
        store, definition.table, where, slice(row_lo, row_hi),
        definition.spec.op_name, executor, sig=None, prune=True,
    )

    zm = store.zone_maps(definition.table)
    chunk_rows = int(zm.chunk_rows) if zm.n_chunks else max(row_hi - row_lo, 1)

    # Bucket the plan's surviving units by the chunk they fall in,
    # splitting any unit that crosses a chunk boundary (the unit's
    # need_mask applies uniformly to both halves).
    def chunk_of(row: int) -> int:
        return row // chunk_rows

    parts_by_chunk: dict[int, list] = {}
    for unit in plan.units:
        lo = unit.rows.start
        while lo < unit.rows.stop:
            hi = min(unit.rows.stop, (chunk_of(lo) + 1) * chunk_rows)
            part = kernel(slice(lo, hi), unit.need_mask)
            parts_by_chunk.setdefault(chunk_of(lo), []).append(part)
            lo = hi

    segments: list[Segment] = []
    first, last = chunk_of(row_lo), chunk_of(row_hi - 1)
    for chunk in range(first, last + 1):
        lo = max(row_lo, chunk * chunk_rows)
        hi = min(row_hi, (chunk + 1) * chunk_rows)
        # A pruned chunk has no unit partials and folds to the op's
        # zero partial, keeping the window tiled so retraction
        # bookkeeping stays trivial.
        part = terminal.to_wire(terminal.fold(parts_by_chunk.get(chunk, [])))
        segments.append(Segment(row_lo=lo, row_hi=hi, part=part))
    return segments
