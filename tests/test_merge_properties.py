"""Property-style randomized tests for the exact-merge kernels.

A terminal's :meth:`~repro.engine.terminal.Terminal.merge` is the
single fold shared by the scatter-gather router and the materialized-
view catalog, so its algebra has to hold for *any* partition of the
rows into parts:

* merging the parts of any consecutive partition equals aggregating
  the whole array at once (counts and int-column aggregates exactly);
* empty parts (a pruned shard/chunk) are identities;
* a partition into single-group or single-row parts degenerates
  correctly;
* the merge of nothing (a router's all-pruned answer) equals the merge
  of all-pruned partials, for every op shape.

Each test draws several random partitions per run; shapes mirror the
partial table documented in ``repro/engine/terminal.py``.

:class:`TestFullAlgebra` runs every op shape through the whole terminal
algebra — ``chunk`` per random row part, ``fold`` per random bunch of
parts (a "shard"), ``to_wire`` → JSON → ``from_wire``, ``fold`` again,
``finalize`` — and holds the result to the single-pass answer and to
the independent row-at-a-time reference (:mod:`repro.qa.reference`).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine.aggregate import group_stats_dict, topk_from_counts
from repro.engine.terminal import TerminalSpec, jsonable
from repro.qa.oracle import canon
from repro.qa.reference import reference_value

N_TRIALS = 5


def merge(op, group_by, k, parts, width=None, dtype=None):
    """Fold shard partials into the finalized value, as the router does."""
    return TerminalSpec(op, group=group_by, k=k).bind(width, dtype).merge(parts)


def random_cuts(rng, n: int, max_parts: int = 9) -> list[tuple[int, int]]:
    """A random consecutive partition of ``[0, n)`` (possibly with
    empty parts — cut points may repeat)."""
    k = int(rng.integers(1, max_parts + 1))
    points = np.sort(rng.integers(0, n + 1, size=k - 1))
    bounds = [0, *points.tolist(), n]
    return list(zip(bounds[:-1], bounds[1:]))


def group_parts(op, keys, values, cuts, width):
    """Per-part partials in the documented shard shapes.

    A part only knows its *local* group width (groups it actually saw),
    like a shard that never met the tail groups — the merge must pad.
    """
    parts = []
    for lo, hi in cuts:
        k, v = keys[lo:hi], values[lo:hi]
        local = int(k.max()) + 1 if len(k) else 0
        if op == "count":
            parts.append(np.bincount(k, minlength=local).astype(np.int64))
        elif op == "sum":
            parts.append(np.bincount(k, weights=v, minlength=local))
        elif op == "mean":
            parts.append({
                "count": np.bincount(k, minlength=local).astype(np.int64),
                "sum": np.bincount(k, weights=v, minlength=local),
            })
        elif op == "stats":
            parts.append({
                "keys": k.astype(np.int64),
                "values": v,
                "dtype": v.dtype.name,
            })
        elif op == "top":
            counts = np.bincount(k, minlength=local)
            nz = np.nonzero(counts)[0]
            parts.append({"keys": nz, "counts": counts[nz]})
    return parts


def assert_same(got, want):
    if isinstance(want, dict):
        assert set(got) == set(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, np.ndarray):
        got = np.asarray(got)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want or (got != got and want != want)


class TestScalarMerges:
    def test_count_any_partition(self, rng):
        for _ in range(N_TRIALS):
            n = int(rng.integers(0, 500))
            cuts = random_cuts(rng, n)
            parts = [hi - lo for lo, hi in cuts]
            assert merge("count", None, None, parts) == n

    def test_sum_mean_int_columns_exact(self, rng):
        for _ in range(N_TRIALS):
            values = rng.integers(-1000, 1000, size=int(rng.integers(1, 400)))
            cuts = random_cuts(rng, len(values))
            sums = [float(values[lo:hi].sum()) for lo, hi in cuts]
            assert merge("sum", None, None, sums) == float(values.sum())
            means = [
                [hi - lo, float(values[lo:hi].sum())] for lo, hi in cuts
            ]
            got = merge("mean", None, None, means)
            assert got == float(values.sum()) / len(values)

    def test_mean_of_nothing_is_nan(self):
        assert np.isnan(merge("mean", None, None, [[0, 0.0], [0, None]]))


class TestGroupedMerges:
    @pytest.mark.parametrize("op", ["count", "sum", "mean", "stats", "top"])
    def test_any_partition_matches_whole(self, rng, op):
        for _ in range(N_TRIALS):
            width = int(rng.integers(2, 12))
            n = int(rng.integers(1, 400))
            keys = rng.integers(0, width, size=n).astype(np.int64)
            values = rng.integers(-50, 50, size=n).astype(np.int64)
            cuts = random_cuts(rng, n)
            k = 3 if op == "top" else None
            parts = group_parts(op, keys, values, cuts, width)
            got = merge(op, "g", k, parts, width)
            if op == "count":
                want = np.bincount(keys, minlength=width).astype(np.int64)
            elif op == "sum":
                want = np.bincount(keys, weights=values, minlength=width)
            elif op == "mean":
                counts = np.bincount(keys, minlength=width)
                sums = np.bincount(keys, weights=values, minlength=width)
                with np.errstate(invalid="ignore", divide="ignore"):
                    want = np.where(counts > 0, sums / counts, np.nan)
            elif op == "stats":
                want = group_stats_dict(keys, values, width)
            else:
                want = topk_from_counts(
                    np.bincount(keys, minlength=width), k
                )
            assert_same(got, want)

    def test_single_group_partition(self, rng):
        """Every row in group 0: local widths are 1, global width wider."""
        n, width = 64, 9
        keys = np.zeros(n, dtype=np.int64)
        values = rng.integers(0, 10, size=n).astype(np.int64)
        cuts = random_cuts(rng, n)
        got = merge(
            "count", "g", None, group_parts("count", keys, values, cuts, width),
            width,
        )
        want = np.zeros(width, dtype=np.int64)
        want[0] = n
        assert_same(got, want)

    def test_single_row_parts(self, rng):
        """The finest partition — one row per part — still merges exactly."""
        width = 5
        keys = rng.integers(0, width, size=40).astype(np.int64)
        values = rng.integers(0, 100, size=40).astype(np.int64)
        cuts = [(i, i + 1) for i in range(len(keys))]
        got = merge(
            "sum", "g", None, group_parts("sum", keys, values, cuts, width),
            width,
        )
        assert_same(got, np.bincount(keys, weights=values, minlength=width))


class TestZeroValueIdentity:
    SHAPES = [
        ("count", None, None),
        ("sum", None, None),
        ("mean", None, None),
        ("count", "g", None),
        ("sum", "g", None),
        ("mean", "g", None),
        ("stats", "g", None),
        ("top", "g", 3),
    ]

    def zero_part(self, op, group_by):
        """The partial an all-pruned shard reports, per documented shape."""
        if group_by is None:
            return {"count": 0, "sum": 0.0, "mean": [0, 0.0]}[op]
        if op in ("count", "sum"):
            return []
        if op == "mean":
            return {"count": [], "sum": []}
        if op == "stats":
            return {"keys": [], "values": [], "dtype": "int64"}
        return {"keys": [], "counts": []}

    @pytest.mark.parametrize("op,group_by,k", SHAPES)
    def test_zero_value_is_merge_of_nothing(self, op, group_by, k):
        """Pruning every shard answers what every shard scanning nothing
        answers."""
        width = 4 if group_by is not None else None
        assert_same(
            merge(op, group_by, k, [], width, "int64"),
            merge(op, group_by, k, [self.zero_part(op, group_by)], width, "int64"),
        )

    @pytest.mark.parametrize("op,group_by,k", SHAPES)
    def test_zero_parts_are_identities(self, rng, op, group_by, k):
        """Interleaving all-pruned partials never changes the merge."""
        width = 6 if group_by is not None else None
        n = 120
        keys = rng.integers(0, width or 1, size=n).astype(np.int64)
        values = rng.integers(0, 30, size=n).astype(np.int64)
        cuts = random_cuts(rng, n)
        if group_by is None:
            parts = {
                "count": [hi - lo for lo, hi in cuts],
                "sum": [float(values[lo:hi].sum()) for lo, hi in cuts],
                "mean": [[hi - lo, float(values[lo:hi].sum())]
                         for lo, hi in cuts],
            }[op]
        else:
            parts = group_parts(op, keys, values, cuts, width)
        want = merge(op, group_by, k, parts, width)
        zero = self.zero_part(op, group_by)
        padded = []
        for p in parts:
            padded.extend([zero, p])
        padded.append(zero)
        assert_same(merge(op, group_by, k, padded, width), want)


class _ArrayStore:
    """What :func:`repro.qa.reference.reference_value` needs of a store."""

    def __init__(self, keys, values, passing, width):
        self._table = {"v": values, "passing": passing.astype(np.int8)}
        self._keys, self._width = keys, width

    def table(self, name):
        return self._table

    def group_key(self, table, name):
        return name, self._keys, self._width


class TestFullAlgebra:
    """chunk → fold → wire → fold → finalize, under any partition."""

    SHAPES = TestZeroValueIdentity.SHAPES
    WHERE = {"kind": "cmp", "column": "passing", "op": "==", "value": 1}

    def check(self, rng, op, group_by, k, dtype, n, selection):
        width = int(rng.integers(1, 9))
        # -1 keys are "ungrouped" rows every grouped kernel must drop.
        keys = rng.integers(-1, width, size=n).astype(np.int64)
        # Integer-valued even for float32, so sums are exact in any order.
        values = rng.integers(-50, 50, size=n).astype(dtype)
        passing = {
            "all": np.ones(n, dtype=bool),
            "none": np.zeros(n, dtype=bool),
            "some": rng.random(n) < 0.5,
        }[selection]
        spec = TerminalSpec(op, "v" if op in ("sum", "mean", "stats") else None,
                            group_by, k)
        spec.validate()
        term = spec.bind(width if group_by is not None else None, dtype)

        def chunk(lo, hi):
            return term.chunk(
                keys[lo:hi] if group_by is not None else None,
                values[lo:hi],
                None if selection == "all" else passing[lo:hi],
                hi - lo,
            )

        single = term.finalize(term.fold([chunk(0, n)]))

        parts = [chunk(lo, hi) for lo, hi in random_cuts(rng, n)]
        bunches = [parts[lo:hi] for lo, hi in random_cuts(rng, len(parts), 4)]
        arrays = [term.to_wire(term.fold(b)) for b in bunches]
        decoded = [json.loads(json.dumps(jsonable(w))) for w in arrays]
        assert_same(term.merge(arrays), single)
        assert_same(term.merge(decoded), single)
        # A pruned shard's zero partial anywhere in the list is an identity.
        assert_same(term.merge([term.to_wire(term.fold([])), *decoded]), single)

        case = {"table": "t", "op": op, "column": spec.column,
                "group_by": group_by, "k": k, "where": self.WHERE}
        want = reference_value(_ArrayStore(keys, values, passing, width), case)
        assert canon(single) == canon(want)
        return term, single

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32])
    @pytest.mark.parametrize("op,group_by,k", SHAPES)
    def test_any_partition_any_dtype(self, rng, op, group_by, k, dtype):
        for _ in range(N_TRIALS):
            for selection in ("all", "some", "none"):
                n = int(rng.integers(1, 300))
                self.check(rng, op, group_by, k, dtype, n, selection)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32])
    @pytest.mark.parametrize("op,group_by,k", SHAPES)
    def test_fold_of_nothing_is_the_empty_table(self, rng, op, group_by, k, dtype):
        """``parts=[]`` answers exactly what scanning zero rows answers —
        group width and sentinel dtype included, no caller patching."""
        term, scanned = self.check(rng, op, group_by, k, dtype, 0, "all")
        assert_same(term.merge([]), scanned)
        if op == "stats":
            assert scanned["min"].dtype == np.dtype(dtype)
            assert len(scanned["min"]) == term.n_groups
