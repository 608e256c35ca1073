"""Grouped aggregation kernels.

These are the engine's equivalent of the paper's hand-written C++
reduction loops: single-pass NumPy kernels that aggregate a value column
by an integer group key.  All kernels accept an optional boolean mask
(the filter result) and negative keys mean "ungrouped" (dropped), so
derived columns can use -1 for unattributable rows.

Dtype contract: keys may be any integer dtype that casts safely to
``intp`` (int8..int64, uint8..uint32) and are read at their stored
width — callers never widen a key column, and a result's bytes and
dtype do not depend on the key dtype.  Values are read at their stored
width too; only :func:`group_min` / :func:`group_max` return the
values' dtype, so a caller widens values only to choose that output
dtype.  When no row is dropped, no compacted copy of keys or values is
made.

The two-key kernel :func:`group_count_2d` is the workhorse behind every
matrix the paper reports: co-reporting, follow-reporting, and country
cross-reporting all reduce to counting (i, j) pairs.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import state as _obs

__all__ = [
    "group_count",
    "group_sum",
    "group_min",
    "group_max",
    "group_mean",
    "group_median",
    "group_stats_dict",
    "topk_from_counts",
    "group_count_2d",
]


def _kept(
    keys: np.ndarray, mask: np.ndarray | None, *more_keys: np.ndarray
) -> np.ndarray | None:
    """Rows that aggregate (every key >= 0 and mask set), or None for all."""
    keep = keys >= 0
    for other in more_keys:
        keep &= other >= 0
    if mask is not None:
        keep = keep & mask
    return None if keep.all() else keep


def _compact(keep: np.ndarray | None, *arrays: np.ndarray) -> list[np.ndarray]:
    return [np.asarray(a) if keep is None else np.asarray(a)[keep] for a in arrays]


def group_count(
    keys: np.ndarray, n_groups: int, mask: np.ndarray | None = None
) -> np.ndarray:
    """Row count per group (int64, length ``n_groups``)."""
    (k,) = _compact(_kept(keys, mask), keys)
    if _obs._enabled:
        _metrics.counter("aggregate_rows_total", kernel="group_count").inc(len(keys))
    return np.bincount(k, minlength=n_groups).astype(np.int64)


def group_sum(
    keys: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Sum of ``values`` per group (float64).

    The cast on the way out is load-bearing: ``np.bincount`` ignores
    the weights dtype when the input is empty and returns integer
    zeros, which would make an empty selection answer with different
    bytes than a nonempty one.
    """
    k, v = _compact(_kept(keys, mask), keys, values)
    return np.bincount(k, weights=v, minlength=n_groups).astype(
        np.float64, copy=False
    )


def _sentinel(values: np.ndarray, largest: bool):
    dt = np.asarray(values).dtype
    if np.issubdtype(dt, np.integer):
        info = np.iinfo(dt)
        return info.max if largest else info.min
    return np.inf if largest else -np.inf


def _group_extreme(ufunc, keys, values, n_groups, mask, empty, largest):
    k, v = _compact(_kept(keys, mask), keys, values)
    if empty is None:
        empty = _sentinel(v, largest)
    out = np.full(n_groups, empty, dtype=v.dtype)
    ufunc.at(out, k, v)
    return out


def group_min(
    keys: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    mask: np.ndarray | None = None,
    empty=None,
) -> np.ndarray:
    """Minimum of ``values`` per group, in the values' dtype; ``empty``
    (default: the dtype's max) for groups with no rows."""
    return _group_extreme(np.minimum, keys, values, n_groups, mask, empty, True)


def group_max(
    keys: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    mask: np.ndarray | None = None,
    empty=None,
) -> np.ndarray:
    """Maximum of ``values`` per group, in the values' dtype; ``empty``
    (default: the dtype's min) for groups with no rows."""
    return _group_extreme(np.maximum, keys, values, n_groups, mask, empty, False)


def group_mean(
    keys: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Mean of ``values`` per group (NaN for empty groups)."""
    counts = group_count(keys, n_groups, mask)
    sums = group_sum(keys, values, n_groups, mask)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / counts, np.nan)


def group_median(
    keys: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Median of ``values`` per group (NaN for empty groups).

    One global sort by (key, value) at stored width, then per-group
    midpoint selection — O(n log n) total rather than per-group sorting.
    Only the two middle values of each group become float64.
    """
    k, v = _compact(_kept(keys, mask), keys, values)
    order = np.lexsort((v, k))
    k = k[order]
    v = v[order]
    out = np.full(n_groups, np.nan)
    if len(k) == 0:
        return out
    starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    ends = np.concatenate([starts[1:], [len(k)]])
    counts = ends - starts
    lower = v[starts + (counts - 1) // 2].astype(np.float64)
    upper = v[starts + counts // 2].astype(np.float64)
    out[k[starts]] = (lower + upper) / 2.0
    return out


def group_stats_dict(
    keys: np.ndarray, values: np.ndarray, n_groups: int
) -> dict[str, np.ndarray]:
    """The ``stats`` terminal's reduce: min/max/mean/median per group.

    The single source of truth shared by the engine runner (local
    ``Query`` terminals and served requests alike) and the shard
    router's partial merge — both compact passing (key, value) pairs
    first and then run this once, so a value computed by either is
    byte-identical to the other.
    """
    return {
        "min": group_min(keys, values, n_groups),
        "max": group_max(keys, values, n_groups),
        "mean": group_mean(keys, values, n_groups),
        "median": group_median(keys, values, n_groups),
    }


def topk_from_counts(counts: np.ndarray, k: int) -> dict[str, np.ndarray]:
    """Top-``k`` groups of a dense per-group vector.

    Deterministic selection: descending count, ascending key on ties,
    zero-count groups excluded (``k`` shrinks to the nonzero tail).
    Shared by the local ``top`` terminal and the shard router's merge,
    so a scatter-gathered top-k matches a single-store run exactly.
    """
    counts = np.asarray(counts)
    order = np.lexsort((np.arange(len(counts)), -counts))[: max(0, int(k))]
    order = order[counts[order] > 0]
    return {"keys": order.astype(np.int64), "counts": counts[order]}


def _flat_pairs(
    keys_i: np.ndarray, keys_j: np.ndarray, nj: int, keep: np.ndarray | None
) -> np.ndarray:
    """Row-major cell index ``i * nj + j`` of each kept (i, j) pair (int64)."""
    ki, kj = _compact(keep, keys_i, keys_j)
    flat = ki.astype(np.int64)
    flat *= nj
    flat += kj
    return flat


def group_count_2d(
    keys_i: np.ndarray,
    keys_j: np.ndarray,
    shape: tuple[int, int],
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Pair count matrix: out[i, j] = #rows with (keys_i, keys_j) == (i, j).

    Rows where either key is negative are dropped.  This is the dense
    accumulation strategy the paper argues for (a 21k x 21k co-reporting
    matrix is only ~1.8 GB, and the update stream is huge).
    """
    ni, nj = shape
    if _obs._enabled:
        _metrics.counter("aggregate_rows_total", kernel="group_count_2d").inc(
            len(keys_i)
        )
    flat = _flat_pairs(keys_i, keys_j, nj, _kept(keys_i, mask, keys_j))
    return np.bincount(flat, minlength=ni * nj).reshape(ni, nj).astype(np.int64)

