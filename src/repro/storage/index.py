"""Index construction helpers.

The "indexed" part of the binary format: precomputed sort permutations
and group-boundary arrays that let the engine run joins and time slices
with ``searchsorted`` instead of scans.

Standard indexes of a GDELT dataset (:func:`mention_join_index` computes
them; :func:`repro.storage.gdelt.write_gdelt_dataset` owns their file
names and is the only code that writes them):

* ``mentions_by_event`` — permutation of mention rows ordered by
  GlobalEventID (event → its mentions becomes a binary search);
* ``mentions_ev_lo`` / ``mentions_ev_hi`` — per-event ``[start, end)``
  into that permutation, aligned with the *events* table row order;
* ``events_by_interval`` / ``mentions_by_interval`` — nothing to store:
  both tables are written pre-sorted by time, so time slices are
  ``searchsorted`` on the interval columns directly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sort_permutation",
    "run_boundaries",
    "aligned_group_bounds",
    "mention_join_index",
]


def sort_permutation(keys: np.ndarray) -> np.ndarray:
    """Stable sort permutation of ``keys`` (int32 when it fits)."""
    perm = np.argsort(keys, kind="stable")
    if len(perm) <= np.iinfo(np.int32).max:
        return perm.astype(np.int32)
    return perm


def run_boundaries(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of equal-key runs in a sorted array, plus the end.

    ``boundaries[i] .. boundaries[i+1]`` is the i-th run.  Length is
    ``n_runs + 1``.
    """
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]]))
    return np.concatenate([starts, [n]]).astype(np.int64)


def aligned_group_bounds(
    group_keys: np.ndarray, sorted_keys: np.ndarray
) -> np.ndarray:
    """[start, end) offsets into a sorted key array for each group key.

    ``group_keys`` is the lookup order (e.g. the events table's
    GlobalEventID column); the result has shape ``(len(group_keys) + 1,)``
    when group keys are exactly the distinct sorted keys in order, but is
    computed generally with two binary searches so missing keys yield
    empty ranges.

    Returns:
        int64 array of shape (len(group_keys), 2).
    """
    lo = np.searchsorted(sorted_keys, group_keys, side="left")
    hi = np.searchsorted(sorted_keys, group_keys, side="right")
    return np.stack([lo, hi], axis=1).astype(np.int64)


def mention_join_index(
    event_ids: np.ndarray, mention_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The event→mentions join index ``(perm, ev_lo, ev_hi)``.

    ``perm`` orders mention rows by GlobalEventID; the mentions of
    events-table row ``r`` are ``perm[ev_lo[r]:ev_hi[r]]`` (an empty
    range for an event nobody mentioned).  Built from the two key
    columns alone, so it can always be recomputed from the tables.
    """
    perm = sort_permutation(mention_ids)
    bounds = aligned_group_bounds(event_ids, np.asarray(mention_ids)[perm])
    return perm, bounds[:, 0].copy(), bounds[:, 1].copy()
