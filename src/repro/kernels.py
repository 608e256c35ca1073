"""Array kernels every layer shares.

A leaf module (NumPy only), so the generator, ingest, the engine and
the analyses all reach it without importing one another.

:func:`distinct` is the one spelling of "the sorted distinct values of
an array" in the package.  NumPy 2.x answers that question with a hash
table for integer and string keys; on this project's keys (event rows,
packed ``row * k + key`` pairs, interval and source ids) one sort plus
an adjacent-difference mask is ~40x faster — 411 k int64 keys take
~5 ms instead of 220-290 ms on a 2-core x86 host — and returns the
same array.

:func:`stable_order` is the one spelling of "the stable sorting
permutation of integer keys".  NumPy radix-sorts 8- and 16-bit keys but
merge-sorts wider ones; non-negative keys below 2**32 (intervals, event
ids, packed ``row * k + key`` pairs) sort as two stable 16-bit radix
passes instead, least significant half first — the same permutation,
~10 ms instead of ~45 ms for 415 k int64 keys on the same host.

:func:`cooccurrence` counts, for every pair of keys, the groups that
hold both — the ``IᵀI`` of a 0/1 incidence matrix — from its nonzeros
sorted by group, by shift-and-compare over the sorted group column
(PM4Py-GPU's way of counting relations over sorted columnar keys): no
sparse matrix and no per-group pair expansion is built.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cooccurrence", "distinct", "stable_order"]


def distinct(keys) -> np.ndarray:
    """Sorted distinct values of ``keys`` (flattened), NaNs collapsed
    into one trailing NaN: NumPy's ``unique`` answer from one sort."""
    aux = np.sort(np.asarray(keys), axis=None)
    keep = np.empty(len(aux), dtype=bool)
    keep[:1] = True
    np.not_equal(aux[1:], aux[:-1], out=keep[1:])
    if aux.dtype.kind in "fcmM":
        nan = np.isnan(aux)
        keep[1:] &= ~(nan[1:] & nan[:-1])
    return aux[keep]


def stable_order(keys) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, by 16-bit radix passes when
    ``keys`` are integers in ``[0, 2**32)``."""
    keys = np.asarray(keys)
    if (keys.dtype.kind not in "iu" or not len(keys) or keys.min() < 0
            or keys.max() >= 1 << 32):
        return np.argsort(keys, kind="stable")
    if keys.max() < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


def cooccurrence(groups, keys, k: int) -> np.ndarray:
    """(k, k) int64 co-occurrence counts of distinct ``(group, key)`` pairs.

    ``groups`` must be sorted (equal groups adjacent) and no pair may
    repeat.  ``[a, b]`` is the number of groups holding both ``a`` and
    ``b``; the diagonal is the number of groups holding each key.

    Shift ``d`` compares every still-live position ``p`` with ``p + d``:
    a position whose group ends before ``p + d`` never matches again, so
    the live set only shrinks, and there is one pass per member of the
    largest group.  Each unordered pair is seen once, in either
    orientation, so adding the transpose completes the matrix.  The
    matched pair codes wait until there are k² of them before one
    ``bincount``: a k²-sized count per shift would cost O(k²) per
    member of the largest group.  Memory is O(pairs + k²).
    """
    groups = np.asarray(groups)
    keys = np.asarray(keys, dtype=np.int64)
    n, kk = len(keys), k * k
    seen = np.zeros(kk, dtype=np.int64)
    pending: list[np.ndarray] = []
    n_pending = 0
    live = np.flatnonzero(groups[1:] == groups[:-1])
    d = 1
    while len(live):
        pending.append(keys[live] * k + keys[live + d])
        n_pending += len(live)
        if n_pending >= kk:
            seen += np.bincount(np.concatenate(pending), minlength=kk)
            pending, n_pending = [], 0
        d += 1
        live = live[live < n - d]
        live = live[groups[live + d] == groups[live]]
    if pending:
        seen += np.bincount(np.concatenate(pending), minlength=kk)
    half = seen.reshape(k, k)
    co = half + half.T
    co[np.diag_indices(k)] = np.bincount(keys, minlength=k)
    return co
