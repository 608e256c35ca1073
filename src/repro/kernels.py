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
"""

from __future__ import annotations

import numpy as np

__all__ = ["distinct"]


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
