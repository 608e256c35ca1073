"""Row-range chunking.

Queries execute over contiguous row ranges so every kernel touches
memory sequentially (the bandwidth-friendly access pattern the paper's
engine is built around).  ``row_chunks`` produces the ranges; the
executor decides who runs them.
"""

from __future__ import annotations

__all__ = ["row_chunks", "DEFAULT_MORSEL_ROWS"]

#: Default morsel size: large enough that NumPy kernel launch overhead is
#: negligible, small enough for dynamic load balancing (~8 MB of int64).
DEFAULT_MORSEL_ROWS = 1_000_000


def row_chunks(n_rows: int, chunk_rows: int = DEFAULT_MORSEL_ROWS) -> list[slice]:
    """Split ``[0, n_rows)`` into contiguous slices of ``chunk_rows``.

    The final slice may be shorter.  Returns an empty list for an empty
    table (so reducers must handle the zero-partial case).
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    if n_rows < 0:
        raise ValueError("n_rows must be non-negative")
    return [
        slice(start, min(start + chunk_rows, n_rows))
        for start in range(0, n_rows, chunk_rows)
    ]
