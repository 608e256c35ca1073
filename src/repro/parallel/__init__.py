"""Shared-memory parallel runtime.

The OpenMP stand-in: row-range chunking ("morsels"), a persistent thread
team with static or dynamic scheduling, shared-memory array helpers for
process-based execution, and a STREAM-style memory-bandwidth
microbenchmark used to anchor the NUMA cost model (the paper quotes
240 GB/s STREAM bandwidth for its dual-EPYC node).

The shared-memory helpers resolve on first access (PEP 562):
``multiprocessing.shared_memory`` imports ``secrets`` and with it
OpenSSL, which a process that never forks workers should not load.
"""

import importlib

from repro.parallel.chunking import row_chunks, morsel_count
from repro.parallel.pool import ThreadTeam
from repro.parallel.stream import stream_triad, StreamResult

_SHAREDMEM = frozenset(("SharedArray", "shared_copy"))


def __getattr__(name):
    if name in _SHAREDMEM:
        return getattr(importlib.import_module("repro.parallel.sharedmem"), name)
    raise AttributeError(f"module 'repro.parallel' has no attribute {name!r}")


__all__ = [
    "row_chunks",
    "morsel_count",
    "ThreadTeam",
    "SharedArray",
    "shared_copy",
    "stream_triad",
    "StreamResult",
]
