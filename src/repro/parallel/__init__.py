"""Shared-memory parallel runtime.

The OpenMP stand-in: row-range chunking ("morsels"), a persistent thread
team that hands chunks to whichever worker is free (dynamic
scheduling), and a STREAM-style memory-bandwidth microbenchmark used to
anchor the NUMA cost model (the paper quotes 240 GB/s STREAM bandwidth
for its dual-EPYC node).  Execution across processes and nodes is
:mod:`repro.shard`'s job.
"""

from repro.parallel.chunking import row_chunks
from repro.parallel.pool import ThreadTeam
from repro.parallel.stream import stream_triad, StreamResult

__all__ = [
    "row_chunks",
    "ThreadTeam",
    "stream_triad",
    "StreamResult",
]
