"""Per-query execution profiles.

A :class:`ProfileCollector` rides along one executor ``map_chunks`` call
and records every chunk's row range, wall time, and worker; it then
freezes into a :class:`QueryProfile` — the repo's analogue of the
paper's Fig 12 / STREAM-relative measurements: per-chunk wall times,
worker utilization and imbalance, and effective scan bandwidth.

Profiles are plain data (dataclasses + dict export) so benchmarks can
store them alongside results and the CLI can dump them as JSON.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

__all__ = ["ChunkTiming", "ProfileCollector", "QueryProfile", "percentiles"]


@dataclass(slots=True)
class ChunkTiming:
    """One executed chunk: row range, perf_counter interval, worker."""

    start_row: int
    stop_row: int
    start_s: float
    end_s: float
    worker: str

    @property
    def rows(self) -> int:
        return self.stop_row - self.start_row

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s


@dataclass(slots=True)
class QueryProfile:
    """Frozen execution profile of one chunked query run.

    ``bytes_scanned`` is the estimated column bytes the kernel streamed
    (sequential reads of the columns it touches), so
    :meth:`scan_gbs` is directly comparable to a STREAM bandwidth
    number for the same host.
    """

    name: str
    n_rows: int
    n_chunks: int
    n_workers: int
    wall_seconds: float
    chunks: list[ChunkTiming] = field(default_factory=list)
    bytes_scanned: int | None = None

    # -- derived measurements ---------------------------------------------

    def busy_seconds_by_worker(self) -> dict[str, float]:
        """Total kernel-execution seconds per worker."""
        out: dict[str, float] = {}
        for c in self.chunks:
            out[c.worker] = out.get(c.worker, 0.0) + c.seconds
        return out

    def busy_seconds(self) -> float:
        """Summed kernel time across all workers."""
        return sum(c.seconds for c in self.chunks)

    def utilization(self) -> float:
        """Busy fraction of the worker team over the query's wall time.

        1.0 means every worker computed for the full wall time; low
        values expose serial sections, imbalance, or scheduling gaps.
        """
        denom = self.wall_seconds * max(1, self.n_workers)
        return self.busy_seconds() / denom if denom > 0 else 0.0

    def imbalance(self) -> float:
        """Max worker busy time over mean worker busy time (>= 1.0).

        Computed over the workers that ran at least one chunk; 1.0 is a
        perfectly balanced team.
        """
        busy = list(self.busy_seconds_by_worker().values())
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0

    def rows_per_second(self) -> float:
        return self.n_rows / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def scan_gbs(self) -> float | None:
        """Effective scan bandwidth in GB/s (None without a byte count)."""
        if self.bytes_scanned is None or self.wall_seconds <= 0:
            return None
        return self.bytes_scanned / self.wall_seconds / 1e9

    def chunk_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of per-chunk wall seconds.

        The p99/p50 ratio is the quickest read on chunk-time skew: a
        long tail here (NUMA misses, straggling workers, uneven
        selectivity) is invisible in the aggregate wall time.
        """
        return percentiles(c.seconds for c in self.chunks)

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_rows": self.n_rows,
            "n_chunks": self.n_chunks,
            "n_workers": self.n_workers,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds(),
            "utilization": self.utilization(),
            "imbalance": self.imbalance(),
            "rows_per_second": self.rows_per_second(),
            "bytes_scanned": self.bytes_scanned,
            "scan_gbs": self.scan_gbs(),
            "chunk_seconds": self.chunk_percentiles(),
            "workers": self.busy_seconds_by_worker(),
            "chunks": [
                {
                    "rows": [c.start_row, c.stop_row],
                    "start_s": c.start_s,
                    "seconds": c.seconds,
                    "worker": c.worker,
                }
                for c in self.chunks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary(self) -> str:
        """One-line human summary for logs and CLI output."""
        bw = self.scan_gbs()
        bw_txt = f", {bw:.2f} GB/s scan" if bw is not None else ""
        pct = self.chunk_percentiles()
        return (
            f"{self.name}: {self.n_rows:,} rows / {self.n_chunks} chunks "
            f"on {self.n_workers} workers in {self.wall_seconds * 1e3:.1f} ms "
            f"(util {self.utilization():.2f}, imbalance {self.imbalance():.2f}, "
            f"chunk p50/p95/p99 {pct['p50'] * 1e3:.2f}/{pct['p95'] * 1e3:.2f}/"
            f"{pct['p99'] * 1e3:.2f} ms{bw_txt})"
        )


class ProfileCollector:
    """Thread-safe accumulator of chunk timings for one map call.

    Executors call :meth:`add` once per finished chunk, from the worker
    thread that ran it; the query layer calls :meth:`finish` to freeze a
    :class:`QueryProfile`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._chunks: list[ChunkTiming] = []

    def add(
        self, start_row: int, stop_row: int, t0: float, t1: float, worker: str
    ) -> None:
        with self._lock:
            self._chunks.append(ChunkTiming(start_row, stop_row, t0, t1, worker))

    def __len__(self) -> int:
        with self._lock:
            return len(self._chunks)

    def timings(self) -> list[ChunkTiming]:
        """Snapshot of the chunk timings recorded so far."""
        with self._lock:
            return list(self._chunks)

    def finish(
        self,
        name: str,
        n_rows: int,
        n_workers: int,
        wall_seconds: float,
        bytes_scanned: int | None = None,
    ) -> QueryProfile:
        with self._lock:
            chunks = sorted(self._chunks, key=lambda c: (c.start_s, c.start_row))
        return QueryProfile(
            name=name,
            n_rows=n_rows,
            n_chunks=len(chunks),
            n_workers=n_workers,
            wall_seconds=wall_seconds,
            chunks=chunks,
            bytes_scanned=bytes_scanned,
        )


def percentiles(
    values, qs: tuple[float, ...] = (50.0, 95.0, 99.0)
) -> dict[str, float]:
    """Latency-style percentile snapshot: ``{"p50": ..., "p95": ...}``.

    Empty input yields zeros — callers report a quiet service, not a
    crash.  Used by the serving layer's profile and the serve bench.
    """
    import numpy as _np

    out = {}
    arr = _np.asarray(list(values), dtype=float)
    for q in qs:
        label = f"p{q:g}".replace(".", "_")
        out[label] = float(_np.percentile(arr, q)) if arr.size else 0.0
    return out
