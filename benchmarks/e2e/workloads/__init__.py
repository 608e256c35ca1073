"""The five workloads.  Each module holds one ``Workload`` subclass."""

from __future__ import annotations

from pathlib import Path

import numpy as np

import config
import corpus
import harness
from spans import NullTracer


class Workload:
    """One set of inputs plus the loop that drives the system with it.

    Life cycle: ``setup()`` (timed as ``setup_s``; builds the corpus,
    spawns servers, warms up) -> ``run(seconds)`` any number of times
    (``self.tracer`` decides whether spans are recorded) -> ``verify()``
    (the post-window part of the oracle) -> ``teardown()``.
    """

    name = ""
    #: Phases that feed ``ops_per_s`` and the latency metrics.
    ops_phase = "closed"
    lat_phase = "closed"

    def __init__(self, seed: int, sizes: config.Sizes, seconds: float) -> None:
        self.seed = seed
        self.sizes = sizes
        #: Length of the timed run this set-up is for.
        self.seconds = seconds
        self.tracer = NullTracer()
        self.rng = np.random.default_rng([seed, 0xE2E])
        self.work: Path | None = None
        self.truth: dict = {}
        self._op_ids = 0

    # -- helpers -----------------------------------------------------------

    def build_corpus(self) -> Path:
        """Main corpus -> ``<work>/db`` via the builder child."""
        s = self.sizes
        self.work = harness.new_workdir()
        self.truth = corpus.build_in_child(
            self.work, self.seed, s.events, s.sources,
            zone_chunk_rows=s.zone_chunk_rows,
        )
        return self.work / "db"

    def next_op(self) -> int:
        self._op_ids += 1
        return self._op_ids

    # -- protocol ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> dict[str, harness.Phase]:
        raise NotImplementedError

    def verify(self) -> tuple[int, int]:
        """Post-window oracle: ``(operations rechecked, wrong answers)``."""
        return 0, 0

    def timing(self, phases: dict[str, harness.Phase]) -> dict[str, float]:
        """Throughput and latency of one pass of ``run``."""
        latencies = phases[self.lat_phase].latencies()
        return {
            "ops_per_s": phases[self.ops_phase].rate(),
            "lat_p50_ms": harness.percentile(latencies, 50),
            "lat_tail_ms": harness.percentile(
                latencies, config.TAIL_PERCENTILE[self.name]
            ),
        }

    def children(self) -> list:
        """The server subprocesses under test (``Popen`` objects)."""
        return []

    def children_rss_mb(self) -> float:
        """Sum of the live server children's peak RSS."""
        return sum(harness.peak_rss_mb_of(p.pid) for p in self.children())

    def teardown(self) -> None:
        """Stop children and drop the scratch directory."""
        for proc in self.children():
            harness.stop_process(proc)
        if self.work is not None:
            harness.drop_workdir(self.work)
            self.work = None



def registry() -> dict[str, type[Workload]]:
    from workloads.adhoc_scan import AdhocScan
    from workloads.ingest_follow import IngestFollow
    from workloads.mine_suite import MineSuite
    from workloads.serve_hot import ServeHot
    from workloads.shard_wide import ShardWide

    return {
        w.name: w for w in (MineSuite, AdhocScan, ServeHot, ShardWide, IngestFollow)
    }
