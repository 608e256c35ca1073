"""ingest_follow — the write path beside reads.

A weekly raw mirror is pre-seeded, then archive pairs land (a rename
into the mirror) beside a reader: ``StoreLifecycle(follower=
LiveFollower).poll()`` publishes, a ``ViewCatalog.refresh`` follows, and
a reader thread issues a fixed four-query mix through
``QueryService(lifecycle=...)``.  One operation = one landing; latency =
landed -> first correct ``count()``.  Phase 1 (catch-up, closed loop):
the next pair lands as soon as the last is queryable — landings absorbed
per second.  Phase 2 (live, open loop): one pair lands at a fixed
cadence — latency.  Afterwards the whole mirror is bulk-converted with
``convert_raw_to_binary`` and the live store must equal it.

``ingest``, ``storage`` and ``serve.lifecycle`` do the work.  The seed
code rebuilds the whole snapshot per landing — the baseline a streaming
write path must beat.
"""

from __future__ import annotations

import os
import shutil
import threading
import time

from repro.engine import GdeltStore, col
from repro.gdelt.masterlist import EXPORT_KIND, MENTIONS_KIND, chunk_basename
from repro.ingest.convert import convert_raw_to_binary
from repro.ingest.stream import LiveFollower
from repro.serve import QueryService, StoreLifecycle
from repro.views import ViewCatalog, ViewDefinition

import config
import corpus
import harness
from workloads import Workload

#: A landing whose count() is still wrong after this long has failed.
FRESHNESS_LIMIT_S = 2.0


class SpannedFollower:
    """The follower the lifecycle calls, with a span around each call."""

    def __init__(self, inner: LiveFollower, workload: "IngestFollow") -> None:
        self.inner = inner
        self.workload = workload

    def poll(self):
        with self.workload.tracer.span("ingest.poll", "ingest"):
            return self.inner.poll()

    def snapshot(self):
        with self.workload.tracer.span("ingest.snapshot", "ingest"):
            return self.inner.snapshot()


class IngestFollow(Workload):
    name = "ingest_follow"
    ops_phase = "catchup"
    lat_phase = "live"

    def __init__(self, seed, sizes, seconds: float) -> None:
        super().__init__(seed, sizes, seconds)
        self.staged_for: float | None = None
        self.service = self.lifecycle = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        s = self.sizes
        self.work = harness.new_workdir()
        self.truth = corpus.build_in_child(
            self.work, self.seed, s.ingest_events, s.ingest_sources,
            raw_chunk_intervals=s.ingest_chunk_intervals,
        )
        self.raw = self.work / "raw"
        self.landings = self.truth["landings"]
        self._stage(self.seconds)

    def _files(self, landing: dict) -> list[str]:
        names = (
            chunk_basename(landing["interval0"], kind)
            for kind in (EXPORT_KIND, MENTIONS_KIND)
        )
        return [n for n in names if (self.raw / n).exists()]

    def _stage(self, seconds: float) -> None:
        """A fresh mirror: full master list, all but the last landings in place."""
        self._close_live()
        s = self.sizes
        mirror, staging = self.work / "mirror", self.work / "staging"
        for d in (mirror, staging):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()
        shutil.copy(self.raw / "masterfilelist.txt", mirror / "masterfilelist.txt")
        n_live = int(seconds * (1.0 - s.catchup_share) / s.landing_cadence_s)
        held_back = min(s.catchup_reserve + n_live, len(self.landings) - 1)
        self.first_live = len(self.landings) - min(n_live, held_back)
        self.next_landing = len(self.landings) - held_back
        for i, landing in enumerate(self.landings):
            dest = mirror if i < self.next_landing else staging
            for name in self._files(landing):
                os.link(self.raw / name, dest / name)
        self.mirror, self.staging = mirror, staging

        follower = LiveFollower(mirror)
        follower.poll()  # the pre-seed is set-up, not an operation: no span
        self.lifecycle = StoreLifecycle(
            follower.snapshot(), follower=SpannedFollower(follower, self)
        )
        self.catalog = ViewCatalog(None)
        self.catalog.create(ViewDefinition(name="by_quarter", group_by="Quarter"))
        self.catalog.create(ViewDefinition(name="late", where=("Delay > 96",)))
        self.catalog.refresh(self.lifecycle.current)
        self.service = QueryService(
            lifecycle=self.lifecycle, views=self.catalog, workers=config.NPROC
        )
        self.service.query("mentions", op="count")  # warm the service path
        self.staged_for = seconds

    def _close_live(self) -> None:
        if self.service is not None:
            self.service.close(drain=True)
            self.lifecycle.close()
            self.service = self.lifecycle = None

    # -- phases ------------------------------------------------------------

    def _publish(self, last: int) -> bool:
        """Rename every staged pair up to landing ``last`` into the mirror and
        poll until ``count()`` reports the generator's cumulative row count."""
        tracer = self.tracer
        for landing in self.landings[self.next_landing:last + 1]:
            for name in self._files(landing):
                os.rename(self.staging / name, self.mirror / name)
        self.next_landing = last + 1
        want = self.landings[last]["mentions"]
        t_land = time.perf_counter()
        while True:
            with tracer.span("serve.lifecycle.poll", "serve"):
                self.lifecycle.poll()
            with tracer.span("views.refresh", "views"):
                with self.lifecycle.pin() as lease:
                    self.catalog.refresh(lease.store, source="poll")
            with tracer.span("serve.inproc.count", "serve"):
                resp = self.service.query("mentions", op="count")
            if resp.ok and resp.value == want:
                return True
            if time.perf_counter() - t_land > FRESHNESS_LIMIT_S:
                return False

    def _land(self) -> bool:
        """One operation: the next archive pair lands and becomes queryable."""
        with self.tracer.span("op", "bench", op=self.next_op()):
            return self._publish(self.next_landing)

    def _catch_up(self, seconds: float) -> harness.Phase:
        """Closed loop, one caller: the next pair lands when the last is queryable."""
        phase = harness.Phase(kind="closed", t0=time.perf_counter())
        end = phase.t1 = phase.t0 + seconds
        while self.next_landing < self.first_live:
            t0 = time.perf_counter()
            if t0 >= end:
                break
            ok = harness.safe(self._land)
            phase.t1 = time.perf_counter()  # the last landing is counted whole
            phase.samples.append((phase.t1, (phase.t1 - t0) * 1e3, ok))
        return phase

    def _live(self) -> harness.Phase:
        if self.next_landing < self.first_live:
            # What catch-up left of its reserve lands in one step: not an op.
            self._publish(self.first_live - 1)
        n = len(self.landings) - self.first_live
        dues = [i * self.sizes.landing_cadence_s for i in range(n)]
        return harness.open_loop([dues], lambda _i: self._land)

    def _reader(self, stop: threading.Event, replies: list[bool]) -> None:
        mix = [
            dict(op="count", group_by="Quarter"),
            dict(op="count", where=col("Delay") > 96),
            dict(op="mean", column="Delay", group_by="SourceCountry"),
            dict(op="sum", column="Confidence", where=col("Delay") > 960),
        ]
        # Paced, not spinning: a reader that hogs the interpreter lock
        # would measure lock contention instead of the write path.
        interval = self.sizes.reader_interval_s
        due = time.perf_counter()
        i = 0
        while not stop.wait(max(0.0, due - time.perf_counter())):
            replies.append(self.service.query("mentions", **mix[i % len(mix)]).ok)
            i += 1
            due += interval

    def run(self, seconds: float) -> dict[str, harness.Phase]:
        if self.staged_for != seconds:
            self._stage(seconds)
        self.staged_for = None  # a run consumes its mirror
        stop, replies = threading.Event(), []
        reader = threading.Thread(target=self._reader, args=(stop, replies))
        reader.start()
        try:
            catchup = self._catch_up(seconds * self.sizes.catchup_share)
            live = self._live()
        finally:
            stop.set()
            reader.join()
        self.reader_ok = sum(replies)
        self.reader_failed = len(replies) - self.reader_ok
        return {"catchup": catchup, "live": live}

    def verify(self) -> tuple[int, int]:
        """Reader replies; then the bulk conversion of the whole mirror vs the
        generator's row counts, and the live store vs the bulk-converted one."""
        checked, wrong = self.reader_ok + self.reader_failed, self.reader_failed
        result = convert_raw_to_binary(self.raw, self.work / "bulk")
        checked += 1
        wrong += not (
            result.n_mentions == self.truth["n_mentions"]
            and result.n_events == self.landings[-1]["events"]
        )
        bulk = GdeltStore.open(self.work / "bulk", mode="mmap")
        with self.lifecycle.pin() as lease:
            live = lease.store
            for table, group in (("mentions", "Quarter"), ("events", "Quarter"),
                                 ("mentions", "Source")):
                a = live.query(table).group_by(group).count().value
                b = bulk.query(table).group_by(group).count().value
                checked += 1
                wrong += harness.digest(a) != harness.digest(b)
        bulk.release()
        return checked, wrong

    def teardown(self) -> None:
        self._close_live()
        super().teardown()
