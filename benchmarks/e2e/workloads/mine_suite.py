"""mine_suite — the paper's mining suite on a converted dataset.

In process, one caller, closed loop: ``GdeltStore.open(mode="memory")``,
then repeated passes over the seven analyses; one operation = one
analysis call.  ``engine`` kernels, ``analysis`` and ``parallel`` do
nearly all the work; ``serve``/``shard``/``views`` do none, so a serving
change must not move this workload and join/graph/kernel work must.
"""

from __future__ import annotations

from repro import analysis, engine
from repro.engine import GdeltStore, SerialExecutor, ThreadExecutor

import config
import harness
from workloads import Workload

#: Every Nth pass keeps its results for the post-window digest check.
KEEP_EVERY_PASS = 4


def suite(store, executor, top10, top50):
    """(name, layer, call) of each analysis, in pass order."""
    s = store
    return [
        ("dataset_statistics", "analysis", lambda: analysis.dataset_statistics(s)),
        ("top_publishers", "analysis", lambda: analysis.top_publishers(s, 10, executor)),
        ("follow_reporting", "analysis", lambda: analysis.follow_reporting(s, top10)),
        ("country_query", "engine", lambda: engine.aggregated_country_query(s, executor)),
        ("delay_stats", "analysis", lambda: analysis.per_source_delay_stats(s)),
        ("quarterly_delay", "analysis", lambda: analysis.quarterly_delay(s)),
        ("source_coreporting", "analysis", lambda: analysis.source_coreporting(s, top50)),
    ]


class MineSuite(Workload):
    name = "mine_suite"

    def setup(self) -> None:
        db = self.build_corpus()
        self.store = GdeltStore.open(db, mode="memory")
        self.executor = ThreadExecutor(config.NPROC)
        self.top10 = analysis.top_publishers(self.store, 10, self.executor)
        self.top50 = analysis.top_publishers(self.store, 50, self.executor)
        self._pass(self.executor)  # builds the derived indices (joins, quarter keys)
        self.kept: list[tuple[str, object]] = []

    def suite(self, executor):
        return suite(self.store, executor, self.top10, self.top50)

    def _pass(self, executor) -> dict[str, object]:
        return {name: call() for name, _, call in self.suite(executor)}

    def run(self, seconds: float) -> dict[str, harness.Phase]:
        self.kept = []
        suite = self.suite(self.executor)
        tracer = self.tracer
        state = {"i": 0}

        def op() -> bool:
            i = state["i"]
            state["i"] = i + 1
            name, layer, call = suite[i % len(suite)]
            with tracer.span("op", "bench", op=self.next_op()):
                with tracer.span(f"{layer}.{name}", layer):
                    result = call()
            if (i // len(suite)) % KEEP_EVERY_PASS == 0:
                self.kept.append((name, result))
            return result is not None

        return {"closed": harness.closed_loop(1, seconds, lambda _i: op)}

    def verify(self) -> tuple[int, int]:
        """Kept results vs a ``SerialExecutor`` pass and generator truth."""
        reference = self._pass(SerialExecutor())
        want = {name: harness.digest(value) for name, value in reference.items()}
        wrong = sum(
            1 for name, value in self.kept if harness.digest(value) != want[name]
        )
        stats = reference["dataset_statistics"]
        truth_ok = (
            stats.n_articles == self.truth["n_mentions"]
            and stats.n_events == self.truth["n_events"]
            and int(reference["quarterly_delay"].articles.sum())
            == self.truth["n_mentions"]
        )
        return len(self.kept) + 1, wrong + (0 if truth_ok else 1)

    def teardown(self) -> None:
        self.executor.close()
        self.store.release()
        self.kept = []
        super().teardown()
