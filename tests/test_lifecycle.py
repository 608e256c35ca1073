"""Store lifecycle: refcounted generations, validated hot reload, breakers.

The robustness contract under test:

* a reload publishes a *validated* new generation atomically — a bad
  candidate rolls back and the old generation keeps serving;
* in-flight work pinned to a generation sees byte-identical data even
  while the swap happens (and across ``invalidate()`` storms);
* stale cross-generation cache hits are structurally impossible
  (planner cache keys carry the store fingerprint);
* circuit breakers trip/cool-down/probe deterministically under an
  injected clock, and a tripped ``reload`` breaker fast-fails SIGHUPs.
"""

from __future__ import annotations

import os
import shutil
import signal
import threading

import numpy as np
import pytest

from repro.engine import GdeltStore, SerialExecutor, col, result_cache
from repro.engine.query import ExecutableOp, run_batch
from repro.engine.terminal import GROUP_OPS, OPS, TerminalSpec
from repro.ingest import convert_raw_to_binary
from repro.obs import telemetry as _telemetry
from repro.serve import (
    BreakerBoard,
    LifecycleError,
    QueryService,
    StoreLifecycle,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.storage.gdelt import write_gdelt_dataset
from tests.test_stream import split_mirror
from tests.test_views import assert_same_value


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown_s", 10.0)
        return CircuitBreaker("t", clock=clock, **kw), clock

    def test_trips_after_consecutive_failures(self):
        br, _ = self.make()
        for _ in range(2):
            br.failure()
        assert br.state == CLOSED
        br.failure()
        assert br.state == OPEN
        allowed, retry = br.allow()
        assert not allowed and retry > 0

    def test_success_resets_the_streak(self):
        br, _ = self.make()
        br.failure()
        br.failure()
        br.success()
        br.failure()
        br.failure()
        assert br.state == CLOSED

    def test_cooldown_half_opens_then_success_closes(self):
        br, clock = self.make()
        for _ in range(3):
            br.failure()
        clock.advance(9.0)
        assert br.allow() == (False, pytest.approx(1.0))
        clock.advance(1.5)
        assert br.state == HALF_OPEN
        allowed, _ = br.allow()  # the probe slot
        assert allowed
        br.success()
        assert br.state == CLOSED
        assert br.allow() == (True, 0.0)

    def test_half_open_probe_failure_reopens(self):
        br, clock = self.make()
        for _ in range(3):
            br.failure()
        clock.advance(10.5)
        allowed, _ = br.allow()
        assert allowed and br.state == HALF_OPEN
        br.failure()
        assert br.state == OPEN
        assert br.allow()[0] is False

    def test_half_open_probe_slots_are_bounded(self):
        br, clock = self.make(half_open_probes=2)
        for _ in range(3):
            br.failure()
        clock.advance(10.5)
        assert br.allow()[0] and br.allow()[0]
        allowed, retry = br.allow()  # both probe slots taken
        assert not allowed and retry == 10.0

    def test_board_isolates_classes(self):
        board = BreakerBoard(failure_threshold=1, clock=FakeClock())
        board.failure("reload")
        assert board.allow("reload")[0] is False
        assert board.allow("execute")[0] is True
        states = board.states()
        assert states["reload"]["state"] == OPEN
        assert states["execute"]["state"] == CLOSED


@pytest.fixture(scope="module")
def small_dir(raw_dir, tmp_path_factory):
    """A dataset converted from the first half of the raw mirror."""
    stage = tmp_path_factory.mktemp("lc-small-raw")
    split_mirror(raw_dir, stage, 0.5)
    out = tmp_path_factory.mktemp("lc-small-ds")
    convert_raw_to_binary(stage, out)
    return out


@pytest.fixture(scope="module")
def full_dir(raw_dir, tmp_path_factory):
    """A dataset converted from the whole raw mirror."""
    out = tmp_path_factory.mktemp("lc-full-ds")
    convert_raw_to_binary(raw_dir, out)
    return out


def _mentions(store: GdeltStore) -> int:
    return store.query("mentions").count().value


class TestStoreLifecycle:
    def test_reload_publishes_new_generation(self, small_dir, full_dir):
        lc = StoreLifecycle(
            GdeltStore.open(small_dir, mode="memory"), reload_path=full_dir
        )
        try:
            before = _mentions(lc.current)
            old = lc.current
            result = lc.reload()
            assert result.ok and result.changed
            assert result.generation == 2 == lc.generation
            assert _mentions(lc.current) > before
            # The superseded generation lost its only reference.
            assert old.released
            gens = [e["generation"] for e in lc.history()]
            assert gens == [1, 2]
        finally:
            lc.close()

    def test_failed_validation_rolls_back(self, small_dir, full_dir, tmp_path):
        bad = tmp_path / "bad-ds"
        import shutil

        shutil.copytree(full_dir, bad)
        victim = max(
            (
                p
                for p in bad.rglob("*")
                if p.is_file() and p.name != "manifest.json"
            ),
            key=lambda p: p.stat().st_size,
        )
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])

        lc = StoreLifecycle(
            GdeltStore.open(small_dir, mode="memory"), reload_path=bad
        )
        try:
            baseline = _mentions(lc.current)
            result = lc.reload()
            assert not result.ok and not result.changed
            assert result.error
            # Old generation untouched and still serving.
            assert lc.generation == 1
            assert _mentions(lc.current) == baseline
            assert len(lc.history()) == 1
            assert _telemetry.flight().counts().get("reload_failed", 0) >= 1
        finally:
            lc.close()

    def test_reload_missing_path_fails_clean(self, small_dir, tmp_path):
        lc = StoreLifecycle(
            GdeltStore.open(small_dir, mode="memory"),
            reload_path=tmp_path / "does-not-exist",
        )
        try:
            result = lc.reload()
            assert not result.ok and lc.generation == 1
        finally:
            lc.close()

    def test_pinned_generation_survives_reload(self, small_dir, full_dir):
        lc = StoreLifecycle(
            GdeltStore.open(small_dir, mode="memory"), reload_path=full_dir
        )
        try:
            lease = lc.pin()
            pinned_count = _mentions(lease.store)
            assert lc.reload().ok
            # The swap happened, but the lease still reads generation 1
            # byte-for-byte; release is what lets it die.
            assert lease.generation == 1
            assert _mentions(lease.store) == pinned_count
            assert not lease.store.released
            old = lease.store
            lease.release()
            assert old.released
            lease.release()  # idempotent
        finally:
            lc.close()

    def test_poll_publishes_monotone_generations(self, raw_dir, tmp_path):
        from repro.ingest import LiveFollower

        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.5)
        follower = LiveFollower(stage)
        assert not follower.poll().idle
        lc = StoreLifecycle(follower.snapshot(), follower=follower)
        try:
            # Nothing new: poll is an idle no-op, not a republish.
            idle = lc.poll()
            assert idle.ok and not idle.changed and lc.generation == 1

            import shutil

            for line in late:
                name = line.split(" ")[2].rsplit("/", 1)[-1]
                shutil.copy(raw_dir / name, stage / name)
            master = (stage / "masterfilelist.txt").read_text()
            (stage / "masterfilelist.txt").write_text(
                master + "\n".join(late) + "\n"
            )
            grown = lc.poll()
            assert grown.ok and grown.changed and grown.generation == 2
            rows = [e["rows"]["mentions"] for e in lc.history()]
            assert rows[1] > rows[0]
        finally:
            lc.close()

    def test_sighup_requests_are_run_by_the_main_loop(self, small_dir, full_dir):
        lc = StoreLifecycle(
            GdeltStore.open(small_dir, mode="memory"), reload_path=full_dir
        )
        previous = signal.getsignal(signal.SIGHUP)
        try:
            assert lc.run_pending() is None  # nothing requested
            assert lc.install_sighup()
            os.kill(os.getpid(), signal.SIGHUP)
            result = lc.run_pending()
            assert result is not None and result.ok and result.changed
            assert lc.generation == 2
            assert lc.run_pending() is None  # flag consumed
        finally:
            signal.signal(signal.SIGHUP, previous)
            lc.close()

    def test_reload_breaker_fast_fails_requests(self, small_dir, tmp_path):
        clock = FakeClock()
        board = BreakerBoard(failure_threshold=2, cooldown_s=60.0, clock=clock)
        lc = StoreLifecycle(
            GdeltStore.open(small_dir, mode="memory"),
            reload_path=tmp_path / "nope",
            breakers=board,
        )
        try:
            assert not lc.reload().ok
            assert not lc.reload().ok
            assert board.states()["reload"]["state"] == OPEN
            lc.request_reload()
            result = lc.run_pending()
            assert result is not None and not result.ok
            assert "breaker open" in result.error
        finally:
            lc.close()

    def test_pin_after_close_raises(self, small_dir):
        lc = StoreLifecycle(GdeltStore.open(small_dir, mode="memory"))
        store = lc.current
        lc.close()
        assert store.released
        with pytest.raises(LifecycleError):
            lc.pin()

    def test_stale_cache_hits_are_impossible_across_reload(
        self, small_dir, full_dir
    ):
        """The regression the planner-cache fingerprint key exists for.

        Without the (token, generation) fingerprint in the result-cache
        key, the second count would be a cache hit against generation
        1's answer — stale data served with "ok".
        """
        lc = StoreLifecycle(
            GdeltStore.open(small_dir, mode="memory"), reload_path=full_dir
        )
        with QueryService(lifecycle=lc, workers=2) as svc:
            first = svc.query("mentions", op="count")
            warm = svc.query("mentions", op="count")
            assert first.ok and warm.ok and warm.value == first.value
            assert lc.reload().ok
            fresh = svc.query("mentions", op="count")
            assert fresh.ok
            assert fresh.value == _mentions(lc.current)
            assert fresh.value != first.value
            assert fresh.stats["store_gen"] == 2
        lc.close()

    def test_concurrent_queries_race_swap_and_invalidate(
        self, small_dir, full_dir
    ):
        """Satellite regression: store.query() under invalidate() storms
        and generation swaps stays byte-identical per generation."""
        lc = StoreLifecycle(
            GdeltStore.open(small_dir, mode="memory"), reload_path=full_dir
        )
        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                lease = lc.pin()
                try:
                    value = _mentions(lease.store)
                    expected = next(
                        e["rows"]["mentions"]
                        for e in lc.history()
                        if e["generation"] == lease.generation
                    )
                    if value != expected:
                        failures.append(
                            f"gen {lease.generation}: {value} != {expected}"
                        )
                finally:
                    lease.release()

        def chaos() -> None:
            while not stop.is_set():
                with lc.pin() as lease:
                    lease.store.invalidate()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=chaos))
        for t in threads:
            t.start()
        try:
            for path in (full_dir, small_dir, full_dir):
                result = lc.reload(path)
                assert result.ok, result.error
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
            lc.close()
        assert not failures, failures[:5]
        assert lc.generation == 4


def _answers(store: GdeltStore) -> list:
    q = store.query("mentions")
    return [
        q.count().value,
        q.filter(col("Delay") > 96).sum("Delay").value,
        q.group_by("SourceId").mean("Delay").value,
        q.group_by("Quarter").stats("Delay").value,
    ]


def _assert_answers(store: GdeltStore, want: list) -> None:
    for got, expected in zip(_answers(store), want, strict=True):
        assert_same_value(got, expected)


def _mapped(column: np.ndarray) -> bool:
    """A read-only view of a memory map, not a private copy."""
    return isinstance(column.base, np.memmap) and not column.flags.writeable


def _arrays(value):
    """Every array inside a result value."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, tuple)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _arrays(v)


class TestMappedServing:
    """``GdeltStore.open`` maps a dataset: a server holds only the pages
    its queries touch, so what it hands out must never be those pages."""

    def test_pinned_mapped_generation_survives_rewrite_and_reload(
        self, small_dir, full_dir, tmp_path
    ):
        db = tmp_path / "db"
        shutil.copytree(small_dir, db)
        refs = [GdeltStore.open(d, mode="memory") for d in (small_dir, full_dir)]
        want_small, want_full = (_answers(s) for s in refs)
        lc = StoreLifecycle(GdeltStore.open(db), reload_path=db)
        try:
            assert _mapped(lc.current.mentions["Delay"])
            lease = lc.pin()
            _assert_answers(lease.store, want_small)
            full = refs[1]
            write_gdelt_dataset(db, full.events, full.mentions, full.dictionaries())
            assert lc.reload().ok and lc.generation == 2
            result_cache().invalidate()  # rescan the mapped columns
            _assert_answers(lease.store, want_small)
            _assert_answers(lc.current, want_full)
            lease.release()
        finally:
            lc.close()
            for s in refs:
                s.release()

    def test_results_and_cache_entries_never_alias_columns(self, small_dir):
        store = GdeltStore.open(small_dir)
        result_cache().invalidate()
        try:
            cols = store.mentions
            assert all(_mapped(a) for a in cols.values())
            n = store.n_rows("mentions")
            specs = [TerminalSpec(op, column="Delay" if op in ("sum", "mean") else None)
                     for op in OPS]
            specs += [
                TerminalSpec(op, group="SourceId", k=3 if op == "top" else None,
                             column="Delay" if op in ("sum", "mean", "stats") else None)
                for op in GROUP_OPS
            ]
            ops = [
                ExecutableOp(store, "mentions", spec, where, slice(0, n), partials)
                for spec in specs
                for where in (None, col("Delay") > 96)
                for partials in (False, True)
            ]
            for _ in range(2):  # a miss, then a hit
                results = run_batch(ops, SerialExecutor())
                values = [r.value for r in results]
                values += [v for v, _ in result_cache()._data.values()]
                for arr in (a for v in values for a in _arrays(v)):
                    assert not isinstance(arr, np.memmap)
                    assert not any(np.shares_memory(arr, c) for c in cols.values())
        finally:
            store.release()
