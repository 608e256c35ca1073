"""Materialized views: definitions, incremental maintenance, catalog, serving.

The contract under test:

* a view's finalized value is byte-identical to the direct query it
  stands for (counts and integer-column aggregates exactly; float sums
  share the shard-merge last-ulp caveat) — including after incremental
  refreshes over any prefix cuts and a catalog restart from disk;
* incremental refresh scans only the rows published since the last
  refresh and folds them into the view's one retained partial;
* serving answers a matching request from a *fresh* view only — any
  staleness (new generation, failed refresh, never refreshed) silently
  falls through to the scan path;
* subscriptions push refresh deltas with latest-wins backpressure and
  resume losslessly (at the latest-value level) across reconnects.
"""

from __future__ import annotations

import json
import shutil
import socket

import numpy as np
import pytest

from repro.engine import GdeltStore, col
from repro.engine.executor import SerialExecutor
from repro.engine.planner import result_cache
from repro.engine.query import ExecutableOp, run_batch
from repro.engine.terminal import TerminalSpec
from repro.ingest import LiveFollower
from repro.obs import telemetry
from repro.serve import (
    QueryService,
    ServeServer,
    StoreLifecycle,
    ViewSubscription,
)
from repro.views import ViewCatalog, ViewDefinition, ViewError
from tests.test_stream import split_mirror

ZONE_CHUNK_ROWS = 2_048


def source_of(op: ExecutableOp) -> tuple[str, str | None]:
    """``(plan.source, plan.view)`` of ``op`` run through ``run_batch``."""
    (res,) = run_batch([op], SerialExecutor())
    return res.plan.source, res.plan.view


def assert_same_value(got, want) -> None:
    """Byte-level equality across the value shapes terminals return."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want)
        for key in want:
            assert_same_value(got[key], want[key])
    elif isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype, (got.dtype, want.dtype)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want or (got != got and want != want)  # NaN == NaN


@pytest.fixture(scope="module")
def zstore(tiny_arrays):
    """Multi-chunk store (small zone chunks) over the shared tiny
    arrays (session ``tiny_arrays`` fixture in conftest)."""
    events, mentions, dicts = tiny_arrays
    return GdeltStore.from_arrays(
        events, mentions, dicts, zone_chunk_rows=ZONE_CHUNK_ROWS
    )


@pytest.fixture(autouse=True)
def _unpin():
    """Pins are process-wide: no test is served another test's views."""
    yield
    result_cache().invalidate()


#: Terminal shapes every maintenance test sweeps: (definition kwargs,
#: direct-query lambda).  Covers scalar + grouped, filtered + not,
#: every mergeable op.
TERMINALS = [
    (
        dict(op="count", where=("Delay > 96",)),
        lambda s: s.query("mentions").filter(col("Delay") > 96).count().value,
    ),
    (
        dict(op="count", group_by="Quarter"),
        lambda s: s.query("mentions").group_by("Quarter").count().value,
    ),
    (
        dict(op="sum", group_by="SourceId", column="Delay",
             where=("Confidence >= 20",)),
        lambda s: s.query("mentions").filter(col("Confidence") >= 20)
        .group_by("SourceId").sum("Delay").value,
    ),
    (
        dict(op="mean", group_by="Quarter", column="Delay"),
        lambda s: s.query("mentions").group_by("Quarter").mean("Delay").value,
    ),
    (
        dict(op="stats", group_by="SourceId", column="Delay"),
        lambda s: s.query("mentions").group_by("SourceId").stats("Delay").value,
    ),
    (
        dict(op="top", group_by="Source", k=7),
        lambda s: s.query("mentions").group_by("Source").top(7).value,
    ),
]


class TestViewDefinition:
    def test_from_query_captures_terminal(self, zstore):
        q = zstore.query("mentions").filter(col("Delay") > 96).group_by("Quarter")
        d = ViewDefinition.from_query("delayed", q, op="count")
        assert d.table == "mentions"
        assert d.op == "count"
        assert d.group_by == "Quarter"  # a name the registry resolves
        assert d.where and "Delay" in d.where[0]
        cat = ViewCatalog(None)
        cat.create(d)
        assert cat.refresh(zstore)["delayed"]["error"] is None
        assert_same_value(cat.get("delayed").value(), q.count().value)

    def test_from_query_rejects_time_range(self, zstore):
        q = zstore.query("mentions").time_range(0, 10_000)
        with pytest.raises(ValueError, match="time_range"):
            ViewDefinition.from_query("windowed", q, op="count")

    def test_from_query_rejects_window_covering_every_row(self, tiny_arrays):
        """A window past the last row today still excludes tomorrow's
        rows: a store cut at the median capture interval answers
        ``time_range(0, mid)`` with every row it has, yet the window is
        no whole-table view once the store grows."""
        events, mentions, dicts = tiny_arrays
        mid = int(np.median(mentions["MentionInterval"]))
        keep = np.asarray(mentions["MentionInterval"]) < mid
        prefix = GdeltStore.from_arrays(
            events, {c: a[keep] for c, a in mentions.items()}, dicts,
            zone_chunk_rows=ZONE_CHUNK_ROWS,
        )
        q = prefix.query("mentions").time_range(0, mid)
        assert q.n_rows == prefix.n_mentions
        with pytest.raises(ValueError, match="time_range"):
            ViewDefinition.from_query("windowed", q, op="count")
        with pytest.raises(ValueError, match="time_range"):
            ViewDefinition.from_query("windowed", q.group_by("Quarter"), op="count")

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ViewDefinition(name="x", op="median").validate()
        with pytest.raises(ValueError):  # sum without a column
            ViewDefinition(name="x", op="sum").validate()
        with pytest.raises(ValueError):  # top needs group_by + k
            ViewDefinition(name="x", op="top").validate()
        with pytest.raises(ValueError):  # names become file names
            ViewDefinition(name="a/b", op="count").validate()
        with pytest.raises(ValueError):  # filter outside the wire grammar
            ViewDefinition(name="x", where=("Delay !!! 3",)).validate()

    def test_dict_round_trip(self):
        d = ViewDefinition(
            name="t", table="mentions", op="top", group_by="Source", k=5,
            where=("Delay > 96", "Confidence >= 20"),
        )
        assert ViewDefinition.from_dict(d.to_dict()) == d


#: A filter whose zone maps prune every chunk (Confidence tops out at 100).
PRUNED = "Confidence > 100"


def direct_value(store, d: ViewDefinition):
    """The direct ``store.query`` value a definition stands for."""
    q = store.query(d.table)
    if d.where:
        q = q.filter(d.parsed_where())
    if d.group_by is not None:
        q = q.group_by(d.group_by)
    args = [a for a in (d.column, d.k) if a is not None]
    return getattr(q, d.op)(*args).value


@pytest.fixture(scope="module")
def growth(tiny_arrays):
    """Five random ascending prefix cuts of the mentions table, as the
    stores a live follower would publish: each cut's events are the
    ones that had happened by its last mention, so later cuts widen the
    ``Quarter`` group width.  Every sequence holds a repeated cut (a
    zero-row extension) and ends at the full table."""
    events, mentions, dicts = tiny_arrays
    n = len(mentions["MentionInterval"])
    sequences = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cuts = sorted(int(c) for c in rng.integers(1, n, 3))
        cuts = cuts[:2] + [cuts[1]] + cuts[2:] + [n]
        stores = []
        for cut in cuts:
            last = mentions["MentionInterval"][cut - 1]
            keep = events["DayInterval"] <= last
            stores.append(GdeltStore.from_arrays(
                {c: a[keep] for c, a in events.items()},
                {c: a[:cut] for c, a in mentions.items()},
                dicts, zone_chunk_rows=512,
            ))
        sequences.append(stores)
    return sequences


class TestIncrementalMaintenance:
    def test_growth_covers_the_edge_cases(self, growth):
        rows = [[s.n_rows("mentions") for s in seq] for seq in growth]
        assert all(any(a == b for a, b in zip(r, r[1:])) for r in rows)
        assert any(r % 512 for seq in rows for r in seq)  # mid-chunk cuts
        widths = [[s.group_width("mentions", "Quarter")[1] for s in seq]
                  for seq in growth]
        assert any(w[0] < w[-1] for w in widths)

    @pytest.mark.parametrize("spec,direct", TERMINALS)
    def test_refresh_equals_rebuild_and_direct(
        self, growth, tmp_path, spec, direct
    ):
        """Over every cut sequence, an extended view (reloaded from disk
        before each step) equals a cold rebuild and the direct query,
        byte for byte — also for a filter zone maps prune entirely."""
        defs = [
            ViewDefinition(name="plain", **spec),
            ViewDefinition(
                name="pruned", **{**spec, "where": (*spec.get("where", ()), PRUNED)}
            ),
        ]
        for i, stores in enumerate(growth):
            root = tmp_path / f"seq{i}"
            cat = ViewCatalog(root)
            for d in defs:
                cat.create(d)
            prev = 0
            for step, store in enumerate(stores):
                rows = store.n_rows("mentions")
                summary = cat.refresh(store, source="poll")
                for info in summary.values():
                    assert info["error"] is None
                    assert info["rebuilt"] == (step == 0)
                    assert info["delta_rows"] == rows - prev
                prev = rows
                result_cache().invalidate()
                cold = ViewCatalog(None)
                for d in defs:
                    cold.create(d)
                cold.refresh(store)
                reloaded = ViewCatalog(root)
                for d in defs:
                    got = cat.get(d.name).value()
                    want = direct(store) if d.name == "plain" else direct_value(store, d)
                    assert_same_value(got, want)
                    assert_same_value(cold.get(d.name).value(), want)
                    assert_same_value(reloaded.get(d.name).value(), want)
                cat = reloaded


class TestCatalogRefresh:
    @pytest.mark.parametrize("spec,direct", TERMINALS)
    def test_refresh_value_byte_identical(self, zstore, spec, direct):
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="v", **spec))
        summary = cat.refresh(zstore)
        assert summary["v"]["error"] is None and summary["v"]["rebuilt"]
        assert_same_value(cat.get("v").value(), direct(zstore))

    def test_incremental_extends_and_stays_identical(self, tiny_arrays):
        events, mentions, dicts = tiny_arrays
        n = len(next(iter(mentions.values())))
        cut = int(n * 0.6)
        prefix = {c: a[:cut] for c, a in mentions.items()}
        store_a = GdeltStore.from_arrays(
            events, prefix, dicts, zone_chunk_rows=ZONE_CHUNK_ROWS
        )
        store_b = GdeltStore.from_arrays(
            events, mentions, dicts, zone_chunk_rows=ZONE_CHUNK_ROWS
        )
        cat = ViewCatalog(None)
        for i, (spec, _direct) in enumerate(TERMINALS):
            cat.create(ViewDefinition(name=f"v{i}", **spec))
        cat.refresh(store_a)
        summary = cat.refresh(store_b, assume_prefix=True)
        for name, info in summary.items():
            assert info["error"] is None
            assert not info["rebuilt"], f"{name} rebuilt instead of extending"
            assert info["delta_rows"] == n - cut
        for i, (_spec, direct) in enumerate(TERMINALS):
            assert_same_value(cat.get(f"v{i}").value(), direct(store_b))

    def test_foreign_store_without_prefix_contract_rebuilds(self, tiny_arrays):
        events, mentions, dicts = tiny_arrays
        store_a = GdeltStore.from_arrays(
            events, mentions, dicts, zone_chunk_rows=ZONE_CHUNK_ROWS
        )
        store_b = GdeltStore.from_arrays(
            events, mentions, dicts, zone_chunk_rows=ZONE_CHUNK_ROWS
        )
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="c", op="count"))
        cat.refresh(store_a)
        summary = cat.refresh(store_b, assume_prefix=False)
        assert summary["c"]["rebuilt"]

    def test_shrunken_table_rebuilds_even_with_prefix(self, tiny_arrays):
        events, mentions, dicts = tiny_arrays
        n = len(next(iter(mentions.values())))
        smaller = {c: a[: n // 2] for c, a in mentions.items()}
        big = GdeltStore.from_arrays(
            events, mentions, dicts, zone_chunk_rows=ZONE_CHUNK_ROWS
        )
        small = GdeltStore.from_arrays(
            events, smaller, dicts, zone_chunk_rows=ZONE_CHUNK_ROWS
        )
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="c", op="count"))
        cat.refresh(big)
        summary = cat.refresh(small, assume_prefix=True)
        assert summary["c"]["rebuilt"]
        assert cat.get("c").value() == small.n_rows("mentions")

    def test_refresh_failure_is_recorded_not_raised(self, zstore):
        cat = ViewCatalog(None)
        # Valid grammar/shape, but the column doesn't exist on this store.
        cat.create(ViewDefinition(name="bad", op="sum", column="NoSuchColumn"))
        cat.create(ViewDefinition(name="good", op="count"))
        summary = cat.refresh(zstore)
        assert summary["bad"]["error"] is not None
        assert summary["good"]["error"] is None
        assert cat.get("bad").last_error is not None
        assert cat.get("good").value() == zstore.n_rows("mentions")
        failed = [e for e in telemetry.flight().events()
                  if e["kind"] == "view_refresh_failed" and e["view"] == "bad"]
        assert failed and failed[-1]["source"] == "manual"

    def test_view_dropped_mid_refresh_stays_dropped(
        self, tmp_path, zstore, monkeypatch
    ):
        """A drop that lands while the view's delta runs wins: the
        refresh neither serves nor persists the dropped view."""
        import repro.views.catalog as catalog_module

        cat = ViewCatalog(tmp_path)
        cat.create(ViewDefinition(name="v", op="count"))
        real = catalog_module.run_batch

        def drop_first(ops, executor, cancel=None):
            cat.drop("v")
            return real(ops, executor, cancel)

        monkeypatch.setattr(catalog_module, "run_batch", drop_first)
        summary = cat.refresh(zstore)
        assert "v" not in summary and "v" not in cat
        n = zstore.n_rows("mentions")
        op = ExecutableOp(zstore, "mentions", TerminalSpec("count"), None, slice(0, n))
        assert source_of(op) == ("scan", None)
        assert not (tmp_path / "state" / "v.json").exists()
        assert ViewCatalog(tmp_path).names() == []

    def test_duplicate_and_unknown_names_raise(self, zstore):
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="v", op="count"))
        with pytest.raises(ViewError, match="already exists"):
            cat.create(ViewDefinition(name="v", op="count"))
        with pytest.raises(ViewError, match="no such view"):
            cat.get("nope")
        with pytest.raises(ViewError, match="no such view"):
            cat.drop("nope")
        cat.drop("v")
        assert "v" not in cat


class TestOneAnswerStore:
    """A view's answer is a pinned entry of the process-wide result
    cache, found by the runner's one probe."""

    @staticmethod
    def _total(store) -> ExecutableOp:
        n = store.n_rows("mentions")
        return ExecutableOp(store, "mentions", TerminalSpec("count"), None, slice(0, n))

    def _pinned_total(self, store) -> ViewCatalog:
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="total", op="count"))
        cat.refresh(store)
        assert source_of(self._total(store)) == ("view", "total")
        return cat

    def test_refreshes_leave_no_delta_entries(self, growth):
        """Regression: every refresh left its ``partials=True`` delta
        answers in the LRU, under keys nothing reads again."""
        result_cache().invalidate()
        cat = ViewCatalog(None)
        for i, (spec, _direct) in enumerate(TERMINALS[:4]):
            cat.create(ViewDefinition(name=f"v{i}", **spec))
        for store in growth[0][:4]:
            cat.refresh(store, source="poll")
            assert len(result_cache()) == 0
            assert result_cache().stats()["pinned"] == 4

    def test_local_query_is_view_served_and_byte_equal(self, zstore):
        result_cache().invalidate()
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="by_quarter", group_by="Quarter"))
        cat.refresh(zstore)
        viewed = zstore.query("mentions").group_by("Quarter").count()
        assert (viewed.plan.source, viewed.plan.view) == ("view", "by_quarter")
        assert viewed.plan.cache_status == "hit"
        cat.drop("by_quarter")
        scanned = zstore.query("mentions").group_by("Quarter").count()
        assert (scanned.plan.source, scanned.plan.cache_status) == ("scan", "miss")
        assert_same_value(viewed.value, scanned.value)

    def test_drop_unpins(self, zstore):
        cat = self._pinned_total(zstore)
        cat.drop("total")
        assert source_of(self._total(zstore)) == ("scan", None)

    def test_pin_outlives_one_of_two_catalogs(self, zstore):
        """Regression: one catalog's drop unpinned the answer another
        catalog's view of the same request still held."""
        result_cache().invalidate()
        a, b = self._pinned_total(zstore), self._pinned_total(zstore)
        a.drop("total")
        assert zstore.query("mentions").count().plan.source == "view"
        b.drop("total")
        assert zstore.query("mentions").count().plan.source == "scan"

    def test_next_refresh_repins_under_the_new_generation(self, growth):
        old, new = growth[0][0], growth[0][-1]
        cat = self._pinned_total(old)
        cat.refresh(new, source="poll")
        assert source_of(self._total(new)) == ("view", "total")
        assert source_of(self._total(old)) == ("scan", None)

    def test_store_release_unpins(self, tiny_arrays):
        store = GdeltStore.from_arrays(*tiny_arrays)
        key = self._total(store).key
        self._pinned_total(store)
        store.release()
        assert result_cache().get(key) is None

    def test_full_invalidate_unpins(self, zstore):
        self._pinned_total(zstore)
        result_cache().invalidate()
        assert source_of(self._total(zstore)) == ("scan", None)


class TestPersistence:
    def _build(self, root, zstore):
        cat = ViewCatalog(root)
        cat.create(ViewDefinition(name="d", op="count", where=("Delay > 96",)))
        cat.create(ViewDefinition(
            name="m", op="mean", group_by="Quarter", column="Delay"
        ))
        cat.refresh(zstore)
        return cat

    def test_create_logs_no_info_record(self, tmp_path, caplog):
        """Registering is routine: ``repro-gdelt view create`` prints its
        own line, and a fuzz run registering hundreds of views must not
        bury its summary under INFO records."""
        import logging

        with caplog.at_level(logging.INFO):
            ViewCatalog(tmp_path).create(
                ViewDefinition(name="d", op="count", where=("Delay > 96",))
            )
        assert not [r for r in caplog.records if r.levelno >= logging.INFO]

    def test_restart_restores_values_without_rescan(self, tmp_path, zstore):
        cat = self._build(tmp_path, zstore)
        before = {name: cat.get(name).value() for name in cat.names()}
        reloaded = ViewCatalog(tmp_path)
        assert reloaded.names() == ["d", "m"]
        for name, want in before.items():
            state = reloaded.get(name)
            assert state.refresh_count >= 1
            assert state.last_source == "manual"
            assert_same_value(state.value(), want)
        # Recovered state never serves until a refresh re-anchors it to
        # a live store (store tokens are process-local).  Pins are
        # process-wide, so the first catalog's views go first.
        for name in cat.names():
            cat.drop(name)
        n = zstore.n_rows("mentions")
        op = ExecutableOp(
            zstore, "mentions", TerminalSpec("count"), col("Delay") > 96,
            slice(0, n),
        )
        assert source_of(op) == ("scan", None)
        # Re-anchoring is a zero-row extension, not a rebuild.
        summary = reloaded.refresh(zstore, assume_prefix=True)
        for info in summary.values():
            assert info["error"] is None and not info["rebuilt"]
            assert info["delta_rows"] == 0
        assert source_of(op) == ("view", "d")

    def test_corrupt_state_file_discarded_and_rebuilt(self, tmp_path, zstore):
        cat = self._build(tmp_path, zstore)
        want = cat.get("d").value()
        (tmp_path / "state" / "d.json").write_text("{ truncated garbage")
        reloaded = ViewCatalog(tmp_path)
        # Still registered (definition survives via catalog.json) but
        # needs a rebuild; the undamaged view kept its state.
        assert reloaded.names() == ["d", "m"]
        assert reloaded.get("d").refresh_count == 0
        assert reloaded.get("m").refresh_count >= 1
        reloaded.refresh(zstore)
        assert reloaded.get("d").value() == want

    def test_corrupt_catalog_recovers_from_state_files(self, tmp_path, zstore):
        cat = self._build(tmp_path, zstore)
        before = {name: cat.get(name).value() for name in cat.names()}
        (tmp_path / "catalog.json").write_text("not json at all")
        reloaded = ViewCatalog(tmp_path)
        assert reloaded.names() == ["d", "m"]
        for name, want in before.items():
            assert_same_value(reloaded.get(name).value(), want)

    def test_version_1_state_is_discarded_and_rebuilt(self, tmp_path, zstore):
        """A state file of the per-chunk format (version 1, ``segments``)
        is discarded at load and the first refresh rebuilds the view."""
        cat = self._build(tmp_path, zstore)
        path = tmp_path / "state" / "d.json"
        doc = json.loads(path.read_text())
        doc["version"] = 1
        doc["segments"] = [{"rows": [0, doc["store"]["rows"]],
                            "part": doc.pop("partial")}]
        path.write_text(json.dumps(doc))
        before = telemetry.flight().counts().get("view_state_discarded", 0)
        reloaded = ViewCatalog(tmp_path)
        assert telemetry.flight().counts()["view_state_discarded"] == before + 1
        assert reloaded.names() == ["d", "m"]
        assert reloaded.get("d").refresh_count == 0
        summary = reloaded.refresh(zstore)
        assert summary["d"]["rebuilt"]
        assert reloaded.get("d").value() == (
            zstore.query("mentions").filter(col("Delay") > 96).count().value
        )

    def test_damaged_partial_is_discarded_at_load(self, tmp_path, zstore):
        cat = self._build(tmp_path, zstore)
        cat.create(ViewDefinition(name="avg", op="mean", column="Delay"))
        cat.refresh(zstore, name="avg")
        path = tmp_path / "state" / "avg.json"
        doc = json.loads(path.read_text())
        doc["partial"] = doc["partial"][:1]  # [n, sum] cut to [n]
        path.write_text(json.dumps(doc))
        reloaded = ViewCatalog(tmp_path)
        assert reloaded.get("avg").refresh_count == 0  # discarded, will rebuild
        assert reloaded.get("d").refresh_count >= 1

    def test_drop_removes_state_file(self, tmp_path, zstore):
        cat = self._build(tmp_path, zstore)
        cat.drop("d")
        assert not (tmp_path / "state" / "d.json").exists()
        assert ViewCatalog(tmp_path).names() == ["m"]


class TestServeIntegration:
    @pytest.fixture()
    def served(self, zstore):
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="delayed", op="count",
                                  where=("Delay > 96",)))
        cat.create(ViewDefinition(
            name="by-quarter", op="mean", group_by="Quarter", column="Delay"
        ))
        cat.refresh(zstore)
        svc = QueryService(zstore, workers=2, views=cat)
        yield svc, cat
        svc.close(drain=False)

    def test_matching_request_served_from_view(self, served, zstore):
        svc, cat = served
        resp = svc.query("mentions", op="count", where=col("Delay") > 96)
        assert resp.status == "ok"
        assert resp.stats["source"] == "view"
        assert resp.stats["view"] == "delayed"
        direct = zstore.query("mentions").filter(col("Delay") > 96).count()
        assert resp.value == direct.value
        assert svc.stats()["view_hits"] >= 1

    def test_grouped_request_byte_identical(self, served, zstore):
        svc, _cat = served
        resp = svc.query(
            "mentions", op="mean", group_by="Quarter", column="Delay"
        )
        assert resp.stats["source"] == "view"
        want = zstore.query("mentions").group_by("Quarter").mean("Delay").value
        assert_same_value(np.asarray(resp.value), want)

    def test_non_matching_request_scans(self, served):
        svc, _cat = served
        resp = svc.query("mentions", op="count", where=col("Delay") > 42)
        assert resp.status == "ok"
        assert resp.stats["source"] == "scan"

    @pytest.mark.parametrize("skip, source", [(0, "view"), (1, "scan")])
    def test_time_range_served_only_when_it_covers_the_table(
        self, served, zstore, skip, source
    ):
        """A time range covering every row compiles to the whole table's
        row range, so its request key is the view's; a strict window's
        is not."""
        svc, _cat = served
        iv = zstore.mentions["MentionInterval"]
        lo, hi = int(iv[0]) + skip, int(iv[-1]) + 1
        resp = svc.query(
            "mentions", op="count", where=col("Delay") > 96, time_range=(lo, hi)
        )
        assert resp.stats["source"] == source
        direct = (
            zstore.query("mentions").time_range(lo, hi)
            .filter(col("Delay") > 96).count()
        )
        assert resp.value == direct.value

    def test_partials_request_never_view_served(self, served):
        svc, _cat = served
        resp = svc.query(
            "mentions", op="count", where=col("Delay") > 96, partials=True
        )
        assert resp.status == "ok"
        assert resp.stats["source"] == "scan"

    def test_stale_view_falls_through_to_scan(self, tiny_arrays):
        events, mentions, dicts = tiny_arrays
        store_a = GdeltStore.from_arrays(events, mentions, dicts)
        store_b = GdeltStore.from_arrays(events, mentions, dicts)
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="c", op="count"))
        cat.refresh(store_a)  # fresh for store_a, not store_b
        svc = QueryService(store_b, workers=1, views=cat)
        try:
            resp = svc.query("mentions", op="count")
            assert resp.status == "ok"
            assert resp.stats["source"] == "scan"
            assert resp.value == store_b.n_rows("mentions")
        finally:
            svc.close(drain=False)


def land(raw_dir, stage, lines) -> None:
    """Copy ``lines``' archives into the mirror and list them."""
    for line in lines:
        name = line.split(" ")[2].rsplit("/", 1)[-1]
        shutil.copy(raw_dir / name, stage / name)
    master = (stage / "masterfilelist.txt").read_text()
    (stage / "masterfilelist.txt").write_text(master + "\n".join(lines) + "\n")


class TestRefresher:
    """The lifecycle refreshes its catalog before each publication."""

    def test_publications_drive_incremental_refreshes(self, raw_dir, tmp_path):
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.5)
        follower = LiveFollower(stage)
        follower.poll()
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="total", op="count"))
        lc = StoreLifecycle(follower.snapshot(), follower=follower, views=cat)
        svc = QueryService(lifecycle=lc, views=cat, workers=1)
        try:
            with lc.pin() as lease:
                assert cat.get("total").value() == lease.store.n_rows("mentions")

            land(raw_dir, stage, late)
            grown = lc.poll()
            assert grown.ok and grown.changed
            assert not grown.views["total"]["rebuilt"]
            # No wait: the generation was published with its views fresh.
            resp = svc.query("mentions", op="count")
            assert resp.status == "ok" and resp.stats["source"] == "view"
            with lc.pin() as lease:
                assert resp.value == lease.store.query("mentions").count().value
            assert cat.get("total").last_delta_rows > 0  # extended, not rebuilt
        finally:
            svc.close(drain=False)
            lc.close()

    def test_path_reload_rebuilds(self, tiny_arrays, tmp_path):
        from repro.storage.gdelt import write_gdelt_dataset

        events, mentions, dicts = tiny_arrays
        db = tmp_path / "db"
        write_gdelt_dataset(db, events, mentions, dicts)
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="total", op="count"))
        lc = StoreLifecycle(GdeltStore.open(db), reload_path=db, views=cat)
        svc = QueryService(lifecycle=lc, views=cat, workers=1)
        try:
            result = lc.reload()
            assert result.ok and result.changed
            assert result.views["total"]["rebuilt"]
            resp = svc.query("mentions", op="count")
            assert resp.stats["source"] == "view"
            assert resp.value == len(mentions["MentionInterval"])
        finally:
            svc.close(drain=False)
            lc.close()

    def test_failing_view_never_blocks_publication(self, raw_dir, tmp_path):
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.5)
        follower = LiveFollower(stage)
        follower.poll()
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="total", op="count"))
        cat.create(ViewDefinition(name="bad", op="sum", column="NoSuchColumn"))
        lc = StoreLifecycle(follower.snapshot(), follower=follower, views=cat)
        try:
            assert cat.get("bad").last_error is not None
            land(raw_dir, stage, late)
            grown = lc.poll()
            assert grown.ok and grown.changed
            assert lc.generation == 2
            assert grown.views["bad"]["error"]
            assert cat.get("bad").last_error == grown.views["bad"]["error"]
            assert grown.views["total"]["error"] is None
            with lc.pin() as lease:
                n = lease.store.n_rows("mentions")
                op = ExecutableOp(
                    lease.store, "mentions", TerminalSpec("count"), None,
                    slice(0, n),
                )
                assert source_of(op) == ("view", "total")
            # Its refresh never folded, so it has no request key to serve.
            assert cat.get("bad").refresh_count == 0
        finally:
            lc.close()

    def test_views_record_the_refresh_source(
        self, raw_dir, tmp_path, tiny_arrays
    ):
        from repro.storage.gdelt import write_gdelt_dataset

        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.5)
        follower = LiveFollower(stage)
        follower.poll()
        db = tmp_path / "db"
        write_gdelt_dataset(db, *tiny_arrays)
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="total", op="count"))
        lc = StoreLifecycle(follower.snapshot(), follower=follower, views=cat)
        try:
            assert cat.get("total").last_source == "initial"
            land(raw_dir, stage, late)
            assert lc.poll().changed
            assert cat.get("total").last_source == "poll"
            assert lc.reload(db).ok
            assert cat.snapshot()["views"]["total"]["last_source"] == "reload"
        finally:
            lc.close()


class TestSubscriptions:
    @pytest.fixture()
    def serving_stack(self, zstore):
        cat = ViewCatalog(None)
        cat.create(ViewDefinition(name="total", op="count"))
        cat.refresh(zstore)
        svc = QueryService(zstore, workers=1, views=cat)
        server = ServeServer(svc, port=0)
        yield server, cat, zstore
        server.close()
        svc.close(drain=False)

    def test_subscribe_replays_then_pushes(self, serving_stack, tiny_arrays):
        server, cat, zstore = serving_stack
        events, mentions, dicts = tiny_arrays
        with ViewSubscription(server.host, server.port, ["total"]) as sub:
            replay = sub.get(timeout=10.0)
            assert replay is not None and replay["view"] == "total"
            assert replay["replay"] is True
            assert replay["value"] == zstore.n_rows("mentions")
            # A changing refresh pushes a new frame with a higher seq.
            store_b = GdeltStore.from_arrays(events, mentions, dicts)
            cat.refresh(store_b, assume_prefix=False)
            update = sub.get(timeout=10.0)
            assert update is not None
            assert update["seq"] > replay["seq"]
            assert "replay" not in update

    def test_unknown_view_is_fatal(self, serving_stack):
        server, _cat, _zstore = serving_stack
        with ViewSubscription(server.host, server.port, ["nope"]) as sub:
            with pytest.raises(ConnectionError, match="subscribe rejected"):
                sub.get(timeout=10.0)

    def test_reconnect_resubscribes_losslessly(
        self, serving_stack, tiny_arrays
    ):
        server, cat, _zstore = serving_stack
        events, mentions, dicts = tiny_arrays
        with ViewSubscription(server.host, server.port, ["total"]) as sub:
            first = sub.get(timeout=10.0)
            assert first is not None
            # Kill the transport under the subscriber; the server-side
            # connection dies, the client redials and resubscribes.
            sub._sock.shutdown(socket.SHUT_RDWR)
            store_b = GdeltStore.from_arrays(events, mentions, dicts)
            cat.refresh(store_b, assume_prefix=False)
            update = sub.get(timeout=10.0)
            assert update is not None
            assert update["seq"] > first["seq"]
            assert sub.reconnects >= 1

    def test_unsubscribe_stops_updates(self, serving_stack, tiny_arrays):
        server, cat, _zstore = serving_stack
        events, mentions, dicts = tiny_arrays
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10.0
        ) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b'{"kind": "subscribe", "views": ["total"]}\n')
            assert json.loads(reader.readline())["status"] == "ok"
            frame = json.loads(reader.readline())  # replay
            assert frame["kind"] == "view_update"
            conn.sendall(b'{"kind": "unsubscribe", "views": ["total"]}\n')
            reply = json.loads(reader.readline())
            assert reply["status"] == "ok" and reply["subscribed"] == []
            store_b = GdeltStore.from_arrays(events, mentions, dicts)
            cat.refresh(store_b, assume_prefix=False)
            conn.sendall(b'{"kind": "ping"}\n')
            # The very next frame is the pong: no update was pushed.
            assert json.loads(reader.readline())["pong"] is True

    def test_subscribe_without_catalog_is_bad_request(self, zstore):
        svc = QueryService(zstore, workers=1)  # no views
        try:
            with ServeServer(svc, port=0) as server:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10.0
                ) as conn:
                    reader = conn.makefile("rb")
                    conn.sendall(b'{"kind": "subscribe", "views": ["x"]}\n')
                    reply = json.loads(reader.readline())
                    assert reply["status"] == "error"
                    assert reply["reason"] == "BAD_REQUEST"
        finally:
            svc.close(drain=False)


class TestAcceptance:
    """The end-to-end scenario: a live-followed mirror with >= 3
    incremental refreshes, one checksum-quarantined chunk and one
    catalog restart — byte-identity throughout."""

    def test_live_mirror_full_story(self, raw_dir, tmp_path):
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.4)
        # One of the late archives arrives corrupted: checksum
        # verification quarantines it before parsing.
        batches = [late[: len(late) // 3],
                   late[len(late) // 3: 2 * len(late) // 3],
                   late[2 * len(late) // 3:]]
        assert all(batches)

        follower = LiveFollower(stage, verify_checksums=True)
        follower.poll()
        root = tmp_path / "views"
        cat = ViewCatalog(root)
        cat.create(ViewDefinition(name="delayed", op="count",
                                  where=("Delay > 96",)))
        cat.create(ViewDefinition(
            name="by-quarter", op="sum", group_by="Quarter", column="Delay"
        ))
        # Construction refreshes the views against the initial store.
        lc = StoreLifecycle(follower.snapshot(), follower=follower, views=cat)

        def check_identity():
            with lc.pin() as lease:
                s = lease.store
                assert cat.get("delayed").value() == (
                    s.query("mentions").filter(col("Delay") > 96).count().value
                )
                assert_same_value(
                    cat.get("by-quarter").value(),
                    s.query("mentions").group_by("Quarter").sum("Delay").value,
                )

        try:
            check_identity()

            for i, batch in enumerate(batches):
                for line in batch:
                    name = line.split(" ")[2].rsplit("/", 1)[-1]
                    shutil.copy(raw_dir / name, stage / name)
                if i == 1:  # poison one archive of the middle batch
                    victim = batch[0].split(" ")[2].rsplit("/", 1)[-1]
                    (stage / victim).write_bytes(
                        (stage / victim).read_bytes() + b"trailing garbage"
                    )
                master = (stage / "masterfilelist.txt").read_text()
                (stage / "masterfilelist.txt").write_text(
                    master + "\n".join(batch) + "\n"
                )
                result = lc.poll()
                assert result.ok and result.changed
                summary = result.views
                assert set(summary) == set(cat.names())
                for name, info in summary.items():
                    assert info["error"] is None
                    assert not info["rebuilt"], (
                        f"refresh {i}: {name} rebuilt instead of extending"
                    )
                check_identity()
            assert follower.report.checksum_mismatch == 1
            assert cat.get("delayed").refresh_count >= 4  # initial + 3 deltas

            # Crash-recovery restart: a fresh catalog over the same root
            # resumes from the persisted partials, byte-identical, and
            # re-anchors with a zero-row extension.
            before = {n: cat.get(n).value() for n in cat.names()}
            reloaded = ViewCatalog(root)
            for name, want in before.items():
                assert_same_value(reloaded.get(name).value(), want)
            with lc.pin() as lease:
                summary = reloaded.refresh(lease.store, assume_prefix=True)
            for info in summary.values():
                assert info["error"] is None and not info["rebuilt"]
                assert info["delta_rows"] == 0
        finally:
            lc.close()
