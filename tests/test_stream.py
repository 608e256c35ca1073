"""Live-follower streaming ingest."""

from __future__ import annotations

import hashlib
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults
from repro.engine import GdeltStore
from repro.gdelt.csv_io import (
    chunk_member,
    event_columns,
    mention_columns,
    write_chunk_zip,
)
from repro.gdelt.masterlist import parse_master_list
from repro.gdelt.schema import EVENTS_SCHEMA, MENTIONS_SCHEMA, field_index
from repro.gdelt.time_util import timestamp_to_interval
from repro.ingest import LiveFollower, RetryPolicy, convert_raw_to_binary
from repro.obs import metrics as _metrics
from repro.storage.gdelt import write_gdelt_dataset
from repro.synth import CorruptionPlan, inject_corruption, write_raw_archives
from tests.conftest import column_rows, manifest_crcs

NO_FAULTS = faults.FaultPlan()  # masks any session-level chaos plan


def store_arrays(store) -> dict[str, np.ndarray]:
    """Every column and dictionary array of a store, by name."""
    arrays = {
        f"{table}/{name}": arr
        for table in ("events", "mentions")
        for name, arr in store.table(table).items()
    }
    for name, d in store.dictionaries().items():
        arrays[f"dict/{name}.offsets"], arrays[f"dict/{name}.blob"] = d.arrays
    return arrays


def digests(store) -> dict[str, str]:
    return {
        name: hashlib.sha256(arr.tobytes()).hexdigest()
        for name, arr in store_arrays(store).items()
    }


def stage_lines(raw_dir, stage, lines: list[str]) -> None:
    """Append master ``lines`` to ``stage``'s list and copy in whichever
    archives they name exist in ``raw_dir`` (malformed lines and missing
    archives included, as a dirty mirror has them)."""
    stage.mkdir(parents=True, exist_ok=True)
    for ref in parse_master_list("\n".join(lines)).chunks:
        name = ref.entry.url.rsplit("/", 1)[-1]
        if (raw_dir / name).exists():
            shutil.copy(raw_dir / name, stage / name)
    master = stage / "masterfilelist.txt"
    old = master.read_text() if master.exists() else ""
    master.write_text(old + "\n".join(lines) + "\n")


def assert_snapshots_equal_batch(raw_dir, tmp_path, parts: int = 3) -> None:
    """Publish ``raw_dir``'s master list in ``parts`` steps; after each
    poll the snapshot, written by the one dataset writer, must be file
    for file the batch conversion of the mirror as it stands."""
    lines = (raw_dir / "masterfilelist.txt").read_text().splitlines()
    stage = tmp_path / "mirror"
    follower = None
    for i in range(parts):
        stage_lines(raw_dir, stage, lines[i * len(lines) // parts:(i + 1) * len(lines) // parts])
        follower = follower or LiveFollower(stage)
        follower.poll()
        snap = follower.snapshot()
        write_gdelt_dataset(
            tmp_path / f"snap{i}", snap.events, snap.mentions, snap.dictionaries()
        )
        batch = convert_raw_to_binary(stage, tmp_path / f"db{i}")
        assert manifest_crcs(tmp_path / f"snap{i}") == manifest_crcs(batch.dataset_dir), i


def split_mirror(raw_dir, stage_dir, fraction: float) -> list[str]:
    """Create a mirror containing only the first ``fraction`` of chunks.

    Returns the list of remaining (not yet published) master lines.
    """
    stage_dir.mkdir(exist_ok=True)
    master = (raw_dir / "masterfilelist.txt").read_text().splitlines()
    cut = int(len(master) * fraction)
    early, late = master[:cut], master[cut:]
    for line in early:
        name = line.split(" ")[2].rsplit("/", 1)[-1]
        shutil.copy(raw_dir / name, stage_dir / name)
    (stage_dir / "masterfilelist.txt").write_text("\n".join(early) + "\n")
    return late


class TestLiveFollower:
    def test_incremental_ingest_matches_batch(self, raw_ds, raw_dir, tmp_path):
        """Two-stage publication must converge to the batch conversion."""
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.5)

        follower = LiveFollower(stage)
        r1 = follower.poll()
        assert not r1.idle
        assert follower.n_mentions < raw_ds.n_articles

        # Second poll with nothing new: idle.
        assert follower.poll().idle

        # Publish the rest.
        for line in late:
            name = line.split(" ")[2].rsplit("/", 1)[-1]
            shutil.copy(raw_dir / name, stage / name)
        master = (stage / "masterfilelist.txt").read_text()
        (stage / "masterfilelist.txt").write_text(master + "\n".join(late) + "\n")

        r2 = follower.poll()
        assert not r2.idle
        assert follower.n_events == raw_ds.n_events
        assert follower.n_mentions == raw_ds.n_articles

    def test_snapshot_equals_batch_store(self, raw_ds, raw_dir, tmp_path):
        follower = LiveFollower(raw_dir)
        follower.poll()
        snap = follower.snapshot()

        batch = convert_raw_to_binary(raw_dir, tmp_path / "db")
        store = GdeltStore.open(batch.dataset_dir)

        assert snap.n_events == store.n_events
        assert snap.n_mentions == store.n_mentions
        assert np.array_equal(
            snap.events["GlobalEventID"],
            np.asarray(store.events["GlobalEventID"]),
        )
        for colname in ("MentionInterval", "Delay"):
            assert np.array_equal(
                np.sort(snap.mentions[colname]),
                np.sort(np.asarray(store.mentions[colname])),
            )
        # On disk too: converting a mirror is writing the drained
        # follower's snapshot with the one dataset writer, file for file.
        write_gdelt_dataset(
            tmp_path / "snap", snap.events, snap.mentions, snap.dictionaries()
        )
        assert manifest_crcs(tmp_path / "snap") == manifest_crcs(batch.dataset_dir)

        # Intermediate snapshots too, of a clean and of a dirty mirror.
        assert_snapshots_equal_batch(raw_dir, tmp_path / "clean")
        dirty = tmp_path / "dirty-raw"
        write_raw_archives(raw_ds, dirty, chunk_intervals=96)
        inject_corruption(dirty, CorruptionPlan(
            malformed_master_entries=7, missing_archives=3,
            missing_source_urls=2, future_event_dates=4, seed=5,
        ))
        assert_snapshots_equal_batch(dirty, tmp_path / "dirty")

    def test_out_of_order_landing_is_a_stable_sort(self, raw_dir, tmp_path):
        """An archive pair that lands after later ones merges into the
        sorted prefix exactly where a stable sort over ingest order puts
        its rows; the snapshot taken before it landed does not change."""
        stage = tmp_path / "mirror"
        split_mirror(raw_dir, stage, 1.0)
        refs = sorted(
            parse_master_list((stage / "masterfilelist.txt").read_text()).chunks,
            key=lambda c: (c.interval, c.kind),
        )
        names = [ref.entry.url.rsplit("/", 1)[-1] for ref in refs]
        held = names[2:4]  # one interval's events + mentions pair
        hold = tmp_path / "held"
        hold.mkdir()
        for name in held:
            shutil.move(stage / name, hold / name)
        follower = LiveFollower(stage)
        follower.poll()
        before = follower.snapshot()
        taken = digests(before)
        for name in held:
            shutil.move(hold / name, stage / name)
        assert follower.poll().new_chunks == 2
        snap = follower.snapshot()

        # The reference: the same archives parsed in the follower's order,
        # then Python's (stable) sort by each table's key.
        events, mentions = [], []
        for name in [n for n in names if n not in held] + held:
            member = chunk_member((stage / name).read_bytes())
            is_event = ".export." in name
            columns, bad = (event_columns if is_event else mention_columns)(member)
            assert bad == []
            (events if is_event else mentions).extend(
                SimpleNamespace(**row) for row in column_rows(columns)
            )
        ev = sorted(events, key=lambda e: e.global_event_id)
        mt = sorted(mentions, key=lambda m: timestamp_to_interval(m.mention_time))
        # The held rows really interleave with the earlier ones.
        assert min(e.global_event_id for e in events[before.n_events:]) < (
            before.events["GlobalEventID"][-1]
        )
        assert min(
            timestamp_to_interval(m.mention_time) for m in mentions[before.n_mentions:]
        ) < before.mentions["MentionInterval"][-1]

        dicts = snap.dictionaries()
        assert snap.events["GlobalEventID"].tolist() == [e.global_event_id for e in ev]
        assert snap.events["NumArticles"].tolist() == [e.num_articles for e in ev]
        assert [dicts["event_urls"][c] for c in snap.events["SourceURLId"]] == [
            e.source_url for e in ev
        ]
        assert [dicts["countries"][c] for c in snap.events["CountryCode"]] == [
            e.action_geo_country for e in ev
        ]
        assert snap.mentions["GlobalEventID"].tolist() == [m.global_event_id for m in mt]
        assert snap.mentions["MentionInterval"].tolist() == [
            timestamp_to_interval(m.mention_time) for m in mt
        ]
        assert snap.mentions["Confidence"].tolist() == [m.confidence for m in mt]
        assert [dicts["sources"][c] for c in snap.mentions["SourceId"]] == [
            m.source_name for m in mt
        ]
        assert [dicts["mention_urls"][c] for c in snap.mentions["UrlId"]] == [
            m.identifier for m in mt
        ]
        # Dictionary codes are first occurrences in ingest order.
        assert list(dicts["sources"]) == list(dict.fromkeys(m.source_name for m in mentions))
        assert list(dicts["countries"]) == list(
            dict.fromkeys([""] + [e.action_geo_country for e in events])
        )
        assert digests(before) == taken

    def test_snapshots_are_queryable(self, raw_dir):
        from repro.analysis import dataset_statistics, top_publishers

        follower = LiveFollower(raw_dir)
        follower.poll()
        snap = follower.snapshot()
        stats = dataset_statistics(snap)
        assert stats.n_articles == snap.n_mentions
        assert len(top_publishers(snap, 5)) == 5

    def test_snapshot_grows_monotonically(self, raw_dir, tmp_path):
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.3)
        follower = LiveFollower(stage)
        follower.poll()
        n1 = follower.snapshot().n_mentions
        for line in late:
            name = line.split(" ")[2].rsplit("/", 1)[-1]
            shutil.copy(raw_dir / name, stage / name)
        (stage / "masterfilelist.txt").write_text(
            (stage / "masterfilelist.txt").read_text() + "\n".join(late) + "\n"
        )
        follower.poll()
        n2 = follower.snapshot().n_mentions
        assert n2 > n1

    def test_missing_archive_retried_then_recorded(self, raw_dir, tmp_path):
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.5)
        # Reference everything in the master list but only ship half.
        (stage / "masterfilelist.txt").write_text(
            (stage / "masterfilelist.txt").read_text() + "\n".join(late) + "\n"
        )
        follower = LiveFollower(stage)
        follower.poll()
        # Missing chunks are not failures yet (they may arrive late)...
        assert follower.report.missing_archives == 0
        # ...but a publish of one makes the next poll pick it up.
        name = late[0].split(" ")[2].rsplit("/", 1)[-1]
        shutil.copy(raw_dir / name, stage / name)
        r = follower.poll()
        assert r.new_chunks == 1
        # End-of-run audit records the permanently missing ones.
        n = follower.finalize_missing()
        assert n == len(late) - 1
        assert follower.report.missing_archives == n

    def test_empty_mirror(self, tmp_path):
        follower = LiveFollower(tmp_path)
        assert follower.poll().idle
        assert follower.finalize_missing() == 0

    def test_corrupt_chunk_recorded(self, raw_dir, tmp_path):
        stage = tmp_path / "mirror"
        split_mirror(raw_dir, stage, 0.2)
        victim = sorted(stage.glob("*.zip"))[0]
        victim.write_bytes(b"garbage")
        follower = LiveFollower(stage)
        follower.poll()
        assert follower.report.corrupt_archives == 1


    def test_permanent_faults_quarantine_like_batch(self, raw_ds, tmp_path):
        """The live path goes through the retrying fetcher and its
        ``fetch.read`` fault site: under permanent read faults a drained
        follower and a batch conversion lose exactly the same archives."""
        raw = tmp_path / "raw"
        write_raw_archives(raw_ds, raw, chunk_intervals=96)
        inject_corruption(raw, CorruptionPlan(
            malformed_master_entries=7, missing_archives=3,
            missing_source_urls=2, future_event_dates=4, seed=5,
        ))
        plan = faults.FaultPlan.parse("seed=3;fetch.read:permanent:prob=0.2")
        with faults.active(plan):
            follower = LiveFollower(raw)
            while not follower.poll().idle:
                pass
            follower.finalize_missing()
            batch = convert_raw_to_binary(raw, tmp_path / "db", checkpoint=False)
        assert batch.report.quarantined_archives > 0
        assert (
            follower.report.quarantined_archives
            == batch.report.quarantined_archives
        )
        assert follower.report.as_table() == batch.report.as_table()

        snap = follower.snapshot()
        store = GdeltStore.open(batch.dataset_dir)
        for table in ("events", "mentions"):
            assert list(snap.table(table)) == list(store.table(table))
            for colname, arr in snap.table(table).items():
                assert np.array_equal(arr, store.table(table)[colname]), colname
        on_disk = store.dictionaries()
        assert sorted(on_disk) == sorted(snap.dictionaries())
        for name, d in snap.dictionaries().items():
            assert list(d) == list(on_disk[name]), name

    def test_transient_faults_are_retried(self, raw_ds, raw_dir):
        plan = faults.FaultPlan.parse("fetch.read:transient:fail_attempts=1")
        retries = _metrics.counter("ingest_retries_total")
        before = retries.value
        follower = LiveFollower(
            raw_dir, retry_policy=RetryPolicy(sleep=lambda s: None)
        )
        with faults.active(plan) as inj:
            follower.poll()
        injected = inj.receipt.count(site="fetch.read", kind="transient")
        assert injected > 0
        assert retries.value - before == injected
        assert follower.report.total() == 0  # nothing quarantined or lost
        assert follower.n_events == raw_ds.n_events
        assert follower.n_mentions == raw_ds.n_articles


def set_first_row_field(archive, schema, field: str, value: str) -> None:
    """Rewrite ``field`` of the first row of one chunk archive."""
    lines = chunk_member(archive.read_bytes()).decode("utf-8").split("\n")
    row = lines[0].split("\t")
    row[field_index(schema, field)] = value
    lines[0] = "\t".join(row)
    write_chunk_zip(archive, archive.name.removesuffix(".zip"), "\n".join(lines).encode("utf-8"))


class TestOutOfRangeRows:
    def test_out_of_range_integers_are_bad_rows(self, raw_dir, tmp_path):
        """An integer that does not fit its column is a bad row at parse
        time: it must not poison every later snapshot and conversion."""
        stage = tmp_path / "mirror"
        split_mirror(raw_dir, stage, 1.0)
        set_first_row_field(
            sorted(stage.glob("*.export.CSV.zip"))[1], EVENTS_SCHEMA, "EventRootCode", "300"
        )
        set_first_row_field(
            sorted(stage.glob("*.mentions.CSV.zip"))[1], MENTIONS_SCHEMA, "Confidence", "70000"
        )
        follower = LiveFollower(stage)
        follower.poll()
        snap = follower.snapshot()
        report = follower.report
        assert report.bad_event_rows == report.bad_mention_rows == 1
        assert "EventRootCode 300 out of range" in report.examples["bad_event_rows"][0]
        assert "Confidence 70000 out of range" in report.examples["bad_mention_rows"][0]

        batch = convert_raw_to_binary(stage, tmp_path / "db")
        assert batch.report == report
        write_gdelt_dataset(
            tmp_path / "snap", snap.events, snap.mentions, snap.dictionaries()
        )
        assert manifest_crcs(tmp_path / "snap") == manifest_crcs(batch.dataset_dir)

    def test_far_future_timestamp_is_a_bad_row(self, raw_dir, tmp_path):
        """A stamp that fits int64 but whose interval does not fit the
        int32 interval column is a bad row, not a wrapped interval."""
        stage = tmp_path / "mirror"
        split_mirror(raw_dir, stage, 1.0)
        set_first_row_field(
            sorted(stage.glob("*.mentions.CSV.zip"))[1],
            MENTIONS_SCHEMA, "MentionTimeDate", "700000101000000",
        )
        follower = LiveFollower(stage)
        follower.poll()
        snap = follower.snapshot()
        assert follower.report.bad_mention_rows == 1
        (message,) = follower.report.examples["bad_mention_rows"]
        assert "MentionTimeDate 700000101000000 out of range" in message
        assert snap.mentions["MentionInterval"].min() >= 0
        assert snap.mentions["Delay"].min() >= 0


class TestChecksumVerification:
    def test_checksum_mismatch_skipped_before_parsing(self, raw_dir, tmp_path):
        """A staged archive whose bytes drifted from the master list's
        md5 must never reach the accumulators."""
        stage = tmp_path / "mirror"
        split_mirror(raw_dir, stage, 1.0)
        victim = sorted(p for p in stage.iterdir() if p.suffix == ".zip")[0]
        victim.write_bytes(victim.read_bytes() + b"trailing garbage")

        clean = LiveFollower(raw_dir, verify_checksums=True)
        clean.poll()
        tainted = LiveFollower(stage, verify_checksums=True)
        result = tainted.poll()
        assert not result.idle
        assert tainted.report.checksum_mismatch == 1
        assert victim.name in tainted.report.examples["checksum_mismatch"]
        # Fewer rows than the pristine mirror: the bad chunk was dropped
        # whole, not partially parsed.
        assert (
            tainted.n_events + tainted.n_mentions
            < clean.n_events + clean.n_mentions
        )

    def test_parses_the_bytes_it_verified(self, raw_dir, tmp_path, monkeypatch):
        """An archive replaced on disk right after its verified fetch is
        not read again: the rows come from the bytes whose md5 matched."""
        from repro.ingest import fetch

        stage = tmp_path / "mirror"
        split_mirror(raw_dir, stage, 1.0)
        names = sorted(p.name for p in stage.glob("*.mentions.CSV.zip"))
        victim, impostor = stage / names[0], raw_dir / names[1]
        fetch_once = fetch.LocalFetcher.fetch

        def fetch_then_swap(self, ref, report, attempt=0):
            result = fetch_once(self, ref, report, attempt)
            if result.path == victim:
                shutil.copy(impostor, victim)  # valid archive, other rows
            return result

        monkeypatch.setattr(fetch.LocalFetcher, "fetch", fetch_then_swap)
        follower = LiveFollower(stage, verify_checksums=True)
        follower.poll()
        clean = LiveFollower(raw_dir, verify_checksums=True)
        clean.poll()
        assert follower.report.total() == 0
        assert follower.n_mentions == clean.n_mentions
        assert digests(follower.snapshot()) == digests(clean.snapshot())

    def test_unverified_follower_accepts_same_bytes(self, raw_dir):
        follower = LiveFollower(raw_dir, verify_checksums=False)
        result = follower.poll()
        assert not result.idle
        assert follower.report.checksum_mismatch == 0


class TestInterleavedSnapshots:
    def test_poll_snapshot_interleaving_is_monotone(self, raw_dir, tmp_path):
        """snapshot / poll / snapshot / poll: every snapshot is a
        consistent superset of the previous one, and read-only views that
        later polls leave exactly as they were when taken."""
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.34)
        follower = LiveFollower(stage)

        counts, generations = [], []
        publish_at = [len(late) * 2 // 3, len(late) // 3, 0]
        remaining = list(late)
        while True:
            follower.poll()
            snap = follower.snapshot()
            generations.append((snap, digests(snap)))
            ev = snap.n_rows("events")
            mt = snap.n_rows("mentions")
            assert ev == follower.n_events and mt == follower.n_mentions
            counts.append((ev, mt))
            # A snapshot is a real store: queries run while the mirror
            # keeps growing underneath.
            assert snap.query("mentions").count().value == mt
            if not remaining:
                break
            cut = publish_at.pop(0)
            batch, remaining = remaining[:cut], remaining[cut:] if cut else (
                remaining, []
            )
            if cut == 0:
                batch, remaining = remaining, []
            for line in batch:
                name = line.split(" ")[2].rsplit("/", 1)[-1]
                shutil.copy(raw_dir / name, stage / name)
            master = (stage / "masterfilelist.txt").read_text()
            (stage / "masterfilelist.txt").write_text(
                master + "\n".join(batch) + "\n"
            )
        for (e0, m0), (e1, m1) in zip(counts, counts[1:]):
            assert e1 >= e0 and m1 >= m0
        assert counts[-1] > counts[0]
        for i, (snap, taken) in enumerate(generations):
            assert digests(snap) == taken, i
            for name, arr in store_arrays(snap).items():
                assert not arr.flags.writeable, (i, name)


class TestFinalizeMissing:
    def test_finalize_missing_is_idempotent(self, raw_dir, tmp_path):
        stage = tmp_path / "mirror"
        stage.mkdir()
        # Full master list, no archives at all: everything is missing.
        shutil.copy(raw_dir / "masterfilelist.txt", stage)
        follower = LiveFollower(stage)
        assert follower.poll().idle
        first = follower.finalize_missing()
        assert first > 0
        assert follower.report.missing_archives == first
        # Second audit: everything already recorded, nothing new.
        assert follower.finalize_missing() == 0
        assert follower.poll().idle  # missing entries are now seen

    def test_late_archive_not_recorded_after_it_arrives(
        self, raw_dir, tmp_path
    ):
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.9)
        follower = LiveFollower(stage)
        follower.poll()
        # The held-back archives arrive before the audit runs.
        for line in late:
            name = line.split(" ")[2].rsplit("/", 1)[-1]
            shutil.copy(raw_dir / name, stage / name)
        master = (stage / "masterfilelist.txt").read_text()
        (stage / "masterfilelist.txt").write_text(
            master + "\n".join(late) + "\n"
        )
        follower.poll()
        assert follower.finalize_missing() == 0
        assert follower.report.missing_archives == 0
