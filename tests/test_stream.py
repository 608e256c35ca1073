"""Live-follower streaming ingest."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import faults
from repro.engine import GdeltStore
from repro.ingest import LiveFollower, RetryPolicy, convert_raw_to_binary
from repro.obs import metrics as _metrics
from repro.storage.gdelt import write_gdelt_dataset
from repro.synth import CorruptionPlan, inject_corruption, write_raw_archives
from tests.conftest import manifest_crcs

NO_FAULTS = faults.FaultPlan()  # masks any session-level chaos plan


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

    def test_unverified_follower_accepts_same_bytes(self, raw_dir):
        follower = LiveFollower(raw_dir, verify_checksums=False)
        result = follower.poll()
        assert not result.idle
        assert follower.report.checksum_mismatch == 0


class TestInterleavedSnapshots:
    def test_poll_snapshot_interleaving_is_monotone(self, raw_dir, tmp_path):
        """snapshot / poll / snapshot / poll: every snapshot is a
        consistent superset of the previous one."""
        stage = tmp_path / "mirror"
        late = split_mirror(raw_dir, stage, 0.34)
        follower = LiveFollower(stage)

        counts = []
        publish_at = [len(late) * 2 // 3, len(late) // 3, 0]
        remaining = list(late)
        while True:
            follower.poll()
            snap = follower.snapshot()
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
