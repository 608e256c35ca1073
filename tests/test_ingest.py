"""Preprocessing pipeline: fetch, validate, convert — plus the key
equivalence property: converting exported raw archives must produce the
same logical dataset as the vectorized direct path."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import faults
from repro.engine import GdeltStore
from repro.ingest import LiveFollower, RetryPolicy, convert_raw_to_binary
from repro.ingest.direct import dataset_to_arrays, dataset_to_binary
from repro.ingest.validate import ProblemReport
from repro.storage.gdelt import write_gdelt_dataset
from repro.synth import CorruptionPlan, inject_corruption, write_raw_archives
from tests.conftest import manifest_crcs


@pytest.fixture(scope="module")
def converted(raw_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("converted") / "db"
    return convert_raw_to_binary(raw_dir, out)


def rewrite(dataset_dir, out_dir, compress=False):
    """Open a dataset and write it again through the one dataset writer."""
    store = GdeltStore.open(dataset_dir)
    write_gdelt_dataset(
        out_dir, store.events, store.mentions, store.dictionaries(),
        compress=compress, meta=store.dataset_meta,
    )
    return out_dir


class TestCleanConversion:
    def test_counts(self, converted, raw_ds):
        assert converted.n_events == raw_ds.n_events
        assert converted.n_mentions == raw_ds.n_articles

    def test_no_problems_on_clean_data(self, converted):
        assert converted.report.total() == 0

    def test_openable_as_store(self, converted):
        store = GdeltStore.open(converted.dataset_dir)
        assert store.n_events == converted.n_events
        assert store.n_mentions == converted.n_mentions
        # The sorted tables are the only index: none is written.
        assert not (converted.dataset_dir / "index").exists()
        manifest = (converted.dataset_dir / "manifest.json").read_text()
        assert "indexes" not in json.loads(manifest)

    def test_equivalent_to_direct_path(self, converted, raw_ds):
        """Raw TSV round trip and the vectorized fast path must agree on
        every queryable quantity (the converter's correctness proof)."""
        via_raw = GdeltStore.open(converted.dataset_dir)
        ev, mt, dicts = dataset_to_arrays(raw_ds, include_urls=True)
        direct = GdeltStore.from_arrays(ev, mt, dicts)

        assert np.array_equal(
            np.asarray(via_raw.events["GlobalEventID"]),
            direct.events["GlobalEventID"],
        )
        assert np.array_equal(
            np.asarray(via_raw.events["AddedInterval"]),
            direct.events["AddedInterval"],
        )
        assert np.array_equal(
            np.asarray(via_raw.events["NumArticles"]), direct.events["NumArticles"]
        )
        # Mentions are sorted by capture interval in both paths; within an
        # interval order may differ, so compare order-insensitive digests.
        for col in ("GlobalEventID", "EventInterval", "MentionInterval", "Delay"):
            a = np.sort(np.asarray(via_raw.mentions[col]))
            b = np.sort(direct.mentions[col])
            assert np.array_equal(a, b), col

        # Per-source article counts must match through the dictionaries.
        def source_counts(store):
            counts = np.bincount(
                store.mentions["SourceId"], minlength=store.n_sources
            )
            return {store.sources[i]: int(c) for i, c in enumerate(counts) if c}

        assert source_counts(via_raw) == source_counts(direct)

    def test_join_index_valid(self, converted):
        """On a converted dataset the id-sorted events table is the join
        index: every mention joins to the event row carrying its id."""
        store = GdeltStore.open(converted.dataset_dir)
        rows = store.mention_event_row()
        assert (rows >= 0).all()
        eids = np.asarray(store.events["GlobalEventID"])
        assert np.array_equal(eids[rows], store.mentions["GlobalEventID"])

    def test_event_country_agrees(self, converted, raw_ds):
        via_raw = GdeltStore.open(converted.dataset_dir)
        ev, mt, dicts = dataset_to_arrays(raw_ds)
        direct = GdeltStore.from_arrays(ev, mt, dicts)
        assert np.array_equal(
            via_raw.event_country_idx(), direct.event_country_idx()
        )


    @pytest.mark.parametrize("compress", [False, True])
    def test_open_then_write_is_file_identical(
        self, converted, raw_dir, tmp_path, compress
    ):
        src = converted.dataset_dir
        if compress:
            src = convert_raw_to_binary(
                raw_dir, tmp_path / "packed", compress=True
            ).dataset_dir
            assert manifest_crcs(src) != manifest_crcs(converted.dataset_dir)
        again = rewrite(src, tmp_path / "again", compress=compress)
        assert manifest_crcs(again) == manifest_crcs(src)
        assert GdeltStore.open(again).dataset_meta == GdeltStore.open(src).dataset_meta


class TestDirectBinary:
    def test_binary_equals_arrays(self, raw_ds, tmp_path):
        out = dataset_to_binary(raw_ds, tmp_path / "db", include_urls=True)
        via_disk = GdeltStore.open(out)
        ev, mt, dicts = dataset_to_arrays(raw_ds, include_urls=True)
        live = GdeltStore.from_arrays(ev, mt, dicts)
        for col in live.mentions:
            assert np.array_equal(
                np.asarray(via_disk.mentions[col]), live.mentions[col]
            ), col
        assert via_disk.event_url(0) == live.event_url(0)
        assert via_disk.mention_url(5) == live.mention_url(5)

    def test_without_urls(self, raw_ds, tmp_path):
        out = dataset_to_binary(raw_ds, tmp_path / "db2", include_urls=False)
        store = GdeltStore.open(out)
        assert store.event_url(0) is None
        assert store.mention_url(0) is None
        # No URL dictionary on disk, so no column is bound to one.
        assert sorted(store.dictionaries()) == ["countries", "sources"]
        bound = {
            c.name: c.dictionary
            for t in store._reader.manifest.tables
            for c in t.columns
            if c.dictionary is not None
        }
        assert bound == {"CountryCode": "countries", "SourceId": "sources"}

    @pytest.mark.parametrize("include_urls", [True, False])
    @pytest.mark.parametrize("compress", [False, True])
    def test_open_then_write_is_file_identical(
        self, raw_ds, tmp_path, include_urls, compress
    ):
        out = dataset_to_binary(
            raw_ds, tmp_path / "db", include_urls=include_urls, compress=compress
        )
        again = rewrite(out, tmp_path / "again", compress=compress)
        crcs = manifest_crcs(out)
        assert manifest_crcs(again) == crcs
        assert ("dict/mention_urls.blob" in crcs) == include_urls


class TestCorruptedConversion:
    @pytest.fixture(scope="class")
    def corrupt_setup(self, raw_ds, tmp_path_factory):
        raw = tmp_path_factory.mktemp("corrupt_raw")
        write_raw_archives(raw_ds, raw, chunk_intervals=96)
        plan = CorruptionPlan(
            malformed_master_entries=7,
            missing_archives=3,
            missing_source_urls=2,
            future_event_dates=4,
            seed=5,
        )
        receipt = inject_corruption(raw, plan)
        out = tmp_path_factory.mktemp("corrupt_db") / "db"
        result = convert_raw_to_binary(raw, out)
        return plan, receipt, result

    def test_receipt_matches_plan(self, corrupt_setup):
        plan, receipt, _ = corrupt_setup
        assert len(receipt.malformed_lines) == plan.malformed_master_entries
        assert len(receipt.deleted_archives) == plan.missing_archives
        assert len(receipt.blanked_event_ids) == plan.missing_source_urls
        assert len(receipt.future_dated_event_ids) == plan.future_event_dates

    def test_validator_finds_planted_defects(self, corrupt_setup):
        """The Table II experiment: found == planted, per class."""
        plan, _, result = corrupt_setup
        rep = result.report
        assert rep.malformed_master_entries == plan.malformed_master_entries
        assert rep.missing_archives == plan.missing_archives
        assert rep.missing_source_urls == plan.missing_source_urls
        assert rep.future_event_dates == plan.future_event_dates

    def test_conversion_still_succeeds(self, corrupt_setup, raw_ds):
        _, receipt, result = corrupt_setup
        # Rows from the 3 deleted archives are gone; everything else loads.
        assert 0 < result.n_events <= raw_ds.n_events
        assert 0 < result.n_mentions <= raw_ds.n_articles
        store = GdeltStore.open(result.dataset_dir)
        assert store.n_events == result.n_events


class TestProblemReport:
    def test_note_and_total(self):
        rep = ProblemReport()
        rep.note("missing_archives", "x.zip")
        rep.note("bad_event_rows", "row 7")
        assert rep.missing_archives == 1
        assert rep.total() == 2
        assert rep.examples["missing_archives"] == ["x.zip"]

    def test_example_cap(self):
        rep = ProblemReport()
        for i in range(100):
            rep.note("bad_mention_rows", f"row {i}")
        assert rep.bad_mention_rows == 100
        assert len(rep.examples["bad_mention_rows"]) == 20

    def test_as_table_has_four_paper_rows(self):
        assert len(ProblemReport().as_table()) == 4


class TestCorruptArchives:
    """Unreadable or checksum-failing archives are recorded, not fatal."""

    def test_bad_zip_recorded(self, raw_ds, tmp_path):
        from repro.synth import write_raw_archives

        raw = tmp_path / "raw"
        write_raw_archives(raw_ds, raw, chunk_intervals=96)
        victim = sorted(raw.glob("*.export.CSV.zip"))[0]
        victim.write_bytes(b"this is not a zip archive")
        result = convert_raw_to_binary(raw, tmp_path / "db")
        assert result.report.corrupt_archives == 1
        assert result.n_events < raw_ds.n_events
        assert result.n_events > 0

    def test_checksum_mismatch_skips_chunk(self, raw_ds, tmp_path):
        from repro.synth import write_raw_archives

        raw = tmp_path / "raw"
        write_raw_archives(raw_ds, raw, chunk_intervals=96)
        # Rewrite one archive with different (but valid) content so its
        # md5 no longer matches the master list.
        victim = sorted(raw.glob("*.mentions.CSV.zip"))[0]
        with zipfile.ZipFile(victim, "w") as zf:
            zf.writestr("x.mentions.CSV", "")
        result = convert_raw_to_binary(
            raw, tmp_path / "db", verify_checksums=True
        )
        assert result.report.checksum_mismatch == 1
        assert result.n_mentions < raw_ds.n_articles

    @pytest.mark.parametrize("damage", ["bad_crc", "not_utf8"])
    def test_unreadable_member_recorded(self, raw_ds, tmp_path, damage):
        """A zip that opens but whose member cannot be read as text is a
        corrupt archive, for the batch converter as for the follower."""
        raw = tmp_path / "raw"
        write_raw_archives(raw_ds, raw, chunk_intervals=96)
        victim = sorted(raw.glob("*.mentions.CSV.zip"))[0]
        DAMAGE[damage](victim)
        result = convert_raw_to_binary(raw, tmp_path / "db")
        assert result.report.corrupt_archives == 1
        assert result.report.examples["corrupt_archives"][0].startswith(f"{victim.name}: ")
        assert 0 < result.n_mentions < raw_ds.n_articles

    @pytest.mark.parametrize("damage", ["bad_crc", "not_utf8"])
    def test_follower_records_unreadable_member_and_keeps_polling(
        self, raw_ds, tmp_path, damage
    ):
        raw = tmp_path / "raw"
        write_raw_archives(raw_ds, raw, chunk_intervals=96)
        master = raw / "masterfilelist.txt"
        lines = master.read_text().splitlines(keepends=True)
        victim = raw / lines[0].split()[2].rsplit("/", 1)[-1]
        DAMAGE[damage](victim)
        master.write_text("".join(lines[:2]))
        follower = LiveFollower(raw)
        follower.poll()
        assert follower.report.corrupt_archives == 1
        master.write_text("".join(lines))  # the rest of the mirror lands
        assert follower.poll().new_chunks == len(lines) - 2
        assert follower.report.corrupt_archives == 1
        clean = convert_raw_to_binary(raw, tmp_path / "db")
        assert follower.snapshot().n_events == clean.n_events


def _bad_crc(path) -> None:
    """Store the member uncompressed, then change one byte of its data,
    so reading it fails the CRC-32 check."""
    with zipfile.ZipFile(path) as zf:
        (name,) = zf.namelist()
        data = zf.read(name)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(name, data)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(data[:32], data[:31] + b"#", 1))


def _not_utf8(path) -> None:
    with zipfile.ZipFile(path) as zf:
        (name,) = zf.namelist()
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(name, b"1\t\xff\xfe\n")


DAMAGE = {"bad_crc": _bad_crc, "not_utf8": _not_utf8}


#: SHA-256 of every file ``convert_raw_to_binary`` writes for the raw
#: test mirror (:func:`_tree_digest`), and of the run's problem report
#: (:func:`_report_digest`): clean, under ``CorruptionPlan`` (seed 5),
#: and with one archive's reads failing for good.  A crash and resume
#: must write the clean bytes.  Any change to parsing, interning,
#: conversion or the writer must reproduce these bytes exactly.
PINNED = {
    "clean": (
        "0b253c8402ba5f58b23581d253cd3177cd54a62561aff2e56c9878f05106e802",
        "905cb49a7e1c721a4a2034128d743b8cd993f0dc93a69132b49f3feb4fe9bf55",
    ),
    "corrupt": (
        "48375cf56b4f068174809c9f5bb6d987118cd200422d32b9b56a069d2c0b40ca",
        "8e8c3c458fe89614c3d8eaa32eb57683ccc1a4a755e885d132c2881b80cb15b1",
    ),
    "quarantined": (
        "ec0e998aa247e4c6e0eb96af76cf4c04258012c9ed4ab20a0845bb550bc321bb",
        "d91e66c98010c4e3ade41a026a8c3e91ef4f5dd02b0986838ad48613ace57dfe",
    ),
}


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b";")
        h.update(path.read_bytes())
    return h.hexdigest()


def _report_digest(report) -> str:
    return hashlib.sha256(json.dumps(asdict(report), sort_keys=True).encode()).hexdigest()


class TestPinnedOutput:
    """The write path's output, byte for byte.  Every conversion runs
    under its own fault plan, so a suite-wide chaos plan cannot move it."""

    def _convert(self, raw, out, plan=None):
        no_sleep = RetryPolicy(sleep=lambda s: None)
        with faults.active(plan or faults.FaultPlan()):
            result = convert_raw_to_binary(raw, out, retry_policy=no_sleep)
        return _tree_digest(out), _report_digest(result.report)

    def test_clean(self, raw_dir, tmp_path):
        assert self._convert(raw_dir, tmp_path / "db") == PINNED["clean"]

    def test_corrupt(self, raw_ds, tmp_path):
        raw = tmp_path / "raw"
        write_raw_archives(raw_ds, raw, chunk_intervals=96)
        inject_corruption(raw, CorruptionPlan(
            malformed_master_entries=7, missing_archives=3,
            missing_source_urls=2, future_event_dates=4, seed=5,
        ))
        assert self._convert(raw, tmp_path / "db") == PINNED["corrupt"]

    def test_quarantined(self, raw_dir, tmp_path):
        victim = sorted(p.name for p in raw_dir.glob("*.mentions.CSV.zip"))[3]
        plan = faults.FaultPlan(specs=(
            faults.FaultSpec(site="fetch.read", kind="permanent", key=victim),
        ))
        assert self._convert(raw_dir, tmp_path / "db", plan) == PINNED["quarantined"]

    def test_crash_and_resume(self, raw_dir, tmp_path):
        names = sorted(p.name for p in raw_dir.glob("*.zip"))
        plan = faults.FaultPlan(specs=(
            faults.FaultSpec(site="convert.commit", kind="abort", key=names[len(names) // 2]),
        ))
        with pytest.raises(faults.InjectedCrash):
            self._convert(raw_dir, tmp_path / "db", plan)
        assert self._convert(raw_dir, tmp_path / "db")[0] == PINNED["clean"][0]

    def test_independent_of_the_string_hash(self, raw_dir, tmp_path):
        """Python salts ``str`` hashes per process; the files must not care."""
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        script = "import sys, repro.ingest as i; i.convert_raw_to_binary(*sys.argv[1:])"
        for seed in ("0", "1"):
            out = tmp_path / f"seed{seed}"
            subprocess.run(
                [sys.executable, "-c", script, str(raw_dir), str(out)],
                env={**env, "PYTHONHASHSEED": seed}, check=True,
            )
            assert _tree_digest(out) == PINNED["clean"][0]
