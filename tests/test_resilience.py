"""Recovery paths under injected faults: ingest, storage, execution.

Every test compares observed recovery accounting (retry/quarantine
counters, problem-report classes) against the injector's ground truth —
the :class:`FaultReceipt` of what fired, or :meth:`FaultInjector.preview`
of what the plan selects.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.engine import GdeltStore
from repro.engine.executor import ThreadExecutor
from repro.gdelt.masterlist import parse_master_list
from repro.ingest import (
    CheckpointJournal,
    LocalFetcher,
    ProblemReport,
    RetryPolicy,
    RetryingFetcher,
    convert_raw_to_binary,
)
from repro.ingest.checkpoint import JOURNAL_DIRNAME
from repro.obs import metrics as _metrics
from repro.storage.format import StorageError
from repro.storage.verify import verify_dataset

NO_SLEEP = RetryPolicy(sleep=lambda s: None)
NO_FAULTS = faults.FaultPlan()  # masks any session-level chaos plan


def _plan(*specs, seed=13):
    return faults.FaultPlan(specs=tuple(specs), seed=seed)


def _counter(name: str, **labels) -> float:
    return _metrics.counter(name, **labels).value


def _dir_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _chunk_refs(raw_dir: Path):
    text = (raw_dir / "masterfilelist.txt").read_text(encoding="utf-8")
    return parse_master_list(text).chunks


class TestRetryingFetcher:
    def test_transient_fault_recovered_by_retry(self, raw_dir):
        ref = _chunk_refs(raw_dir)[0]
        name = ref.entry.url.rsplit("/", 1)[-1]
        plan = _plan(
            faults.FaultSpec(
                site="fetch.read", kind="transient", key=name, fail_attempts=2
            )
        )
        fetcher = RetryingFetcher(LocalFetcher(raw_dir), policy=NO_SLEEP)
        report = ProblemReport()
        before = _counter("ingest_retries_total")
        with faults.active(plan) as inj:
            result = fetcher.fetch(ref, report)
        assert result.path is not None and not result.quarantined
        assert result.attempts == 3
        assert inj.receipt.count(kind="transient") == 2
        assert _counter("ingest_retries_total") - before == 2
        assert report.quarantined_archives == 0

    def test_permanent_fault_quarantines_immediately(self, raw_dir):
        ref = _chunk_refs(raw_dir)[0]
        name = ref.entry.url.rsplit("/", 1)[-1]
        plan = _plan(
            faults.FaultSpec(site="fetch.read", kind="permanent", key=name)
        )
        fetcher = RetryingFetcher(LocalFetcher(raw_dir), policy=NO_SLEEP)
        report = ProblemReport()
        before = _counter("ingest_quarantined_total")
        with faults.active(plan) as inj:
            result = fetcher.fetch(ref, report)
        assert result.path is None and result.quarantined
        assert result.attempts == 1  # no pointless retries
        assert report.quarantined_archives == 1
        assert inj.receipt.count(kind="permanent") == 1
        assert _counter("ingest_quarantined_total") - before == 1

    def test_exhausted_retries_quarantine(self, raw_dir):
        ref = _chunk_refs(raw_dir)[0]
        name = ref.entry.url.rsplit("/", 1)[-1]
        plan = _plan(
            faults.FaultSpec(
                site="fetch.read", kind="transient", key=name, fail_attempts=99
            )
        )
        fetcher = RetryingFetcher(LocalFetcher(raw_dir), policy=NO_SLEEP)
        report = ProblemReport()
        with faults.active(plan):
            result = fetcher.fetch(ref, report)
        assert result.quarantined
        assert result.attempts == NO_SLEEP.max_attempts
        assert report.quarantined_archives == 1

    def test_slow_fetch_times_out_then_recovers(self, raw_dir):
        ref = _chunk_refs(raw_dir)[0]
        name = ref.entry.url.rsplit("/", 1)[-1]
        plan = _plan(
            faults.FaultSpec(
                site="fetch.read", kind="slow", key=name,
                delay_s=0.1, fail_attempts=1,
            )
        )
        base = LocalFetcher(raw_dir, timeout_s=0.05)
        fetcher = RetryingFetcher(base, policy=NO_SLEEP)
        before = _counter("ingest_timeouts_total")
        with faults.active(plan):
            result = fetcher.fetch(ref, ProblemReport())
        assert result.path is not None
        assert result.attempts == 2
        assert _counter("ingest_timeouts_total") - before == 1

    def test_decorrelated_jitter_bounded(self, raw_dir):
        ref = _chunk_refs(raw_dir)[0]
        name = ref.entry.url.rsplit("/", 1)[-1]
        delays: list[float] = []
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.01, max_delay_s=0.5,
            sleep=delays.append,
        )
        plan = _plan(
            faults.FaultSpec(
                site="fetch.read", kind="transient", key=name, fail_attempts=3
            )
        )
        fetcher = RetryingFetcher(LocalFetcher(raw_dir), policy=policy)
        with faults.active(plan):
            result = fetcher.fetch(ref, ProblemReport())
        assert result.path is not None
        assert len(delays) == 3  # one backoff per absorbed failure
        assert all(
            policy.base_delay_s <= d <= policy.max_delay_s for d in delays
        )


class TestConvertUnderFaults:
    def test_transient_faults_do_not_change_output(self, raw_dir, tmp_path):
        plan = _plan(
            faults.FaultSpec(
                site="fetch.read", kind="transient", prob=0.5, fail_attempts=1
            ),
            seed=23,
        )
        before = _counter("ingest_retries_total")
        with faults.active(plan) as inj:
            faulted = convert_raw_to_binary(
                raw_dir, tmp_path / "faulted", retry_policy=NO_SLEEP
            )
        injected = inj.receipt.count(site="fetch.read", kind="transient")
        assert injected > 0  # prob 0.5 over dozens of archives
        # Exactly one retry per injected transient — no more, no fewer.
        assert _counter("ingest_retries_total") - before == injected
        assert faulted.report.quarantined_archives == 0

        with faults.active(NO_FAULTS):
            clean = convert_raw_to_binary(raw_dir, tmp_path / "clean")
        assert _dir_digest(tmp_path / "faulted") == _dir_digest(
            tmp_path / "clean"
        )
        assert faulted.n_events == clean.n_events

    def test_permanent_fault_quarantines_archive(self, raw_dir, tmp_path):
        refs = _chunk_refs(raw_dir)
        victim = next(
            r.entry.url.rsplit("/", 1)[-1]
            for r in refs
            if r.entry.url.endswith(".export.CSV.zip")
        )
        plan = _plan(
            faults.FaultSpec(site="fetch.read", kind="permanent", key=victim)
        )
        with faults.active(plan) as inj:
            result = convert_raw_to_binary(
                raw_dir, tmp_path / "db", retry_policy=NO_SLEEP
            )
        assert result.report.quarantined_archives == 1
        assert inj.receipt.count(kind="permanent") == 1
        # The dataset still opens and the quarantined chunk is just absent.
        store = GdeltStore.open(tmp_path / "db")
        assert store.n_events > 0


class TestCrashResume:
    def test_interrupted_conversion_resumes_byte_identical(
        self, raw_dir, tmp_path
    ):
        names = sorted(p.name for p in raw_dir.glob("*.zip"))
        victim = names[len(names) // 2]
        plan = _plan(
            faults.FaultSpec(site="convert.commit", kind="abort", key=victim)
        )
        out = tmp_path / "resumed"
        with faults.active(plan):
            with pytest.raises(faults.InjectedCrash):
                convert_raw_to_binary(raw_dir, out, retry_policy=NO_SLEEP)
        journal_dir = out / JOURNAL_DIRNAME
        assert (journal_dir / "journal.jsonl").exists()
        committed = len(CheckpointJournal(out))
        assert committed > 0

        before = _counter("ingest_chunks_resumed_total")
        with faults.active(NO_FAULTS):
            resumed = convert_raw_to_binary(raw_dir, out)
        assert _counter("ingest_chunks_resumed_total") - before == committed
        assert not journal_dir.exists()  # removed on success

        with faults.active(NO_FAULTS):
            clean = convert_raw_to_binary(raw_dir, tmp_path / "clean")
        assert _dir_digest(out) == _dir_digest(tmp_path / "clean")
        assert resumed.n_events == clean.n_events
        assert resumed.report.total() == clean.report.total()

    def test_journal_survives_torn_tail_record(self, tmp_path):
        j = CheckpointJournal(tmp_path)
        j.commit("a.zip", "row1\trow2\n")
        j.commit("b.zip", "row3\n")
        j.close()
        # Simulate a crash mid-append: garbage half-record at the tail.
        with open(tmp_path / JOURNAL_DIRNAME / "journal.jsonl", "a") as fh:
            fh.write('{"chunk": "c.zip", "spi')
        j2 = CheckpointJournal(tmp_path)
        assert len(j2) == 2
        assert j2.get_text("a.zip") == "row1\trow2\n"
        assert j2.get_text("c.zip") is None
        j2.close()

    def test_corrupt_spill_is_reprocessed(self, tmp_path):
        j = CheckpointJournal(tmp_path)
        j.commit("a.zip", "some rows\n")
        j.close()
        spill = tmp_path / JOURNAL_DIRNAME / "a.zip.zlib"
        spill.write_bytes(b"garbage")
        j2 = CheckpointJournal(tmp_path)
        assert j2.get_text("a.zip") is None  # bad CRC -> reprocess
        j2.close()


class TestStorageIntegrity:
    @pytest.fixture()
    def dataset(self, raw_dir, tmp_path):
        out = tmp_path / "db"
        with faults.active(NO_FAULTS):
            convert_raw_to_binary(raw_dir, out)
        return out

    def test_verify_clean_dataset_ok(self, dataset):
        report = verify_dataset(dataset)
        assert report.ok, report.render()
        assert report.files_checked > 10
        assert cli_main(["-q", "verify", str(dataset)]) == 0

    def test_bitflip_in_column_pinpointed(self, dataset, capsys):
        victim_rel = "events/AvgTone.bin"
        plan = _plan(
            faults.FaultSpec(site="verify.poke", kind="bitflip")
        )
        with faults.active(plan):
            faults.fault_point(
                "verify.poke", key=victim_rel, path=dataset / victim_rel
            )
        report = verify_dataset(dataset)
        assert not report.ok
        assert [i.path for i in report.issues] == [victim_rel]
        assert report.issues[0].kind == "crc"
        assert cli_main(["-q", "verify", str(dataset)]) == 1
        out = capsys.readouterr().out
        assert victim_rel in out

    def test_corrupt_dictionary_raises(self, dataset):
        victim = dataset / "dict" / "sources.offsets.bin"
        plan = _plan(faults.FaultSpec(site="poke", kind="bitflip"))
        with faults.active(plan):
            faults.fault_point("poke", key="d", path=victim)
        from repro.storage.format import StorageError
        from repro.storage.reader import DatasetReader

        reader = DatasetReader(dataset)
        with pytest.raises(StorageError):
            reader.dictionary("sources")

    def test_writer_commits_are_atomic_names(self, dataset):
        # No temp files may survive a successful write.
        assert not list(dataset.rglob("*.tmp"))


def _range_kernel(sl: slice):
    return (sl.start, sl.stop)


class TestExecutorResilience:
    N_ROWS = 1000
    CHUNK = 100

    def _keys(self):
        return [
            f"{i}:{min(i + self.CHUNK, self.N_ROWS)}"
            for i in range(0, self.N_ROWS, self.CHUNK)
        ]

    def test_thread_executor_retries_transient_chunks(self):
        plan = _plan(
            faults.FaultSpec(
                site="executor.chunk", kind="transient",
                prob=0.4, fail_attempts=1,
            ),
            seed=31,
        )
        before = _counter("chunk_retries_total", executor="ThreadExecutor")
        with faults.active(plan) as inj:
            afflicted = inj.preview("executor.chunk", self._keys())
            with ThreadExecutor(2) as ex:
                out = ex.map_chunks(
                    _range_kernel, self.N_ROWS, chunk_rows=self.CHUNK
                )
        assert afflicted  # seeded: some chunks are hit
        assert out == [
            (i, min(i + self.CHUNK, self.N_ROWS))
            for i in range(0, self.N_ROWS, self.CHUNK)
        ]
        delta = _counter("chunk_retries_total", executor="ThreadExecutor") - before
        assert delta == len(afflicted)
        assert inj.receipt.count(site="executor.chunk") == len(afflicted)

    def test_thread_executor_raises_when_retries_exhausted(self):
        plan = _plan(
            faults.FaultSpec(
                site="executor.chunk", kind="transient",
                key="0:100", fail_attempts=99,
            )
        )
        with faults.active(plan):
            with ThreadExecutor(2) as ex:
                with pytest.raises(faults.TransientFault):
                    ex.map_chunks(
                        _range_kernel, self.N_ROWS, chunk_rows=self.CHUNK
                    )

    def test_thread_team_revives_dead_worker(self):
        from repro.parallel.pool import _SENTINEL, ThreadTeam

        before = _counter("team_worker_restarts_total")
        with ThreadTeam(2) as team:
            # Kill one worker by feeding it a raw sentinel.
            team._tasks.put(_SENTINEL)
            import time as _time

            deadline = _time.monotonic() + 2.0
            while (
                all(w.is_alive() for w in team._workers)
                and _time.monotonic() < deadline
            ):
                _time.sleep(0.01)
            assert not all(w.is_alive() for w in team._workers)
            out = team.run(lambda x: x * 2, [1, 2, 3, 4])
        assert out == [2, 4, 6, 8]
        assert _counter("team_worker_restarts_total") - before == 1


class TestEndToEndAcceptance:
    """Seeded transient fetch errors, one permanently failing archive
    and one flipped byte in a lazily loaded dictionary — and the full
    synth → convert → verify → scaling pipeline still completes, with
    recovery counts matching the injector's ground truth exactly."""

    def test_full_pipeline_under_faults(self, raw_dir, tmp_path):
        refs = _chunk_refs(raw_dir)
        quarantine_victim = next(
            r.entry.url.rsplit("/", 1)[-1]
            for r in refs
            if r.entry.url.endswith(".mentions.CSV.zip")
        )
        plan = _plan(
            faults.FaultSpec(
                site="fetch.read", kind="transient", prob=0.3, fail_attempts=1
            ),
            faults.FaultSpec(
                site="fetch.read", kind="permanent", key=quarantine_victim
            ),
            faults.FaultSpec(
                site="storage.write", kind="bitflip",
                key="dict/mention_urls.blob.bin", max_injections=1,
            ),
            seed=101,
        )
        out = tmp_path / "db"
        retries0 = _counter("ingest_retries_total")
        quar0 = _counter("ingest_quarantined_total")

        with faults.active(plan) as inj:
            result = convert_raw_to_binary(
                raw_dir, out, retry_policy=NO_SLEEP
            )
            # Recovery accounting matches the receipt exactly.
            transients = inj.receipt.count(site="fetch.read", kind="transient")
            assert transients > 0
            assert _counter("ingest_retries_total") - retries0 == transients
            assert inj.receipt.count(site="fetch.read", kind="permanent") == 1
            assert _counter("ingest_quarantined_total") - quar0 == 1
            assert result.report.quarantined_archives == 1
            assert inj.receipt.count(kind="bitflip") == 1

            # verify pinpoints exactly the flipped file.
            vreport = verify_dataset(out)
            assert [i.path for i in vreport.issues] == [
                "dict/mention_urls.blob.bin"
            ]
            assert vreport.issues[0].kind == "crc"

            # The store still opens (the URL dictionary loads on first
            # use) and the paper's scaling benchmark completes
            # end-to-end; reading a mention URL hits the flipped file.
            store = GdeltStore.open(out)
            from repro.benchlib import fig12_scaling

            scaling = fig12_scaling(store, thread_counts=(1, 2))
            assert "1" in scaling.text and "2" in scaling.text
            with pytest.raises(StorageError, match="mention_urls.blob.bin"):
                store.mention_url(0)
