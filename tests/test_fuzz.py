"""The differential fuzzer's own tier-1 contract.

Three layers of self-protection:

* the committed corpus (``tests/fuzz_corpus/*.json``) replays forever —
  every entry is a shrunk repro of a real bug the fuzzer once found,
  so these are regression tests with their discovery story attached;
* a small deterministic campaign must come back clean on every run —
  the engine-only sweep is cheap enough for tier-1;
* the mutation self-test proves the oracle is not blind: a planted
  kernel bug must be caught, shrunk, and replayed red-with/green-without.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.engine.aggregate import group_sum
from repro.qa import (
    CaseGen,
    StoreSpec,
    build_store,
    canon,
    load_corpus_entry,
    reference_value,
    replay_corpus_entry,
    run_fuzz,
    self_test,
)

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


class TestCorpusReplay:
    def test_corpus_is_nonempty(self):
        assert CORPUS_FILES, "committed fuzz corpus must not be empty"

    @pytest.mark.parametrize(
        "entry", CORPUS_FILES, ids=lambda p: p.stem
    )
    def test_entry_replays_green(self, entry, tmp_path):
        mismatches = replay_corpus_entry(entry, tmp_dir=tmp_path)
        assert not mismatches, "\n".join(m.describe() for m in mismatches)

    @pytest.mark.parametrize(
        "entry", CORPUS_FILES, ids=lambda p: p.stem
    )
    def test_entry_is_well_formed(self, entry):
        doc = load_corpus_entry(entry)
        assert doc["surfaces"], "an entry must name at least one surface"
        assert doc["note"], "an entry must say what it pinned"
        assert doc["expect"] is not None, "an entry must pin reference bytes"
        # The spec round-trips: replay rebuilds the exact store.
        spec = StoreSpec.from_dict(doc["store"])
        assert spec.to_dict() == doc["store"]


class TestDeterminism:
    def test_same_seed_same_cases(self):
        spec = StoreSpec(seed=3, n_events=40, n_mentions=120, n_sources=8)
        store = build_store(spec)
        a = [CaseGen(store, spec, seed=5).sample_case() for _ in range(20)]
        b = [CaseGen(store, spec, seed=5).sample_case() for _ in range(20)]
        assert a == b

    def test_reference_bytes_are_stable(self):
        # The corpus' drift tripwire depends on this: same spec + case
        # must canonicalize identically across processes and runs.
        spec = StoreSpec(seed=3, n_events=40, n_mentions=120, n_sources=8)
        store = build_store(spec)
        case = CaseGen(store, spec, seed=5).sample_case()
        assert canon(reference_value(store, case)) == canon(
            reference_value(build_store(spec), case)
        )


class TestLocalCampaign:
    def test_small_engine_sweep_is_clean(self):
        report = run_fuzz(seed=1, cases=30, cases_per_store=15, heavy=False)
        assert report.ok, report.summary()
        assert report.cases == 30
        assert report.surface_runs["reference"] == 30
        assert report.surface_runs["pruned"] == 30
        assert report.surface_runs["unpruned"] == 30
        # Metamorphic invariants actually fired.
        assert sum(report.invariant_runs.values()) > 0

    def test_mutation_self_test_catches_planted_bug(self, tmp_path):
        report, replay_ok = self_test(seed=2, cases=30, corpus_dir=tmp_path)
        assert replay_ok
        assert report.mismatches
        assert report.corpus_files
        # The shrunk repro is a real corpus document.
        doc = load_corpus_entry(report.corpus_files[0])
        assert doc["case"]["group_by"] is not None  # grouped-count bug


class TestKernelRegressions:
    """Unit pins for the engine bugs the fuzzer has found so far."""

    def test_group_sum_empty_selection_is_float64(self):
        keys = np.array([0, 1, 2], dtype=np.int64)
        values = np.array([1, 2, 3], dtype=np.int32)
        none = group_sum(keys, values, 3, mask=np.zeros(3, dtype=bool))
        some = group_sum(keys, values, 3, mask=np.ones(3, dtype=bool))
        assert none.dtype == some.dtype == np.float64
        assert none.tolist() == [0.0, 0.0, 0.0]

    def test_zero_value_stats_carries_dtype(self):
        from repro.engine.terminal import TerminalSpec

        for dtype, lo, hi in (
            ("int16", np.iinfo(np.int16).max, np.iinfo(np.int16).min),
            ("float32", np.inf, -np.inf),
        ):
            v = TerminalSpec("stats", group="Quarter").bind(3, dtype).merge([])
            assert v["min"].dtype == np.dtype(dtype)
            assert list(v["min"]) == [lo] * 3
            assert list(v["max"]) == [hi] * 3
            assert all(np.isnan(v["mean"]))
            assert all(np.isnan(v["median"]))
