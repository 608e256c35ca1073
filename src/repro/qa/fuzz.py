"""The fuzz campaign driver and its mutation self-test.

A campaign is deterministic given ``(seed, cases)``: store specs, query
cases, and every constant inside them derive from
``numpy.random.default_rng`` streams seeded from the campaign seed.
Cases are grouped into rounds — one synthesized store (and, when heavy
surfaces are on, one shard cluster + server + view service) amortized
over ``cases_per_store`` queries.

``self_test`` is the harness testing the harness: it monkey-patches an
off-by-one into the engine's grouped-count kernel, runs a small
campaign, and demands that the oracle catches the bug *and* the
shrinker reduces it to a corpus file that replays red with the bug and
green without it.  A fuzzer that cannot find a planted bug is
worthless; this keeps ours honest in tier-1 forever.
"""

from __future__ import annotations

import contextlib
import json
import logging
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.qa.generator import CaseGen, sample_store_spec
from repro.qa.oracle import Mismatch, Oracle, StoreHarness
from repro.qa.shrink import shrink_case, write_corpus_entry

__all__ = ["FuzzReport", "run_fuzz", "inject_kernel_bug", "self_test"]

logger = logging.getLogger(__name__)


@dataclass
class FuzzReport:
    """What a campaign did, for the CLI and the tests."""

    seed: int
    cases: int = 0
    stores: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    corpus_files: list[Path] = field(default_factory=list)
    surface_runs: dict[str, int] = field(default_factory=dict)
    invariant_runs: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.cases} cases over "
            f"{self.stores} stores in {self.elapsed_s:.1f}s",
            "surface runs: "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(self.surface_runs.items())
            ),
            "invariants: "
            + (
                ", ".join(
                    f"{k}={v}" for k, v in sorted(self.invariant_runs.items())
                )
                or "none"
            ),
        ]
        if self.mismatches:
            lines.append(f"{len(self.mismatches)} MISMATCH(ES):")
            for m in self.mismatches:
                lines.append("  " + m.describe().replace("\n", "\n  "))
            for p in self.corpus_files:
                lines.append(f"  repro written: {p}")
        else:
            lines.append("zero cross-surface mismatches")
        return "\n".join(lines)


def run_fuzz(
    seed: int = 0,
    cases: int = 500,
    cases_per_store: int = 25,
    heavy: bool = True,
    corpus_dir: str | Path | None = None,
    max_mismatches: int = 5,
    metamorphic: bool = True,
) -> FuzzReport:
    """Run a deterministic differential campaign.

    Args:
        seed: campaign seed; same seed + same cases = same queries.
        cases: total query cases across all stores.
        cases_per_store: cases amortized over each synthesized store.
        heavy: also run the shard/remote/view surfaces (needs temp
            dirs and sockets); off for quick engine-only sweeps.
        corpus_dir: where shrunk repros land (``tests/fuzz_corpus`` in
            the CLI); ``None`` skips writing.
        max_mismatches: stop after this many distinct findings.
    """
    t0 = time.monotonic()
    report = FuzzReport(seed=seed)
    meta_rng = np.random.default_rng(seed)
    store_index = 0
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        while report.cases < cases and len(report.mismatches) < max_mismatches:
            spec = sample_store_spec(meta_rng, store_index, seed)
            store_dir = Path(tmp) / f"store-{store_index}"
            store_dir.mkdir()
            with StoreHarness(spec, tmp_dir=store_dir, heavy=heavy) as harness:
                report.stores += 1
                oracle = Oracle(harness)
                gen = CaseGen(
                    harness.store, spec, seed=int(meta_rng.integers(0, 2**63))
                )
                budget = min(cases_per_store, cases - report.cases)
                for _ in range(budget):
                    case = gen.sample_case()
                    report.cases += 1
                    found = oracle.check_case(case)
                    if metamorphic:
                        found += oracle.check_metamorphic(case)
                    for mismatch in found:
                        logger.warning("mismatch: %s", mismatch.describe())
                        report.mismatches.append(mismatch)
                        if corpus_dir is not None:
                            report.corpus_files.append(
                                _shrink_and_write(mismatch, corpus_dir, tmp)
                            )
                    if len(report.mismatches) >= max_mismatches:
                        break
                for k, v in oracle.surface_runs.items():
                    report.surface_runs[k] = report.surface_runs.get(k, 0) + v
                for k, v in oracle.invariant_runs.items():
                    report.invariant_runs[k] = (
                        report.invariant_runs.get(k, 0) + v
                    )
            store_index += 1
    report.elapsed_s = time.monotonic() - t0
    return report


def _shrink_and_write(
    mismatch: Mismatch, corpus_dir: str | Path, tmp: str
) -> Path:
    from repro.qa.generator import build_store
    from repro.qa.oracle import canon
    from repro.qa.reference import reference_value

    spec, case = shrink_case(mismatch, tmp_dir=tmp)
    stamp = zlib.crc32(
        json.dumps([spec.to_dict(), case], sort_keys=True).encode()
    )
    name = f"{mismatch.surface}-{case['op']}-{stamp:08x}"
    return write_corpus_entry(
        corpus_dir,
        name,
        spec,
        case,
        surfaces=[mismatch.surface],
        note=mismatch.detail or f"{mismatch.surface} diverged from reference",
        expect=canon(reference_value(build_store(spec), case)),
    )


# -- self-test ---------------------------------------------------------------


@contextlib.contextmanager
def inject_kernel_bug():
    """Deliberately break the engine's grouped-count kernel.

    Patches the name bound inside :mod:`repro.engine.terminal` (the op
    table's chunk kernels) with a wrapper that inflates group 0 by one
    per chunk — the classic off-by-one a differential oracle exists to
    catch.  The
    independent reference is untouched, so every grouped ``count`` or
    ``top`` case over a nonempty selection must now mismatch.
    """
    import repro.engine.terminal as engine_terminal

    real = engine_terminal.group_count

    def skewed(keys, n_groups, mask=None):
        out = np.array(real(keys, n_groups, mask), copy=True)
        if len(out):
            out[0] += 1
        return out

    engine_terminal.group_count = skewed
    try:
        yield
    finally:
        engine_terminal.group_count = real


def self_test(seed: int = 0, cases: int = 40, corpus_dir: str | Path | None = None):
    """Prove the harness catches and shrinks a planted kernel bug.

    Returns ``(report, replay_ok)`` where ``report`` is the campaign
    run *with* the bug injected (must have mismatches) and
    ``replay_ok`` is True when the shrunk corpus entry replays green
    once the bug is removed.

    Raises:
        AssertionError: the harness failed to catch, shrink, or replay.
    """
    from repro.engine.planner import result_cache
    from repro.qa.shrink import replay_corpus_entry

    own_tmp = None
    if corpus_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-selftest-")
        corpus_dir = own_tmp.name
    try:
        with inject_kernel_bug():
            report = run_fuzz(
                seed=seed,
                cases=cases,
                cases_per_store=10,
                heavy=False,
                corpus_dir=corpus_dir,
                max_mismatches=1,
                metamorphic=False,
            )
        result_cache().invalidate()
        if not report.mismatches:
            raise AssertionError(
                "planted grouped-count bug was NOT caught — the oracle "
                "is blind; do not trust green fuzz runs"
            )
        if not report.corpus_files:
            raise AssertionError("mismatch found but no corpus repro written")
        entry = report.corpus_files[0]
        # Green without the bug…
        clean = replay_corpus_entry(entry)
        if clean:
            raise AssertionError(
                f"shrunk repro {entry} still fails without the planted bug: "
                + "; ".join(m.describe() for m in clean)
            )
        # …and red with it: the repro reproduces the actual bug.
        with inject_kernel_bug():
            red = replay_corpus_entry(entry)
        result_cache().invalidate()
        if not red:
            raise AssertionError(
                f"shrunk repro {entry} no longer triggers the planted bug"
            )
        return report, True
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
