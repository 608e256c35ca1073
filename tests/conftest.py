"""Shared fixtures.

Dataset generation is deterministic and cheap at test scale, but still
worth sharing: the ``tiny`` corpus (full 2015-2019 window, ~13k articles)
backs most analysis tests, and the ``raw`` corpus (short window) backs
the ingest pipeline tests.  All are session-scoped and read-only — tests
must not mutate store arrays.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.engine import GdeltStore
from repro.ingest.direct import dataset_to_arrays
from repro.storage.columns import StringDictionary
from repro.synth import SynthConfig, generate_dataset, tiny_config, write_raw_archives

#: One knob for every randomized test in the suite.  Override with
#: ``REPRO_TEST_SEED=<n>`` to chase a seed-dependent failure; the value
#: is printed per-test (pytest shows captured stdout on failure), so a
#: red randomized test always names the seed that reproduces it.
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "1234"))


def manifest_crcs(dataset_dir) -> dict[str, int]:
    """Every data file of a dataset → the CRC32 its manifest records
    (the writer computes it from the bytes it wrote, and ``repro-gdelt
    verify`` checks it), so equal dicts mean equal files on disk."""
    manifest = json.loads((Path(dataset_dir) / "manifest.json").read_text())
    crcs = {
        f"{t['name']}/{c['name']}": c["crc32"]
        for t in manifest["tables"]
        for c in t["columns"]
    }
    for d in manifest["dictionaries"]:
        crcs[f"dict/{d['name']}.offsets"] = d["offsets_crc32"]
        crcs[f"dict/{d['name']}.blob"] = d["blob_crc32"]
    return crcs


def column_rows(columns: dict) -> list[dict]:
    """The parsed field ``columns`` of ``repro.gdelt.csv_io`` as one dict
    per row, numbers as Python ``int``/``float``.  The binary columns the
    parse also computes (capitalised, e.g. ``RootCode``) are left out:
    they are not fields of a row."""
    listed = {
        name: col.tolist() if isinstance(col, np.ndarray) else list(col)
        for name, col in columns.items()
        if name.islower()
    }
    return [dict(zip(listed, values)) for values in zip(*listed.values())]


def traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates at its peak, above what was live before
    (tracemalloc: the Python heap, NumPy buffers included)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def flat_store(n_mentions: int, n_sources: int = 2000, seed: int = 0) -> GdeltStore:
    """An array store of ``n_mentions`` uniform random mentions over the
    2015-2019 window, every column at its stored width.  Large enough
    that a per-row scratch bound is not hidden by fixed-size blocks."""
    rng = np.random.default_rng(seed)
    n_events = n_mentions // 4
    day = np.sort(rng.integers(0, 170_000, n_events)).astype(np.int32)
    event_row = np.sort(rng.integers(0, n_events, n_mentions))
    delay = rng.integers(1, 5000, n_mentions).astype(np.int32)
    events = {"GlobalEventID": np.arange(n_events, dtype=np.int64), "DayInterval": day}
    mentions = {
        "GlobalEventID": event_row.astype(np.int64),
        "EventInterval": day[event_row],
        "MentionInterval": day[event_row] + delay,
        "Delay": delay,
        "SourceId": rng.integers(0, n_sources, n_mentions).astype(np.int32),
    }
    dicts = {
        "sources": StringDictionary.from_strings(f"s{i}.com" for i in range(n_sources)),
        "countries": StringDictionary.from_strings([""]),
    }
    return GdeltStore.from_arrays(events, mentions, dicts)


def mention_store(
    n_events: int, n_sources: int, event_row, source_id, interval
) -> GdeltStore:
    """An array store of the given mentions over ``n_events`` events and
    ``n_sources`` sources; an ``event_row`` of -1 is a mention whose
    event id matches no event (a dangling join)."""
    event_row = np.asarray(event_row, dtype=np.int64)
    events = {
        "GlobalEventID": 2 * np.arange(n_events, dtype=np.int64),
        "DayInterval": np.zeros(n_events, dtype=np.int32),
    }
    mentions = {
        "GlobalEventID": np.where(event_row >= 0, 2 * event_row, 1),
        "MentionInterval": np.asarray(interval, dtype=np.int32),
        "SourceId": np.asarray(source_id, dtype=np.int32),
    }
    dicts = {
        "sources": StringDictionary.from_strings(f"s{i}.com" for i in range(n_sources)),
        "countries": StringDictionary.from_strings([""]),
    }
    return GdeltStore.from_arrays(events, mentions, dicts)


@pytest.fixture(scope="session", autouse=True)
def _env_fault_plan():
    """Run the whole suite under REPRO_FAULTS chaos when the env asks.

    CI's fault-injection job sets ``REPRO_FAULTS`` and re-runs the full
    suite; every test must still pass, because the plan contains only
    recoverable faults and the resilience layer is expected to absorb
    them.
    """
    plan = faults.FaultPlan.from_env()
    if plan is None:
        yield
        return
    faults.install(faults.FaultInjector(plan))
    yield
    faults.clear()


@pytest.fixture(scope="session")
def tiny_ds():
    """The standard tiny synthetic corpus (full window)."""
    return generate_dataset(tiny_config())


@pytest.fixture(scope="session")
def tiny_store(tiny_ds):
    """A live store over the tiny corpus (with URL dictionaries)."""
    events, mentions, dicts = dataset_to_arrays(tiny_ds, include_urls=True)
    return GdeltStore.from_arrays(events, mentions, dicts)


@pytest.fixture(scope="session")
def tiny_arrays(tiny_ds):
    """``(events, mentions, dicts)`` arrays of the tiny corpus (no URLs).

    Converting the dataset is the expensive half of building a store, so
    modules that want their own chunking build from these shared arrays
    instead of re-deriving them.
    """
    return dataset_to_arrays(tiny_ds)


@pytest.fixture(scope="session")
def tiny_zstore(tiny_arrays):
    """Fine-chunked store (512-row zone maps) so pruning has chunks to
    skip.  Session-scoped and read-only, like every shared store."""
    events, mentions, dicts = tiny_arrays
    return GdeltStore.from_arrays(events, mentions, dicts, zone_chunk_rows=512)


@pytest.fixture(scope="session")
def raw_config():
    """A short-window config small enough for raw TSV round trips."""
    return SynthConfig(
        seed=11,
        n_sources=120,
        n_events=1500,
        end=dt.datetime(2015, 5, 1),
    )


@pytest.fixture(scope="session")
def raw_ds(raw_config):
    return generate_dataset(raw_config)


@pytest.fixture(scope="session")
def raw_dir(raw_ds, tmp_path_factory):
    """Raw GDELT archives (master list + chunk zips) for the raw corpus."""
    out = tmp_path_factory.mktemp("raw")
    write_raw_archives(raw_ds, out, chunk_intervals=96)
    return out


@pytest.fixture()
def rng():
    print(f"REPRO_TEST_SEED={TEST_SEED}")
    return np.random.default_rng(TEST_SEED)
