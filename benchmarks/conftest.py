"""Benchmark fixtures.

The benchmark corpus defaults to the ``small`` preset (~130k articles;
seconds to build).  Set ``REPRO_BENCH_PRESET=calibrated`` for the
~1/1000-of-GDELT corpus the EXPERIMENTS.md numbers were recorded with
(~1.1M articles; takes a minute to build, so it is cached on disk under
``benchmarks/.cache``).

Every bench writes its paper-style output to ``benchmarks/out/<id>.txt``
in addition to timing the kernel, so a ``--benchmark-only`` run leaves a
full set of reproduced tables behind.  An untimed ``--benchmark-disable``
pass writes them to a temporary directory instead, so the smoke run
leaves the tracked tables as they are.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.engine import GdeltStore
from repro.ingest.direct import dataset_to_binary
from repro.storage.format import FORMAT_VERSION, StorageError
from repro.synth import calibrated_config, generate_dataset, small_config

BENCH_DIR = Path(__file__).parent
OUT_DIR = BENCH_DIR / "out"
CACHE_DIR = BENCH_DIR / ".cache"


def _preset():
    return os.environ.get("REPRO_BENCH_PRESET", "small")


@pytest.fixture(scope="session")
def bench_store() -> GdeltStore:
    """The benchmark corpus, built (and disk-cached) via the binary format."""
    preset = _preset()
    cfg = {"small": small_config, "calibrated": calibrated_config}[preset]()
    # The format version is part of the cache key: a cache written by an
    # older writer is simply abandoned, never half-trusted.
    cache = CACHE_DIR / f"{preset}-seed{cfg.seed}-v{FORMAT_VERSION}"
    if not (cache / "manifest.json").exists():
        ds = generate_dataset(cfg)
        dataset_to_binary(ds, cache, include_urls=True)
    try:
        return GdeltStore.open(cache, mode="memory")
    except StorageError:
        # Unreadable (corrupt / interrupted build): rebuild once.
        import shutil

        shutil.rmtree(cache, ignore_errors=True)
        dataset_to_binary(generate_dataset(cfg), cache, include_urls=True)
        return GdeltStore.open(cache, mode="memory")


@pytest.fixture(scope="session")
def country_result(bench_store):
    """Shared aggregated-query result for table-rendering benches."""
    from repro.engine import aggregated_country_query

    return aggregated_country_query(bench_store)


@pytest.fixture(scope="session")
def out_dir(request, tmp_path_factory) -> Path:
    if request.config.getoption("benchmark_disable"):
        return tmp_path_factory.mktemp("out")
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def write_out(out_dir: Path, name: str, text: str) -> None:
    (out_dir / f"{name}.txt").write_text(text, encoding="utf-8")


@pytest.fixture(scope="session")
def save_output(out_dir):
    """Callable fixture: persist a bench's rendered paper table."""

    def _save(name: str, text: str) -> None:
        write_out(out_dir, name, text)

    return _save
