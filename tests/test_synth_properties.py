"""Generator robustness: invariants must hold for *any* sane config.

The unit tests pin behaviour at the preset configs; these property tests
sweep randomized small configurations (scale, date window, mixture
knobs) and check the invariants the engine relies on.  Each case runs a
full generate→store→query pipeline, so examples are kept small.

Hypothesis' example search is pinned to ``REPRO_TEST_SEED`` (see
conftest), so a red run reproduces with the same env var it prints.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from tests.conftest import TEST_SEED

from repro.engine import GdeltStore, SerialExecutor, aggregated_country_query
from repro.ingest.direct import dataset_to_arrays
from repro.synth import SynthConfig, generate_dataset
from repro.synth.config import DELAY_CAP, DelayModelConfig, MediaGroupConfig


@st.composite
def small_configs(draw):
    """Random small-but-valid generator configurations."""
    n_sources = draw(st.integers(80, 300))
    n_events = draw(st.integers(300, 2_000))
    months = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**31 - 1))
    start = dt.datetime(2015, 2, 18)
    year, month = 2015, 2 + months
    year += (month - 1) // 12
    month = (month - 1) % 12 + 1
    tail_prob = draw(st.floats(0.0, 0.15))
    body_median = draw(st.floats(4.0, 40.0))
    n_members = draw(st.integers(2, min(12, n_sources // 4)))
    syndication = draw(st.floats(0.0, 0.3))
    return SynthConfig(
        seed=seed,
        n_sources=n_sources,
        n_events=n_events,
        start=start,
        end=dt.datetime(year, month, 1),
        delay=DelayModelConfig(tail_prob=tail_prob, body_median=body_median),
        media_group=MediaGroupConfig(
            n_members=n_members, syndication_prob=syndication
        ),
    )


@seed(TEST_SEED)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(small_configs())
def test_generated_dataset_invariants(cfg):
    print(f"REPRO_TEST_SEED={TEST_SEED}")
    ds = generate_dataset(cfg)

    # Every event exists because an article mentioned it.
    assert len(np.unique(ds.mentions.event_row)) == ds.n_events
    assert ds.num_articles.min() >= 1

    # All timing inside the window, delays positive and capped.
    assert ds.mentions.interval.min() >= cfg.start_interval
    assert ds.mentions.interval.max() < cfg.end_interval
    assert ds.mentions.delay.min() >= 1
    assert ds.mentions.delay.max() <= DELAY_CAP
    assert np.array_equal(
        ds.mentions.interval,
        ds.events.interval[ds.mentions.event_row] + ds.mentions.delay,
    )

    # Seed mentions are the earliest per event.
    assert np.array_equal(
        ds.mentions.interval[ds.seed_mention], ds.first_interval
    )

    # Repeat cap honoured.
    assert ds.mentions.repeat_k.max() < cfg.max_repeats

    # Determinism.
    again = generate_dataset(cfg)
    assert np.array_equal(again.mentions.source_idx, ds.mentions.source_idx)


@seed(TEST_SEED)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(small_configs())
def test_store_pipeline_invariants(cfg):
    """generate → arrays → store → aggregated query never breaks."""
    print(f"REPRO_TEST_SEED={TEST_SEED}")
    ds = generate_dataset(cfg)
    events, mentions, dicts = dataset_to_arrays(ds, include_urls=False)
    store = GdeltStore.from_arrays(events, mentions, dicts)

    assert store.n_events == ds.n_events
    assert store.n_mentions == ds.n_articles
    assert (store.mention_event_row() >= 0).all()

    result = aggregated_country_query(store)
    assert result.cross_counts.sum() <= store.n_mentions
    j = result.jaccard()
    assert (j >= 0).all() and (j <= 1).all()
    assert np.allclose(j, j.T)

    # Per-event mention counts agree between generator and the join.
    per_event = np.bincount(store.mention_event_row(), minlength=store.n_events)
    assert np.array_equal(per_event, ds.num_articles)


@seed(TEST_SEED)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(small_configs(), st.integers(2, 4))
def test_row_range_partials_equal_one_pass_for_any_config(cfg, n_parts):
    """Partials over ``n_parts`` contiguous row ranges reduce to the
    one-pass answer — the property sharded placement relies on."""
    print(f"REPRO_TEST_SEED={TEST_SEED}")
    ds = generate_dataset(replace(cfg, n_events=min(cfg.n_events, 800)))
    events, mentions, dicts = dataset_to_arrays(ds, include_urls=False)
    store = GdeltStore.from_arrays(events, mentions, dicts)
    local = aggregated_country_query(store)
    parts = aggregated_country_query(
        store,
        SerialExecutor(),
        chunk_rows=max(1, math.ceil(store.n_mentions / n_parts)),
    )
    assert np.array_equal(local.cross_counts, parts.cross_counts)
    assert np.array_equal(local.co_events, parts.co_events)
    assert np.array_equal(local.publisher_articles, parts.publisher_articles)
