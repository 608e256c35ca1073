"""The paper's analyses (Section VI), as engine kernels.

Each module maps to one experiment family:

* :mod:`repro.analysis.activity` — quarterly source/event/article counts
  and top-publisher series (Figs 3-6);
* :mod:`repro.analysis.popularity` — dataset statistics, the event-
  popularity power law, top events (Table I, Fig 2, Table III);
* :mod:`repro.analysis.coreporting` — source co-reporting matrices,
  dense and sparse-assembled (Section VI-B; Table V's country matrix is
  ``aggregated_country_query(store).jaccard()``);
* :mod:`repro.analysis.followreporting` — time-ordered follow-reporting
  (Table IV, Fig 7);
* :mod:`repro.analysis.crossreporting` — the row and column orders of
  the country cross-reporting tables (Tables VI-VII, Fig 8; the counts
  and percentages are ``aggregated_country_query(store)``);
* :mod:`repro.analysis.delay` — per-source publishing-delay statistics
  (Fig 9, Table VIII);
* :mod:`repro.analysis.trends` — quarterly delay trends (Figs 10-11);
* :mod:`repro.analysis.clustering` — Markov clustering of co-reporting
  matrices (the paper's suggested cluster-discovery method);
* :mod:`repro.analysis.report` — plain-text table rendering used by the
  benchmark harness to print paper-style tables.
"""

from repro.analysis.activity import (
    articles_per_source,
    top_publishers,
    sources_per_quarter,
    events_per_quarter,
    articles_per_quarter,
    publisher_quarterly_series,
)
from repro.analysis.popularity import (
    DatasetStatistics,
    dataset_statistics,
    event_article_histogram,
    fit_power_law,
    top_events,
)
from repro.analysis.coreporting import (
    source_coreporting,
    source_coreporting_sparse,
)
from repro.analysis.followreporting import follow_reporting
from repro.analysis.delay import SourceDelayStats, per_source_delay_stats, delay_histogram, speed_groups
from repro.analysis.trends import quarterly_delay, late_articles_per_quarter
from repro.analysis.clustering import markov_clustering, sharpen_similarity
from repro.analysis.velocity import (
    WildfireCandidate,
    detect_wildfires,
    early_coverage,
    first_reaction_delays,
)
from repro.analysis.plots import ascii_heatmap, ascii_loglog, ascii_series
from repro.analysis.report import render_table

__all__ = [
    "articles_per_source",
    "top_publishers",
    "sources_per_quarter",
    "events_per_quarter",
    "articles_per_quarter",
    "publisher_quarterly_series",
    "DatasetStatistics",
    "dataset_statistics",
    "event_article_histogram",
    "fit_power_law",
    "top_events",
    "source_coreporting",
    "source_coreporting_sparse",
    "follow_reporting",
    "SourceDelayStats",
    "per_source_delay_stats",
    "delay_histogram",
    "speed_groups",
    "quarterly_delay",
    "late_articles_per_quarter",
    "markov_clustering",
    "sharpen_similarity",
    "WildfireCandidate",
    "detect_wildfires",
    "early_coverage",
    "first_reaction_delays",
    "render_table",
    "ascii_series",
    "ascii_loglog",
    "ascii_heatmap",
]
