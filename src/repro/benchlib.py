"""Shared experiment harness: every paper table/figure as a function.

Each ``tableN_*`` / ``figN_*`` function computes one of the paper's
artifacts from a loaded store and returns both the raw data and a
rendered text block, so the CLI, the examples, and the pytest-benchmark
suite all produce the same paper-style output.  Country matrices are
labeled with country names, publishers with anonymized letters A..J in
volume order, exactly as the paper prints them.
"""

from __future__ import annotations

import string
import time
from dataclasses import dataclass

import numpy as np

from repro import analysis as an
from repro.analysis.crossreporting import (
    publishing_country_order,
    reported_country_order,
)
from repro.engine import GdeltStore
from repro.engine.costmodel import calibrate_from_measurement
from repro.engine.executor import Executor, SerialExecutor, ThreadExecutor
from repro.engine.query import CountryQueryResult, aggregated_country_query
from repro.gdelt.codes import COUNTRIES
from repro.gdelt.time_util import quarter_label
from repro.obs.profile import QueryProfile
from repro.obs.trace import span as _span

__all__ = [
    "TableResult",
    "ScalingPoint",
    "fig12_scaling",
    "table1_dataset_statistics",
    "table3_top_events",
    "table4_follow_reporting",
    "table5_country_coreporting",
    "table6_cross_counts",
    "table7_cross_percentages",
    "table8_top_publisher_delays",
    "fig2_popularity_histogram",
    "fig3_sources_per_quarter",
    "fig4_events_per_quarter",
    "fig5_articles_per_quarter",
    "fig6_top_publisher_series",
    "fig7_follow_matrix_top50",
    "fig8_cross_matrix_top50",
    "fig9_delay_histograms",
    "fig10_quarterly_delay",
    "fig11_late_articles",
    "print_all_tables",
]

_FIPS = [c.fips for c in COUNTRIES]
_NAMES = [c.name for c in COUNTRIES]


@dataclass(slots=True)
class TableResult:
    """One reproduced artifact: raw data + rendered text."""

    name: str
    data: object
    text: str

    def __str__(self) -> str:
        return self.text


def _letters(k: int) -> list[str]:
    return list(string.ascii_uppercase[:k])


# --- tables -------------------------------------------------------------------


def table1_dataset_statistics(store: GdeltStore) -> TableResult:
    stats = an.dataset_statistics(store)
    text = an.render_table(
        ["Number of", "Value"], stats.as_table(), title="Table I: dataset statistics"
    )
    return TableResult("table1", stats, text)


def table3_top_events(store: GdeltStore, k: int = 10) -> TableResult:
    top = an.top_events(store, k)
    text = an.render_table(
        ["Mentions", "Event source URL"],
        top,
        title="Table III: most reported events",
    )
    return TableResult("table3", top, text)


def table4_follow_reporting(store: GdeltStore, k: int = 10) -> TableResult:
    ids = an.top_publishers(store, k)
    f = an.follow_reporting(store, ids)
    letters = _letters(len(ids))
    rows = [[letters[i]] + list(f[i]) for i in range(len(ids))]
    rows.append(["Sum"] + list(f.sum(axis=0)))
    text = an.render_table(
        ["First"] + letters,
        rows,
        title="Table IV: follow-reporting among top publishers (f_ij)",
    )
    return TableResult("table4", (ids, f), text)


def _country_block(
    matrix: np.ndarray, row_idx: np.ndarray, col_idx: np.ndarray
) -> list[list[object]]:
    return [
        [_NAMES[int(r)]] + [matrix[int(r), int(c)] for c in col_idx] for r in row_idx
    ]


def table5_country_coreporting(
    store: GdeltStore,
    result: CountryQueryResult | None = None,
    k: int = 10,
) -> TableResult:
    result = result or aggregated_country_query(store)
    jac = result.jaccard()
    pubs = publishing_country_order(result, k)
    rows = _country_block(jac, pubs, pubs)
    text = an.render_table(
        ["Country"] + [_NAMES[int(c)] for c in pubs],
        rows,
        title="Table V: common reporting between world regions (Jaccard)",
    )
    return TableResult("table5", (pubs, jac), text)


def table6_cross_counts(
    store: GdeltStore,
    result: CountryQueryResult | None = None,
    k: int = 10,
) -> TableResult:
    result = result or aggregated_country_query(store)
    reported = reported_country_order(store, result, k)
    pubs = publishing_country_order(result, k)
    rows = [
        [_NAMES[int(r)]] + [int(result.cross_counts[int(r), int(c)]) for c in pubs]
        for r in reported
    ]
    text = an.render_table(
        ["Reported \\ Publisher"] + [_NAMES[int(c)] for c in pubs],
        rows,
        title="Table VI: country cross-reporting (article counts)",
    )
    return TableResult("table6", (reported, pubs, result.cross_counts), text)


def table7_cross_percentages(
    store: GdeltStore,
    result: CountryQueryResult | None = None,
    k: int = 10,
) -> TableResult:
    result = result or aggregated_country_query(store)
    pct = result.percentages()
    reported = reported_country_order(store, result, k)
    pubs = publishing_country_order(result, k)
    rows = [
        [_NAMES[int(r)]] + [float(pct[int(r), int(c)]) for c in pubs]
        for r in reported
    ]
    text = an.render_table(
        ["Reported \\ Publisher"] + [_NAMES[int(c)] for c in pubs],
        rows,
        title="Table VII: country cross-reporting (% of publisher articles)",
        floatfmt=".2f",
    )
    return TableResult("table7", (reported, pubs, pct), text)


def table8_top_publisher_delays(store: GdeltStore, k: int = 10) -> TableResult:
    ids = an.top_publishers(store, k)
    stats = an.per_source_delay_stats(store)
    letters = _letters(len(ids))
    rows = [
        [
            letters[i],
            int(stats.min[s]),
            int(stats.max[s]),
            float(stats.mean[s]),
            float(stats.median[s]),
        ]
        for i, s in enumerate(ids)
    ]
    text = an.render_table(
        ["Publisher", "Min", "Max", "Average", "Median"],
        rows,
        title="Table VIII: publication delay of top publishers (15-min intervals)",
        floatfmt=".1f",
    )
    return TableResult("table8", (ids, stats), text)


# --- scaling (Fig 12) ---------------------------------------------------------


@dataclass(slots=True)
class ScalingPoint:
    """One thread count of the Fig 12 measurement.

    ``profile`` carries the per-chunk execution profile of the measured
    run (worker utilization, imbalance, scan bandwidth), so a scaling
    table can explain *why* a point falls off the ideal line, not just
    that it does.
    """

    threads: int
    seconds: float
    speedup: float
    kind: str  # "measured" | "model"
    profile: QueryProfile | None = None


def fig12_scaling(
    store: GdeltStore,
    thread_counts: tuple[int, ...] = (1, 2, 4),
    chunk_rows: int | None = None,
    model_counts: tuple[int, ...] = (),
) -> TableResult:
    """Measure the aggregated country query at several thread counts.

    Each point runs with profile collection on, so the returned
    :class:`ScalingPoint` list pairs every timing with its execution
    profile.  ``model_counts`` extends the curve with the analytic NUMA
    cost model calibrated from the single-thread measurement.
    """
    points: list[ScalingPoint] = []
    t1: float | None = None
    with _span("bench.fig12_scaling", threads=list(thread_counts)):
        for n in thread_counts:
            ex: Executor = SerialExecutor() if n == 1 else ThreadExecutor(n)
            t0 = time.perf_counter()
            result = aggregated_country_query(store, ex, chunk_rows, profile=True)
            dt = time.perf_counter() - t0
            ex.close()
            if n == 1:
                t1 = dt
            points.append(
                ScalingPoint(
                    threads=n,
                    seconds=dt,
                    speedup=(t1 / dt) if t1 else float("nan"),
                    kind="measured",
                    profile=result.profile,
                )
            )
    if model_counts and t1 is not None:
        model = calibrate_from_measurement(t1)
        for n in model_counts:
            pred = model.predict(n)
            points.append(ScalingPoint(n, pred, t1 / pred, "model"))

    rows = []
    for p in points:
        util = f"{p.profile.utilization():.2f}" if p.profile else "-"
        imb = f"{p.profile.imbalance():.2f}" if p.profile else "-"
        p95 = (
            f"{p.profile.chunk_percentiles()['p95'] * 1e3:.2f}"
            if p.profile
            else "-"
        )
        rows.append((p.threads, p.seconds, p.speedup, p.kind, util, imb, p95))
    text = an.render_table(
        ["threads", "seconds", "speedup", "kind", "util", "imbalance", "chunk_p95_ms"],
        rows,
        title="Aggregated country query scaling (Fig 12)",
    )
    return TableResult("fig12", points, text)


# --- figures (as data series + text sparklines) ----------------------------------


def _series_text(title: str, labels: list[str], values: np.ndarray) -> str:
    return an.ascii_series(labels, np.asarray(values), title=title)


def fig2_popularity_histogram(store: GdeltStore) -> TableResult:
    n, counts = an.event_article_histogram(store)
    slope, intercept = an.fit_power_law(n, counts, n_max=int(n.max()))
    text = an.ascii_loglog(
        n,
        counts,
        title=(
            f"Fig 2: events with n articles, log-log "
            f"({len(n)} support points, power-law slope {slope:.2f})"
        ),
    )
    return TableResult("fig2", {"n": n, "counts": counts, "slope": slope}, text)


def fig3_sources_per_quarter(store: GdeltStore) -> TableResult:
    v = an.sources_per_quarter(store)
    labels = [quarter_label(q) for q in range(len(v))]
    return TableResult(
        "fig3", v, _series_text("Fig 3: active sources per quarter", labels, v)
    )


def fig4_events_per_quarter(store: GdeltStore) -> TableResult:
    v = an.events_per_quarter(store)
    labels = [quarter_label(q) for q in range(len(v))]
    return TableResult(
        "fig4", v, _series_text("Fig 4: events per quarter", labels, v)
    )


def fig5_articles_per_quarter(store: GdeltStore) -> TableResult:
    v = an.articles_per_quarter(store)
    labels = [quarter_label(q) for q in range(len(v))]
    return TableResult(
        "fig5", v, _series_text("Fig 5: articles per quarter", labels, v)
    )


def fig6_top_publisher_series(store: GdeltStore, k: int = 10) -> TableResult:
    ids = an.top_publishers(store, k)
    series = an.publisher_quarterly_series(store, ids)
    names = [store.sources[int(s)] for s in ids]
    totals = series.sum(axis=1)
    lines = [f"Fig 6: quarterly articles of the top {k} publishers"]
    for i, name in enumerate(names):
        lines.append(f"  {name} ({int(totals[i]):,}): " + " ".join(map(str, series[i])))
    lines.append("")
    lines.append(
        an.ascii_heatmap(
            series,
            row_labels=[f"{n} ({int(t):,})" for n, t in zip(names, totals)],
            col_labels=[quarter_label(q)[-1] for q in range(series.shape[1])],
            title="publisher x quarter volume (shade = articles)",
            label_width=30,
        )
    )
    return TableResult("fig6", (ids, series), "\n".join(lines) + "\n")


def fig7_follow_matrix_top50(store: GdeltStore, k: int = 50) -> TableResult:
    ids = an.top_publishers(store, k)
    f = an.follow_reporting(store, ids)
    text = an.ascii_heatmap(
        f,
        row_labels=[store.sources[int(s)] for s in ids],
        title=(
            f"Fig 7: follow-reporting matrix of top {len(ids)} publishers "
            f"(mean {f.mean():.4f}, max {f.max():.3f}; "
            f"rows/cols in volume order)"
        ),
    )
    return TableResult("fig7", (ids, f), text)


def fig8_cross_matrix_top50(
    store: GdeltStore, result: CountryQueryResult | None = None, k: int = 50
) -> TableResult:
    result = result or aggregated_country_query(store)
    reported = reported_country_order(store, result, k)
    pubs = publishing_country_order(result, k)
    block = result.cross_counts[np.ix_(reported, pubs)]
    text = an.ascii_heatmap(
        block,
        row_labels=[_NAMES[int(r)] for r in reported],
        col_labels=[_NAMES[int(c)] for c in pubs],
        log=True,
        title=(
            f"Fig 8: {len(reported)}x{len(pubs)} country cross-reporting "
            f"(rows=reported-on, cols=publisher, log shade; "
            f"US row share {block[0].sum() / max(1, block.sum()):.2f})"
        ),
    )
    return TableResult("fig8", (reported, pubs, block), text)


def fig9_delay_histograms(store: GdeltStore) -> TableResult:
    stats = an.per_source_delay_stats(store)
    hists = {
        name: an.delay_histogram(getattr(stats, name), stats.count, log_bins=24)
        for name in ("min", "mean", "median", "max")
    }
    groups = an.speed_groups(stats)
    parts = [
        "Fig 9: per-source delay histograms; speed groups: "
        + ", ".join(f"{k}={len(v)}" for k, v in groups.items())
    ]
    for name, (edges, hist) in hists.items():
        labels = [f"{edges[i]:>7.0f}" for i in range(len(hist))]
        parts.append(
            an.ascii_series(
                labels,
                hist,
                title=f"-- {name} delay per source (log bins, intervals) --",
                width=40,
            )
        )
    return TableResult("fig9", (stats, hists, groups), "\n".join(parts))


def fig10_quarterly_delay(store: GdeltStore) -> TableResult:
    qd = an.quarterly_delay(store)
    labels = [quarter_label(q) for q in range(len(qd.mean))]
    rows = [
        (labels[q], float(qd.mean[q]), float(qd.median[q]))
        for q in range(len(labels))
    ]
    text = an.render_table(
        ["quarter", "avg delay", "median delay"],
        rows,
        title="Fig 10: aggregated quarterly publishing delay",
        floatfmt=".1f",
    )
    text += "\n" + an.ascii_series(
        labels, np.nan_to_num(qd.mean), title="Fig 10a: average delay", width=40
    )
    text += "\n" + an.ascii_series(
        labels, np.nan_to_num(qd.median), title="Fig 10b: median delay", width=40
    )
    return TableResult("fig10", qd, text)


def fig11_late_articles(store: GdeltStore) -> TableResult:
    v = an.late_articles_per_quarter(store)
    labels = [quarter_label(q) for q in range(len(v))]
    return TableResult(
        "fig11",
        v,
        _series_text("Fig 11: articles with delay > 24h per quarter", labels, v),
    )


def print_all_tables(
    store: GdeltStore, top: int = 10, executor: Executor | None = None
) -> None:
    """Print every reproduced table (the CLI ``tables`` command)."""
    result = aggregated_country_query(store, executor)
    print(table1_dataset_statistics(store).text)
    print(table3_top_events(store, top).text)
    print(table4_follow_reporting(store, top).text)
    print(table5_country_coreporting(store, result, top).text)
    print(table6_cross_counts(store, result, top).text)
    print(table7_cross_percentages(store, result, top).text)
    print(table8_top_publisher_delays(store, top).text)
