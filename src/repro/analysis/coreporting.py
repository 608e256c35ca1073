"""Co-reporting matrices: Section VI-B/VI-C, Table V.

Co-reporting of two sources (or countries) is the Jaccard index of their
event sets:

    c_ij = e_ij / (e_i + e_j - e_ij)

The paper argues for a *dense* accumulation (21k x 21k fits in 1.8 GB
and takes a huge update stream well) with a *sparse quarterly assembly*
as the scaling fallback; both strategies are implemented here and
benchmarked against each other in the ablation suite.
"""

from __future__ import annotations

import numpy as np

from repro.engine.executor import Executor, SerialExecutor
from repro.engine.query import aggregated_country_query
from repro.engine.store import GdeltStore
from repro.kernels import distinct

__all__ = [
    "source_event_counts",
    "source_coreporting",
    "source_coreporting_sparse",
    "jaccard_from_co_counts",
    "country_coreporting",
]


def _incidence(
    store: GdeltStore, source_ids: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """(event_row, mapped source key) per mention, for chosen sources."""
    sid = store.mentions["SourceId"]
    rows = store.mention_event_row()
    if source_ids is None:
        keys = sid
        k = store.n_sources
    else:
        source_ids = np.asarray(source_ids)
        remap = np.full(store.n_sources, -1, dtype=np.int64)
        remap[source_ids] = np.arange(len(source_ids))
        keys = remap[sid]
        k = len(source_ids)
    ok = (rows >= 0) & (keys >= 0)
    return rows[ok], keys[ok], k


def source_event_counts(
    store: GdeltStore, source_ids: np.ndarray | None = None
) -> np.ndarray:
    """e_i: number of *distinct* events each chosen source reported on."""
    rows, keys, k = _incidence(store, source_ids)
    pair = distinct(rows * np.int64(k) + keys)
    return np.bincount((pair % k).astype(np.int64), minlength=k).astype(np.int64)


def source_coreporting(
    store: GdeltStore, source_ids: np.ndarray | None = None
) -> np.ndarray:
    """Dense co-reporting Jaccard matrix for the chosen sources.

    Builds the event x source boolean incidence matrix and computes
    e_ij = Mᵀ M with one matmul — the dense strategy of the paper.
    """
    rows, keys, k = _incidence(store, source_ids)
    # float32 keeps the matmul on the BLAS fast path and is exact here:
    # co-counts are bounded by n_events, far below 2**24.
    inc = np.zeros((store.n_events, k), dtype=np.float32)
    inc[rows, keys] = 1.0
    co = np.rint(inc.T @ inc).astype(np.int64)
    return jaccard_from_co_counts(co)


def source_coreporting_sparse(
    store: GdeltStore,
    source_ids: np.ndarray | None = None,
    quarter_chunks: bool = True,
) -> np.ndarray:
    """Sparse-assembled co-reporting Jaccard matrix.

    The paper's scaling fallback: build per-quarter sparse incidence
    matrices (only sources active in that quarter contribute), accumulate
    e_ij as a sparse matrix sum, then densify only for the final Jaccard.
    Produces exactly the same matrix as :func:`source_coreporting`.
    """
    import scipy.sparse as sp  # only this fallback needs it

    rows, keys, k = _incidence(store, source_ids)

    def inc_matrix(r: np.ndarray, c: np.ndarray) -> sp.csr_matrix:
        pair = distinct(r * np.int64(k) + c)
        return sp.csr_matrix(
            (
                np.ones(len(pair), dtype=np.int64),
                ((pair // k).astype(np.int64), (pair % k).astype(np.int64)),
            ),
            shape=(store.n_events, k),
        )

    if quarter_chunks and len(rows):
        # Per-quarter incidence matrices ORed together before the single
        # e_ij matmul, so an event spanning quarters counts once.
        q_all = store.mention_quarter()
        sid = store.mentions["SourceId"]
        ev_rows_all = store.mention_event_row()
        if source_ids is None:
            keys_all = sid
        else:
            remap = np.full(store.n_sources, -1, dtype=np.int64)
            remap[np.asarray(source_ids)] = np.arange(k)
            keys_all = remap[sid]
        ok = (ev_rows_all >= 0) & (keys_all >= 0)
        acc: sp.csr_matrix | None = None
        for quarter in range(store.n_quarters()):
            m = ok & (q_all == quarter)
            if not m.any():
                continue
            inc = inc_matrix(ev_rows_all[m], keys_all[m])
            acc = inc if acc is None else acc.maximum(inc)
        if acc is None:
            acc = sp.csr_matrix((store.n_events, k), dtype=np.int64)
    else:
        acc = inc_matrix(rows, keys)

    co = (acc.T @ acc).astype(np.int64)
    return jaccard_from_co_counts(co.toarray())


def jaccard_from_co_counts(co: np.ndarray) -> np.ndarray:
    """Jaccard matrix from a co-count matrix whose diagonal holds e_i."""
    e = np.diag(co).astype(np.float64)
    denom = e[:, None] + e[None, :] - co
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, co / denom, 0.0)
    np.fill_diagonal(out, 0.0)
    return out


def country_coreporting(
    store: GdeltStore, executor: Executor | None = None
) -> np.ndarray:
    """Table V: country-level co-reporting Jaccard (roster-indexed)."""
    res = aggregated_country_query(store, executor or SerialExecutor())
    return res.jaccard()
