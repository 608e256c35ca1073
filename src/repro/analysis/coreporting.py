"""Co-reporting matrices: Section VI-B.

Co-reporting of two sources (or countries) is the Jaccard index of their
event sets:

    c_ij = e_ij / (e_i + e_j - e_ij)

The paper argues for a *dense* accumulation (21k x 21k fits in 1.8 GB
and takes a huge update stream well) with a *sparse quarterly assembly*
as the scaling fallback; both strategies are implemented here and
benchmarked against each other in the ablation suite.  The dense one
accumulates Mᵀ M over fixed blocks of the event rows the chosen sources
reported on, so its scratch is one block x k matrix whatever the event
count; the sparse one unions the quarters' (event, source) pairs and
counts them with :func:`repro.kernels.cooccurrence`.  Both need NumPy
only.  Table V's country matrix comes from
``aggregated_country_query(store).jaccard()``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.store import GdeltStore
from repro.kernels import cooccurrence, distinct

__all__ = [
    "source_coreporting",
    "source_coreporting_sparse",
    "jaccard_from_co_counts",
]

#: Event rows per block of the dense accumulation: its float32 scratch
#: is ``_BLOCK_ROWS x k`` (0.8 MB at top-50) and a block's co-counts stay
#: far below 2**24, where float32 stops counting exactly.
_BLOCK_ROWS = 4096


def _incidence(
    store: GdeltStore, source_ids: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(mask, event_row, mapped source key, k) of the joinable mentions
    by chosen sources; ``mask`` selects them from the mentions table."""
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
    return ok, rows[ok], keys[ok], k


def source_coreporting(
    store: GdeltStore, source_ids: np.ndarray | None = None
) -> np.ndarray:
    """Dense co-reporting Jaccard matrix for the chosen sources.

    The dense strategy of the paper: e_ij = Mᵀ M over the event x source
    boolean incidence M, accumulated one block of ``_BLOCK_ROWS`` event
    rows at a time in one reused scratch block (only the cells a block
    set are reset).  Rows of events no chosen source reported on are
    zero and add nothing, so blocks run over the other events only.
    """
    _, rows, keys, k = _incidence(store, source_ids)
    pair = distinct(rows * np.int64(k) + keys)
    pair_event, pair_key = pair // k, pair % k
    events = distinct(pair_event)
    rank = np.searchsorted(events, pair_event)
    cuts = np.searchsorted(rank, np.arange(0, len(events) + _BLOCK_ROWS, _BLOCK_ROWS))
    co = np.zeros((k, k), dtype=np.int64)
    # float32 keeps the matmul on the BLAS fast path and is exact here.
    inc = np.zeros((_BLOCK_ROWS, k), dtype=np.float32)
    for b in range(len(cuts) - 1):
        r = rank[cuts[b]:cuts[b + 1]] - b * _BLOCK_ROWS
        c = pair_key[cuts[b]:cuts[b + 1]]
        inc[r, c] = 1.0
        co += np.rint(inc.T @ inc).astype(np.int64)
        inc[r, c] = 0.0
    return jaccard_from_co_counts(co)


def source_coreporting_sparse(
    store: GdeltStore,
    source_ids: np.ndarray | None = None,
    quarter_chunks: bool = True,
) -> np.ndarray:
    """Sparse-assembled co-reporting Jaccard matrix.

    The paper's scaling fallback: assemble the incidence per quarter
    (only sources active in that quarter contribute) as sorted distinct
    (event, source) pairs, union the quarters so an event spanning
    quarters counts once, and count e_ij from the union's pairs.
    Produces exactly the same matrix as :func:`source_coreporting`.
    """
    ok, rows, keys, k = _incidence(store, source_ids)
    flat = rows * np.int64(k) + keys
    if quarter_chunks:
        quarter = store.mention_quarter()[ok]
        parts = [distinct(flat[quarter == q]) for q in distinct(quarter)]
        pair = distinct(np.concatenate(parts)) if parts else flat
    else:
        pair = distinct(flat)
    return jaccard_from_co_counts(cooccurrence(pair // k, pair % k, k))


def jaccard_from_co_counts(co: np.ndarray) -> np.ndarray:
    """Jaccard matrix from a co-count matrix whose diagonal holds e_i."""
    e = np.diag(co).astype(np.float64)
    denom = e[:, None] + e[None, :] - co
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, co / denom, 0.0)
    np.fill_diagonal(out, 0.0)
    return out
