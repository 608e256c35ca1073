"""Co-reporting matrices: Jaccard properties, dense/sparse equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analysis as an
from repro.analysis import coreporting
from repro.analysis.coreporting import jaccard_from_co_counts
from tests.conftest import mention_store


class TestJaccard:
    def test_dense_matches_brute_force_pairs(self, tiny_store):
        ids = an.top_publishers(tiny_store, 6)
        j = an.source_coreporting(tiny_store, ids)
        sid = np.asarray(tiny_store.mentions["SourceId"])
        rows = tiny_store.mention_event_row()
        sets = [set(np.unique(rows[sid == s]).tolist()) for s in ids]
        for a in range(6):
            for b in range(6):
                if a == b:
                    continue
                inter = len(sets[a] & sets[b])
                union = len(sets[a] | sets[b])
                want = inter / union if union else 0.0
                assert j[a, b] == pytest.approx(want)

    def test_symmetric_zero_diagonal(self, tiny_store):
        ids = an.top_publishers(tiny_store, 10)
        j = an.source_coreporting(tiny_store, ids)
        assert np.allclose(j, j.T)
        assert (np.diag(j) == 0).all()
        assert (j >= 0).all() and (j <= 1).all()

    def test_sparse_equals_dense(self, tiny_store):
        ids = an.top_publishers(tiny_store, 25)
        dense = an.source_coreporting(tiny_store, ids)
        sparse_q = an.source_coreporting_sparse(tiny_store, ids, quarter_chunks=True)
        sparse_1 = an.source_coreporting_sparse(tiny_store, ids, quarter_chunks=False)
        assert np.allclose(dense, sparse_q)
        assert np.allclose(dense, sparse_1)

    def test_all_sources_matrix_shape(self, tiny_store):
        j = an.source_coreporting(tiny_store)
        assert j.shape == (tiny_store.n_sources, tiny_store.n_sources)

    def test_media_group_block_stands_out(self, tiny_store, tiny_ds):
        """Fig 7's structure: the co-owned block co-reports far more than
        independents do."""
        ids = an.top_publishers(tiny_store, 50)
        j = an.source_coreporting(tiny_store, ids)
        gm = set(np.flatnonzero(tiny_ds.catalog.group_id == 0).tolist())
        in_group = np.array([int(s) in gm for s in ids])
        assert in_group.sum() >= 6
        blk = j[np.ix_(in_group, in_group)]
        rest = j[np.ix_(~in_group, ~in_group)]
        off = lambda m: m[~np.eye(len(m), dtype=bool)].mean()  # noqa: E731
        assert off(blk) > 1.8 * off(rest)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 30), min_size=0, max_size=20),
            min_size=2,
            max_size=6,
        )
    )
    def test_jaccard_from_counts_property(self, event_sets):
        """jaccard_from_co_counts must equal set-based Jaccard."""
        sets = [set(s) for s in event_sets]
        k = len(sets)
        co = np.zeros((k, k), dtype=np.int64)
        for a in range(k):
            for b in range(k):
                co[a, b] = len(sets[a] & sets[b])
        j = jaccard_from_co_counts(co)
        for a in range(k):
            for b in range(k):
                if a == b:
                    assert j[a, b] == 0
                else:
                    union = len(sets[a] | sets[b])
                    want = len(sets[a] & sets[b]) / union if union else 0.0
                    assert j[a, b] == pytest.approx(want)


@st.composite
def _mentions(draw):
    """(store, source_ids or None) of a random small mention table:
    dangling joins, sources with no joinable mention and events spread
    over several quarters (a quarter is 8 640 intervals)."""
    n_events = draw(st.integers(1, 40))
    n_sources = draw(st.integers(1, 9))
    n = draw(st.integers(0, 120))
    row = st.integers(-1, n_events - 1)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    sids = draw(st.lists(st.integers(0, n_sources - 1), min_size=n, max_size=n))
    times = draw(st.lists(st.integers(0, 40_000), min_size=n, max_size=n))
    store = mention_store(n_events, n_sources, rows, sids, times)
    ids = draw(st.none() | st.lists(st.integers(0, n_sources - 1), unique=True))
    return store, ids if ids is None else np.array(ids, dtype=np.int64)


def _unblocked_float64(store, ids):
    """The dense strategy without blocks, in float64: one n_events x k
    incidence matrix and one product."""
    sid = np.asarray(store.mentions["SourceId"])
    rows = store.mention_event_row()
    ids = np.arange(store.n_sources) if ids is None else ids
    inc = np.zeros((store.n_events, len(ids)), dtype=np.float64)
    for j, s in enumerate(ids):
        hit = (sid == s) & (rows >= 0)
        inc[rows[hit], j] = 1.0
    return jaccard_from_co_counts(np.rint(inc.T @ inc).astype(np.int64))


class TestBlockedDense:
    """``source_coreporting`` accumulates Mᵀ M over blocks of the event
    rows the chosen sources reported on; a small block makes every corpus
    here span several blocks."""

    @settings(max_examples=150, deadline=None)
    @given(_mentions(), st.sampled_from([1, 3, 4, 7]))
    def test_equals_unblocked_reference(self, case, block):
        store, ids = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coreporting, "_BLOCK_ROWS", block)
            got = an.source_coreporting(store, ids)
        want = _unblocked_float64(store, ids)
        assert got.tobytes() == want.tobytes()
        sparse = an.source_coreporting_sparse(store, ids)
        assert sparse.tobytes() == want.tobytes()

    def test_events_only_in_the_last_block(self, monkeypatch):
        monkeypatch.setattr(coreporting, "_BLOCK_ROWS", 4)
        rows = [9, 9, 10, 10, 10, 8, 9]  # n_events 11: the last 4-row block is rows 8-10
        sids = [0, 1, 0, 1, 2, 2, 2]
        store = mention_store(11, 4, rows, sids, [5] * len(rows))
        ids = np.array([2, 0, 1, 3])  # source 3 has no mention at all
        got = an.source_coreporting(store, ids)
        assert got.tobytes() == _unblocked_float64(store, ids).tobytes()
        assert got[1, 2] == 1.0 and got[0, 1] == pytest.approx(2 / 3)
        assert not got[3].any()

    def test_chosen_sources_without_joinable_mentions(self, monkeypatch):
        monkeypatch.setattr(coreporting, "_BLOCK_ROWS", 2)
        store = mention_store(5, 3, [-1, -1, 0, 4], [0, 0, 1, 1], [1, 2, 3, 4])
        ids = np.array([0, 2])  # 0 only dangles, 2 never reports
        got = an.source_coreporting(store, ids)
        assert got.tobytes() == np.zeros((2, 2)).tobytes()
        assert an.source_coreporting(store, ids[:0]).shape == (0, 0)
