"""Follow-reporting f_ij vs a brute-force reference and the dense-table
algorithm it replaced."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analysis as an
from repro.analysis.followreporting import follow_reporting
from tests.conftest import mention_store


def brute_follow(store, ids):
    """Direct per-article implementation of the paper's definition."""
    ids = list(map(int, ids))
    k = len(ids)
    pos = {s: i for i, s in enumerate(ids)}
    sid = np.asarray(store.mentions["SourceId"])
    rows = store.mention_event_row()
    t = np.asarray(store.mentions["MentionInterval"])

    # First publication time per (event, chosen source).
    first: dict[tuple[int, int], int] = {}
    for m in range(store.n_mentions):
        s = int(sid[m])
        if s not in pos or rows[m] < 0:
            continue
        key = (int(rows[m]), pos[s])
        if key not in first or t[m] < first[key]:
            first[key] = int(t[m])

    n_ij = np.zeros((k, k), dtype=np.int64)
    n_j = np.zeros(k, dtype=np.int64)
    for m in range(store.n_mentions):
        s = int(sid[m])
        if s not in pos:
            continue
        j = pos[s]
        n_j[j] += 1
        if rows[m] < 0:
            continue
        e = int(rows[m])
        for i in range(k):
            ft = first.get((e, i))
            if ft is not None and ft < int(t[m]):
                n_ij[i, j] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(n_j[None, :] > 0, n_ij / n_j[None, :], 0.0)


class TestFollowReporting:
    def test_matches_brute_force(self, tiny_store):
        ids = an.top_publishers(tiny_store, 6)
        fast = follow_reporting(tiny_store, ids)
        slow = brute_follow(tiny_store, ids)
        assert np.allclose(fast, slow)

    def test_values_are_fractions(self, tiny_store):
        ids = an.top_publishers(tiny_store, 10)
        f = follow_reporting(tiny_store, ids)
        assert (f >= 0).all() and (f <= 1).all()

    def test_diagonal_counts_repeats(self, tiny_store):
        """f_jj > 0 requires repeat articles, which the generator creates."""
        ids = an.top_publishers(tiny_store, 10)
        f = follow_reporting(tiny_store, ids)
        assert np.diag(f).max() > 0

    def test_empty_selection(self, tiny_store):
        f = follow_reporting(tiny_store, np.array([], dtype=np.int64))
        assert f.shape == (0, 0)

    def test_single_source(self, tiny_store):
        ids = an.top_publishers(tiny_store, 1)
        f = follow_reporting(tiny_store, ids)
        assert f.shape == (1, 1)
        assert 0 <= f[0, 0] < 1

    def test_strictly_earlier_semantics(self, tiny_store):
        """A source's first article on an event never follows itself."""
        ids = an.top_publishers(tiny_store, 3)
        f = follow_reporting(tiny_store, ids)
        # If ties counted, the diagonal would approach 1; it must stay low.
        assert np.diag(f).max() < 0.5

    def test_group_members_follow_each_other_more(self, tiny_store, tiny_ds):
        ids = an.top_publishers(tiny_store, 10)
        gm = set(np.flatnonzero(tiny_ds.catalog.group_id == 0).tolist())
        in_group = np.array([int(s) in gm for s in ids])
        if in_group.sum() < 3:
            pytest.skip("seed produced too few group members in top-10")
        f = follow_reporting(tiny_store, ids)
        blk = f[np.ix_(in_group, in_group)]
        off = blk[~np.eye(len(blk), dtype=bool)]
        assert off.mean() > 0.01


def dense_table_follow(store, ids):
    """The earlier algorithm, kept as an oracle: the first-publication
    table has a row for every event in the store, and the whole
    ``MentionInterval`` column is widened."""
    ids = np.asarray(ids)
    k = len(ids)
    if k == 0:
        return np.zeros((0, 0))
    remap = np.full(store.n_sources, -1, dtype=np.int64)
    remap[ids] = np.arange(k)
    keys = remap[store.mentions["SourceId"]]
    rows = store.mention_event_row()
    t = store.mentions["MentionInterval"].astype(np.int64)
    sel = (keys >= 0) & (rows >= 0)
    e_sel, s_sel, t_sel = rows[sel], keys[sel], t[sel]
    n_j = np.bincount(keys[keys >= 0], minlength=k).astype(np.float64)
    first = np.full(store.n_events * k, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, e_sel * k + s_sel, t_sel)
    first = first.reshape(store.n_events, k)
    n_ij = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        n_ij[i] = np.bincount(s_sel[first[e_sel, i] < t_sel], minlength=k)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(n_j[None, :] > 0, n_ij / n_j[None, :], 0.0)


@st.composite
def _follow_cases(draw):
    """(store, ids) with k in {0, 1, 10}: intervals from a few values so
    first publications tie, dangling joins, and chosen sources with no
    joinable (or no) mention."""
    n_events = draw(st.integers(1, 30))
    n_sources = 14
    n = draw(st.integers(0, 150))
    rows = draw(st.lists(st.integers(-1, n_events - 1), min_size=n, max_size=n))
    sids = draw(st.lists(st.integers(0, 11), min_size=n, max_size=n))
    times = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    rows = [-1 if s == 11 else r for r, s in zip(rows, sids)]  # 11 only dangles
    store = mention_store(n_events, n_sources, rows, sids, times)
    k = draw(st.sampled_from([0, 1, 10]))
    ids = draw(st.permutations(range(n_sources)))[:k]  # 12, 13 never report
    return store, np.array(ids, dtype=np.int64)


class TestCompactTable:
    @settings(max_examples=200, deadline=None)
    @given(_follow_cases())
    def test_equals_dense_table_algorithm(self, case):
        store, ids = case
        got = follow_reporting(store, ids)
        want = dense_table_follow(store, ids)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_tied_first_publications_do_not_follow(self):
        # Event 0: sources 0 and 1 both first publish at 5; 1 again at 6.
        store = mention_store(3, 2, [0, 0, 0, 2], [0, 1, 1, 1], [5, 5, 6, 1])
        f = follow_reporting(store, np.array([0, 1]))
        assert f.tobytes() == dense_table_follow(store, np.array([0, 1])).tobytes()
        # n_ij[0, 1] = 1 (the 6 after 0's 5), n_ij[1, 1] = 1; n_1 = 3.
        assert f.tolist() == [[0.0, 1 / 3], [0.0, 1 / 3]]

    def test_matches_dense_table_on_tiny_store(self, tiny_store):
        ids = an.top_publishers(tiny_store, 10)
        got = follow_reporting(tiny_store, ids)
        assert got.tobytes() == dense_table_follow(tiny_store, ids).tobytes()
