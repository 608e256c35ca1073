"""The shared array kernels: ``distinct`` is NumPy's ``unique``, faster;
``cooccurrence`` is the ``IᵀI`` of a 0/1 incidence matrix."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import cooccurrence, distinct, stable_order

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestDistinct:
    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_numpy_unique_for_integers(self, dtype, data):
        keys = data.draw(hnp.arrays(dtype, st.integers(0, 300)))
        _same(distinct(keys), np.unique(keys))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.int64, st.integers(0, 300),
                      elements=st.integers(-5, 5)))
    def test_negatives_and_repeats(self, keys):
        _same(distinct(keys), np.unique(keys))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 100),
                      elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_floats_collapse_nans_like_numpy(self, keys):
        _same(distinct(keys), np.unique(keys))

    @pytest.mark.parametrize("dtype", INT_DTYPES + [np.float32, np.float64],
                             ids=lambda d: np.dtype(d).name)
    def test_empty(self, dtype):
        _same(distinct(np.empty(0, dtype=dtype)), np.unique(np.empty(0, dtype=dtype)))

    @pytest.mark.parametrize("value", [-7, 0, 42])
    def test_all_equal(self, value):
        keys = np.full(1000, value, dtype=np.int64)
        _same(distinct(keys), np.array([value], dtype=np.int64))

    def test_lists_and_2d_flatten(self):
        _same(distinct([3, 1, 3, 2]), np.unique([3, 1, 3, 2]))
        grid = np.array([[2, 1], [1, 0]], dtype=np.int32)
        _same(distinct(grid), np.unique(grid))

    def test_strings(self):
        keys = np.array(["b", "a", "b", ""])
        _same(distinct(keys), np.unique(keys))

    def test_input_untouched(self):
        keys = np.array([3, 1, 2], dtype=np.int64)
        distinct(keys)
        assert keys.tolist() == [3, 1, 2]


class TestStableOrder:
    """The radix passes give ``np.argsort(kind="stable")``'s permutation,
    ties in input order, whatever path the key range takes."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.int16, np.uint16, np.int32, np.int64, np.uint64]),
        high=st.sampled_from([1, 3, 1 << 16, (1 << 16) + 1, 1 << 32, (1 << 32) + 5]),
    )
    def test_equals_stable_argsort(self, data, dtype, high):
        high = min(high, int(np.iinfo(dtype).max) + 1)
        low = 0 if np.iinfo(dtype).min == 0 else -data.draw(st.sampled_from([0, 2]))
        keys = np.array(
            data.draw(st.lists(st.integers(low, high - 1), max_size=300)), dtype=dtype
        )
        got = stable_order(keys)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    def test_ties_keep_input_order_across_both_passes(self):
        keys = np.array([70_000, 5, 70_000, 5, 1 << 20, 70_000], dtype=np.int64)
        assert stable_order(keys).tolist() == [1, 3, 0, 2, 5, 4]

    def test_empty_and_non_integer_keys(self):
        assert stable_order(np.empty(0, dtype=np.int64)).tolist() == []
        floats = np.array([2.5, -1.0, 2.5, 0.0])
        assert np.array_equal(stable_order(floats), np.argsort(floats, kind="stable"))


def _brute_cooccurrence(groups, keys, k: int, n_groups: int) -> np.ndarray:
    """Dense ``IᵀI`` of the (group x key) 0/1 incidence matrix."""
    inc = np.zeros((n_groups, k), dtype=np.int64)
    inc[np.asarray(groups, dtype=np.int64), np.asarray(keys, dtype=np.int64)] = 1
    return inc.T @ inc


@st.composite
def _pair_sets(draw):
    """(groups, keys, k, n_groups): distinct pairs sorted by group, keys
    in any order within a group."""
    k = draw(st.integers(1, 12))
    n_groups = draw(st.integers(1, 15))
    pairs = draw(st.sets(st.tuples(st.integers(0, n_groups - 1),
                                   st.integers(0, k - 1)), max_size=80))
    pairs = draw(st.permutations(sorted(pairs)))
    pairs = sorted(pairs, key=lambda p: p[0])  # stable: within-group order kept
    groups = np.array([g for g, _ in pairs], dtype=np.int64)
    keys = np.array([c for _, c in pairs], dtype=np.int64)
    return groups, keys, k, n_groups


class TestCooccurrence:
    @settings(max_examples=150, deadline=None)
    @given(_pair_sets())
    def test_equals_brute_force_incidence_product(self, case):
        groups, keys, k, n_groups = case
        got = cooccurrence(groups, keys, k)
        assert got.dtype == np.int64 and got.shape == (k, k)
        assert np.array_equal(got, _brute_cooccurrence(groups, keys, k, n_groups))

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        for k in (0, 1, 5):
            got = cooccurrence(empty, empty, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.zeros((k, k), dtype=np.int64))

    def test_single_group(self):
        got = cooccurrence(np.zeros(3, dtype=np.int64), np.array([4, 0, 2]), 5)
        assert np.array_equal(got, _brute_cooccurrence([0, 0, 0], [4, 0, 2], 5, 1))

    def test_group_holding_every_key(self):
        k = 9
        groups = np.array([0] + [1] * k + [2, 2], dtype=np.int64)
        keys = np.concatenate([[3], np.arange(k)[::-1], [1, 7]])
        got = cooccurrence(groups, keys, k)
        assert np.array_equal(got, _brute_cooccurrence(groups, keys, k, 3))
        assert (got[np.triu_indices(k, 1)] >= 1).all()

    def test_one_key(self):
        groups = np.array([0, 3, 4, 9], dtype=np.int64)
        got = cooccurrence(groups, np.zeros(4, dtype=np.int64), 1)
        assert got.tolist() == [[4]]

    def test_diagonal_counts_groups_per_key(self):
        groups = np.array([0, 0, 1, 2, 2, 2], dtype=np.int32)
        keys = np.array([0, 1, 1, 0, 1, 2], dtype=np.int16)
        got = cooccurrence(groups, keys, 3)
        assert np.diag(got).tolist() == [2, 3, 1]
        assert got.tolist() == [[2, 2, 1], [2, 3, 1], [1, 1, 1]]
