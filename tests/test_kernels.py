"""The shared array kernels: ``distinct`` is NumPy's ``unique``, faster."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import distinct

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
