"""Grouped aggregation kernels vs brute-force references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregate import (
    group_count,
    group_count_2d,
    group_max,
    group_mean,
    group_median,
    group_min,
    group_sum,
)

N_GROUPS = 6


@st.composite
def keyed_values(draw):
    n = draw(st.integers(0, 120))
    keys = draw(
        st.lists(st.integers(-1, N_GROUPS - 1), min_size=n, max_size=n)
    )
    values = draw(
        st.lists(
            st.integers(-1000, 1000), min_size=n, max_size=n
        )
    )
    return np.array(keys, dtype=np.int64), np.array(values, dtype=np.int64)


def brute(keys, values, mask=None):
    """Per-group python-side reference."""
    groups = {g: [] for g in range(N_GROUPS)}
    for i, (k, v) in enumerate(zip(keys, values)):
        if k < 0:
            continue
        if mask is not None and not mask[i]:
            continue
        groups[int(k)].append(int(v))
    return groups


class TestGroupKernels:
    @settings(max_examples=80, deadline=None)
    @given(keyed_values())
    def test_count_sum(self, kv):
        keys, values = kv
        ref = brute(keys, values)
        assert group_count(keys, N_GROUPS).tolist() == [
            len(ref[g]) for g in range(N_GROUPS)
        ]
        assert group_sum(keys, values, N_GROUPS).tolist() == [
            float(sum(ref[g])) for g in range(N_GROUPS)
        ]

    @settings(max_examples=80, deadline=None)
    @given(keyed_values())
    def test_min_max(self, kv):
        keys, values = kv
        ref = brute(keys, values)
        mn = group_min(keys, values, N_GROUPS)
        mx = group_max(keys, values, N_GROUPS, empty=-(2**40))
        for g in range(N_GROUPS):
            if ref[g]:
                assert mn[g] == min(ref[g])
                assert mx[g] == max(ref[g])

    @settings(max_examples=80, deadline=None)
    @given(keyed_values())
    def test_mean_median(self, kv):
        keys, values = kv
        ref = brute(keys, values)
        mean = group_mean(keys, values, N_GROUPS)
        med = group_median(keys, values, N_GROUPS)
        for g in range(N_GROUPS):
            if ref[g]:
                assert mean[g] == pytest.approx(np.mean(ref[g]))
                assert med[g] == pytest.approx(np.median(ref[g]))
            else:
                assert np.isnan(mean[g])
                assert np.isnan(med[g])

    @settings(max_examples=60, deadline=None)
    @given(keyed_values(), st.integers(0, 2**32 - 1))
    def test_mask_respected(self, kv, seed):
        keys, values = kv
        mask = np.random.default_rng(seed).random(len(keys)) < 0.5
        ref = brute(keys, values, mask)
        assert group_count(keys, N_GROUPS, mask).tolist() == [
            len(ref[g]) for g in range(N_GROUPS)
        ]

    def test_negative_keys_dropped(self):
        keys = np.array([-1, 0, -1, 1])
        values = np.array([100, 1, 100, 2])
        assert group_sum(keys, values, 2).tolist() == [1.0, 2.0]

    def test_chunked_count_additivity(self):
        """Chunk partials must sum to the full result (executor contract)."""
        rng = np.random.default_rng(0)
        keys = rng.integers(0, N_GROUPS, 10_000)
        full = group_count(keys, N_GROUPS)
        parts = sum(
            group_count(keys[i : i + 1000], N_GROUPS) for i in range(0, 10_000, 1000)
        )
        assert np.array_equal(full, parts)


_KERNELS = {
    "count": lambda k, v, n, m: group_count(k, n, m),
    "sum": group_sum,
    "min": group_min,
    "max": group_max,
    "mean": group_mean,
    "median": group_median,
    "count_2d": lambda k, v, n, m: group_count_2d(k, k[::-1].copy(), (n, n), m),
}


@st.composite
def narrow_case(draw):
    """Keys in a narrow dtype (negatives only where signed), values of any
    stored width, an optional mask; empty and all-dropped inputs included."""
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.uint16]))
    n = draw(st.integers(0, 120))
    lowest = -1 if np.issubdtype(dtype, np.signedinteger) else 0
    keys = draw(st.lists(st.integers(lowest, N_GROUPS - 1), min_size=n, max_size=n))
    if lowest < 0 and draw(st.booleans()):
        keys = [-1] * n  # every row dropped
    vdtype = draw(st.sampled_from([np.int16, np.int32, np.int64, np.float32]))
    values = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    return np.array(keys, dtype=dtype), np.array(values, dtype=vdtype), mask


class TestNarrowKeys:
    """Keys are read at stored width: a narrow key gives the bytes and the
    dtype an int64 key gives, for every kernel."""

    @settings(max_examples=150, deadline=None)
    @given(narrow_case(), st.sampled_from(sorted(_KERNELS)))
    def test_same_bytes_as_int64_keys(self, case, kernel):
        keys, values, mask = case
        fn = _KERNELS[kernel]
        got = fn(keys, values, N_GROUPS, mask)
        want = fn(keys.astype(np.int64), values, N_GROUPS, mask)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_does_not_mutate_inputs(self):
        keys = np.array([0, 1, 2, 1], dtype=np.int16)
        values = np.array([4, 3, 2, 1], dtype=np.int32)
        before = keys.copy(), values.copy()
        for fn in _KERNELS.values():
            fn(keys, values, N_GROUPS, None)
        assert np.array_equal(keys, before[0]) and np.array_equal(values, before[1])


class TestTwoKeyKernels:
    def test_count_2d_brute(self):
        rng = np.random.default_rng(3)
        ki = rng.integers(-1, 4, 300)
        kj = rng.integers(-1, 5, 300)
        got = group_count_2d(ki, kj, (4, 5))
        want = np.zeros((4, 5), dtype=np.int64)
        for a, b in zip(ki, kj):
            if a >= 0 and b >= 0:
                want[a, b] += 1
        assert np.array_equal(got, want)

    def test_count_2d_total(self):
        rng = np.random.default_rng(5)
        ki = rng.integers(0, 7, 1000)
        kj = rng.integers(0, 7, 1000)
        assert group_count_2d(ki, kj, (7, 7)).sum() == 1000

    def test_empty_input(self):
        e = np.array([], dtype=np.int64)
        assert group_count_2d(e, e, (3, 3)).sum() == 0
        assert group_count(e, 3).tolist() == [0, 0, 0]
