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
    group_stats_dict,
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


def lexsort_median(keys, values, n_groups, mask=None):
    """``group_median`` as it was before the composite-key sort: one
    ``np.lexsort`` by (key, value) at stored width, kept as the oracle
    the kernel must match byte for byte."""
    keep = keys >= 0
    if mask is not None:
        keep = keep & mask
    k, v = (keys, values) if keep.all() else (keys[keep], values[keep])
    order = np.lexsort((v, k))
    k = k[order]
    v = v[order]
    out = np.full(n_groups, np.nan)
    if len(k) == 0:
        return out
    starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    ends = np.concatenate([starts[1:], [len(k)]])
    counts = ends - starts
    lower = v[starts + (counts - 1) // 2].astype(np.float64)
    upper = v[starts + counts // 2].astype(np.float64)
    out[k[starts]] = (lower + upper) / 2.0
    return out


_INT_VALUES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]
_SPECIAL_FLOATS = [
    np.nan, -np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 0.0, -0.0,
]


@st.composite
def median_case(draw):
    """Keys of any contract dtype (negatives where signed), values of any
    integer or float dtype — full-range, clustered, at the dtype's ends,
    or (floats) NaN of either sign, ±inf and ±0.0 — and an optional mask.
    Few rows over up to 8 groups, so empty and one-row groups are common."""
    n_groups = draw(st.integers(1, 8))
    n = draw(st.integers(0, 60))
    kdtype = draw(st.sampled_from(
        [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32]
    ))
    lowest = -1 if np.issubdtype(kdtype, np.signedinteger) else 0
    keys = draw(st.lists(st.integers(lowest, n_groups - 1), min_size=n, max_size=n))
    vdtype = draw(st.sampled_from([*_INT_VALUES, np.float32, np.float64]))
    if np.issubdtype(vdtype, np.integer):
        info = np.iinfo(vdtype)
        element = st.one_of(
            st.integers(int(info.min), int(info.max)),
            st.integers(max(int(info.min), -3), min(int(info.max), 3)),
            st.sampled_from([int(info.min), int(info.max)]),
        )
    else:
        width = 32 if vdtype == np.float32 else 64
        element = st.one_of(
            st.floats(width=width), st.sampled_from(_SPECIAL_FLOATS)
        )
    values = draw(st.lists(element, min_size=n, max_size=n))
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    return (
        np.array(keys, dtype=kdtype), np.array(values, dtype=vdtype), n_groups, mask,
    )


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def lexsort_calls(monkeypatch):
    """How often ``np.lexsort`` ran since the test began."""
    calls = []
    real = np.lexsort

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", spy)
    return calls


class TestMedianAgainstLexsort:
    """The composite-key ``group_median`` answers with the bytes of the
    ``lexsort`` one on every input, including its fallbacks."""

    @settings(max_examples=400, deadline=None)
    @given(median_case())
    def test_same_bytes_as_lexsort(self, case):
        keys, values, n_groups, mask = case
        # Integer composites wrap only where the arithmetic is meant to;
        # float inputs may overflow or meet inf - inf in either kernel.
        errors = "raise" if values.dtype.kind in "iu" else "ignore"
        with np.errstate(all=errors):
            got = group_median(keys, values, n_groups, mask)
            want = lexsort_median(keys, values, n_groups, mask)
        _same_bytes(got, want)

    @settings(max_examples=100, deadline=None)
    @given(median_case())
    def test_stats_dict_unchanged(self, case):
        keys, values, n_groups, mask = case
        keep = keys >= 0 if mask is None else (keys >= 0) & mask
        k, v = keys[keep], values[keep]
        with np.errstate(all="ignore"):  # NaN and inf through min/max/mean
            got = group_stats_dict(k, v, n_groups)
            want = {
                "min": group_min(k, v, n_groups),
                "max": group_max(k, v, n_groups),
                "mean": group_mean(k, v, n_groups),
                "median": lexsort_median(k, v, n_groups),
            }
        assert list(got) == list(want)
        for name in want:
            _same_bytes(got[name], want[name])

    @pytest.mark.parametrize("dtype", _INT_VALUES)
    def test_integer_values_sort_one_composite_key(self, dtype, lexsort_calls):
        info = np.iinfo(dtype)
        hi = int(info.max)
        lo = max(int(info.min), hi - 2**60)  # 5 groups * span stays < 2**63
        keys = np.array([0, 0, 0, 2, 3, 3], dtype=np.int32)
        values = np.array([hi, lo, hi, lo + 7, lo, (lo + hi) // 2], dtype=dtype)
        got = group_median(keys, values, 5)
        assert not lexsort_calls  # the composite path ran
        _same_bytes(got, lexsort_median(keys, values, 5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_values_keep_lexsort(self, dtype, lexsort_calls):
        keys = np.array([0, 0, 1, 1, 1, 2, 2], dtype=np.int64)
        values = np.array(
            [-0.0, 0.0, np.copysign(np.nan, -1.0), 1.0, -np.inf, np.nan, 2.0],
            dtype=dtype,
        )
        got = group_median(keys, values, 3)
        assert lexsort_calls
        _same_bytes(got, lexsort_median(keys, values, 3))
        # lexsort ties -0.0 with +0.0 and puts NaN of either sign last.
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 1.0 and np.isnan(got[2])

    @pytest.mark.parametrize(
        "n_groups, span, dtype, composite",
        [
            # n_groups * span at 2**62, one below and one above it ...
            (4, 2**60, np.int64, True),
            (4, 2**60 - 1, np.int64, True),
            (4, 2**60 + 1, np.int64, True),
            # ... and at the int64 edge itself: 2**63 - 2 fits, 2**63 does not.
            (2, 2**62 - 1, np.int64, True),
            (2, 2**62, np.int64, False),
            (1, 2**63 - 1, np.int64, True),
            (1, 2**63, np.int64, False),
            (1, 2**63 - 1, np.uint64, True),
            (2, 2**62 - 1, np.uint64, True),
            (2, 2**62, np.uint64, False),
            (1, 2**64, np.uint64, False),
        ],
    )
    def test_overflow_edge(self, n_groups, span, dtype, composite, lexsort_calls):
        info = np.iinfo(dtype)
        # Values at the top of the dtype, so a composite built without
        # the minimum subtracted would wrap.
        hi = int(info.max)
        lo = hi - span + 1
        g = n_groups - 1
        keys = np.array([0, 0, 0, g, g, g, g], dtype=np.int64)
        values = np.array([lo, hi, hi - 1, lo, lo + 1, hi, hi - 3], dtype=dtype)
        got = group_median(keys, values, n_groups)
        assert bool(lexsort_calls) is not composite
        _same_bytes(got, lexsort_median(keys, values, n_groups))

    def test_middle_entries_decode_in_the_values_dtype(self, lexsort_calls):
        """A uint64 median above 2**63 is rounded to float64 once: the
        offset is added back in uint64 before the cast, not in float."""
        lo, off = 2**63 + 1024, 2**62 + 1025
        values = np.array([lo, lo + off, lo + off], dtype=np.uint64)
        keys = np.zeros(3, dtype=np.int64)
        got = group_median(keys, values, 1)
        assert not lexsort_calls
        _same_bytes(got, lexsort_median(keys, values, 1))
        assert got[0] == float(lo + off) != float(off) + float(lo)
