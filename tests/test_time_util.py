"""Capture-interval arithmetic: the time currency of the whole system."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gdelt import time_util as tu


class TestScalarConversions:
    def test_epoch_is_interval_zero(self):
        assert tu.datetime_to_interval(tu.GDELT_V2_EPOCH) == 0

    def test_interval_zero_timestamp(self):
        assert tu.interval_to_timestamp(0) == 20150218000000

    def test_fifteen_minutes_per_interval(self):
        assert tu.datetime_to_interval(dt.datetime(2015, 2, 18, 0, 14, 59)) == 0
        assert tu.datetime_to_interval(dt.datetime(2015, 2, 18, 0, 15, 0)) == 1

    def test_one_day_is_96_intervals(self):
        assert tu.datetime_to_interval(dt.datetime(2015, 2, 19)) == tu.INTERVALS_PER_DAY
        assert tu.INTERVALS_PER_DAY == 96

    def test_timestamp_roundtrip(self):
        ts = 20171031214500
        assert tu.datetime_to_timestamp(tu.timestamp_to_datetime(ts)) == ts

    def test_timestamp_to_datetime_rejects_garbage(self):
        with pytest.raises(ValueError):
            tu.timestamp_to_datetime(20150232000000)  # Feb 32

    def test_pre_epoch_is_negative(self):
        assert tu.datetime_to_interval(dt.datetime(2015, 2, 17, 23, 59)) == -1

    def test_end_of_window(self):
        # 2015-02-18 .. 2020-01-01 spans 1778 days.
        end = tu.datetime_to_interval(dt.datetime(2020, 1, 1))
        assert end == 1778 * 96


class TestVectorized:
    def test_matches_scalar_on_known_dates(self):
        stamps = [
            20150218000000,
            20150218001500,
            20161231235959,
            20190704120000,
            20200101000000,
        ]
        got = tu.timestamps_to_intervals(np.array(stamps, dtype=np.int64))
        want = [tu.timestamp_to_interval(t) for t in stamps]
        assert got.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.datetimes(
            min_value=dt.datetime(2015, 2, 18),
            max_value=dt.datetime(2020, 12, 31, 23, 59, 59),
        )
    )
    def test_vectorized_equals_scalar(self, when):
        ts = tu.datetime_to_timestamp(when)
        vec = tu.timestamps_to_intervals(np.array([ts], dtype=np.int64))[0]
        assert int(vec) == tu.timestamp_to_interval(ts)

    def test_intervals_to_timestamps_roundtrip(self):
        idx = np.array([0, 1, 96, 12345, 170_000], dtype=np.int64)
        ts = tu.intervals_to_timestamps(idx)
        back = tu.timestamps_to_intervals(ts)
        assert np.array_equal(back, idx)

    def test_empty_arrays(self):
        assert len(tu.timestamps_to_intervals(np.array([], dtype=np.int64))) == 0


class TestQuarters:
    def test_epoch_quarter_zero(self):
        assert tu.interval_to_quarter(0) == 0

    def test_q2_2015(self):
        iv = tu.datetime_to_interval(dt.datetime(2015, 4, 1))
        assert tu.interval_to_quarter(iv) == 1

    def test_last_quarter_of_window(self):
        iv = tu.datetime_to_interval(dt.datetime(2019, 12, 31, 23, 45))
        assert tu.interval_to_quarter(iv) == 19

    def test_vectorized_matches_scalar(self):
        idx = np.array([0, 95, 96, 10_000, 100_000, 170_591], dtype=np.int64)
        got = tu.intervals_to_quarters(idx)
        want = [tu.interval_to_quarter(int(i)) for i in idx]
        assert got.tolist() == want

    def test_quarter_labels(self):
        assert tu.quarter_label(0) == "2015Q1"
        assert tu.quarter_label(3) == "2015Q4"
        assert tu.quarter_label(19) == "2019Q4"

    def test_first_quarter_clipped_at_epoch(self):
        start, end = tu.quarter_range(0)
        assert start == tu.GDELT_V2_EPOCH
        assert end == dt.datetime(2015, 4, 1)

    def test_quarter_index_range_partition(self):
        """Quarter interval ranges tile the window without gaps."""
        prev_end = None
        for q in range(20):
            lo, hi = tu.quarter_index_range(q)
            assert lo < hi
            if prev_end is not None:
                assert lo == prev_end
            prev_end = hi

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=170_000))
    def test_quarter_consistent_with_range(self, iv):
        q = tu.interval_to_quarter(iv)
        lo, hi = tu.quarter_index_range(q)
        assert lo <= iv < hi


_INT32 = st.integers(-(2**31), 2**31 - 1)


def _datetime64_quarters(idx) -> np.ndarray:
    """The row-wise ``datetime64`` formula the boundary search replaced,
    kept as the oracle (int64 minutes cover the whole int32 range)."""
    idx = np.asarray(idx, dtype=np.int64)
    when = np.datetime64(tu.GDELT_V2_EPOCH, "m") + idx * tu.INTERVAL_MINUTES
    months = when.astype("datetime64[M]").astype(np.int64)  # since 1970-01
    return (months // 12 + 1970) * 4 + months % 12 // 3 - 2015 * 4


def _quarter_start_interval(q: int) -> int:
    """First interval of quarter ``q``, from ``datetime64`` month math."""
    absolute = q + 2015 * 4
    month = np.datetime64((absolute // 4 - 1970) * 12 + absolute % 4 * 3, "M")
    minutes = month.astype("datetime64[m]") - np.datetime64(tu.GDELT_V2_EPOCH, "m")
    return int(minutes.astype(np.int64)) // tu.INTERVAL_MINUTES


class TestQuarterKernel:
    """``intervals_to_quarters`` is a boundary search; these pin it to the
    calendar formula it replaced, value for value."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_INT32, max_size=60),
        st.sampled_from([np.int32, np.int64]),
    )
    def test_equals_datetime64_over_int32(self, values, dtype):
        idx = np.array(values, dtype=dtype)
        assert tu.intervals_to_quarters(idx).tolist() == _datetime64_quarters(idx).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**15), 2**15 - 1), min_size=1, max_size=60))
    def test_int16_input(self, values):
        idx = np.array(values, dtype=np.int16)
        got = tu.intervals_to_quarters(idx)
        assert got.dtype == np.int16
        assert got.tolist() == _datetime64_quarters(idx).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-240_000, 240_000), st.integers(-1, 1))
    def test_quarter_starts_plus_minus_one(self, q, offset):
        iv = _quarter_start_interval(q) + offset
        assume(-(2**31) <= iv < 2**31)
        want = q - 1 if offset < 0 else q
        got = tu.intervals_to_quarters(np.array([iv], dtype=np.int32))
        assert got.tolist() == [want] == _datetime64_quarters([iv]).tolist()

    @pytest.mark.parametrize("year", [2016, 2000, 2100, 2400, 1900, -4])
    def test_end_of_february(self, year):
        """Leap days (2016, 2000, 2400, -4) and non-leap centuries."""
        march = _quarter_start_interval((year - 2015) * 4)  # Q1 starts Jan 1
        march += 59 * tu.INTERVALS_PER_DAY  # Jan 1 + 59 days
        idx = np.arange(march - 2 * tu.INTERVALS_PER_DAY, march + 2 * tu.INTERVALS_PER_DAY)
        assert tu.intervals_to_quarters(idx).tolist() == _datetime64_quarters(idx).tolist()

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty(self, dtype, shape):
        got = tu.intervals_to_quarters(np.empty(shape, dtype=dtype))
        assert got.shape == shape and got.dtype == np.int16

    @settings(max_examples=100, deadline=None)
    @given(_INT32)
    def test_zero_d(self, iv):
        got = tu.intervals_to_quarters(np.int32(iv))
        assert got.shape == ()
        assert int(got) == int(_datetime64_quarters(iv)) == tu.interval_to_quarter(iv)

    def test_shape_kept(self):
        idx = np.arange(12, dtype=np.int32).reshape(3, 4) * 10_000
        got = tu.intervals_to_quarters(idx)
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == _datetime64_quarters(idx.ravel()).tolist()

    def test_dtype_is_narrowest_that_holds_the_span(self):
        """int16 while every quarter fits, int32 past it — never a wrap."""
        in16 = np.array([_quarter_start_interval(2**15 - 1)], dtype=np.int32)
        past = in16 + 100 * tu.INTERVALS_PER_DAY
        assert tu.intervals_to_quarters(in16).dtype == np.int16
        assert tu.intervals_to_quarters(past).dtype == np.int32
        assert int(tu.intervals_to_quarters(past)[0]) == 2**15
        below = np.array([-1, _quarter_start_interval(-(2**15)) - 1], dtype=np.int32)
        assert tu.intervals_to_quarters(below).dtype == np.int32
        assert int(tu.intervals_to_quarters(np.int32(2_000_000_000))) == 228_159

    def test_blocks_tile_the_input(self):
        n = tu._QUARTER_BLOCK_ROWS * 2 + 7
        idx = np.random.default_rng(0).integers(-(2**31), 2**31, n).astype(np.int32)
        assert np.array_equal(tu.intervals_to_quarters(idx), _datetime64_quarters(idx))
