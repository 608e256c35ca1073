"""Capture-interval and timestamp arithmetic for GDELT 2.0.

GDELT 2.0 publishes one Events/Mentions chunk every 15 minutes, starting
on 2015-02-18.  The paper measures publishing delay as the number of
15-minute *capture intervals* between the event time and the mention
(capture) time, so interval arithmetic is the time currency of the whole
system: the binary store keeps interval indices (``int32``) rather than
raw ``YYYYMMDDHHMMSS`` timestamps, and every trend analysis buckets
intervals into calendar quarters.

Timestamp → interval conversion must run over hundreds of millions of
rows during preprocessing, so the conversions are implemented as pure
integer NumPy ufunc expressions (days-from-civil algorithm) rather than
per-row ``datetime`` calls.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

__all__ = [
    "GDELT_V2_EPOCH",
    "INTERVAL_MINUTES",
    "INTERVALS_PER_DAY",
    "INTERVALS_PER_HOUR",
    "datetime_to_timestamp",
    "timestamp_to_datetime",
    "interval_to_datetime",
    "datetime_to_interval",
    "interval_to_timestamp",
    "timestamp_to_interval",
    "timestamps_to_intervals",
    "intervals_to_timestamps",
    "interval_to_quarter",
    "intervals_to_quarters",
    "quarter_label",
    "quarter_range",
    "quarter_index_range",
]

#: First instant covered by the GDELT 2.0 Event Database.
GDELT_V2_EPOCH = _dt.datetime(2015, 2, 18, 0, 0, 0)

INTERVAL_MINUTES = 15
INTERVALS_PER_HOUR = 60 // INTERVAL_MINUTES
INTERVALS_PER_DAY = 24 * INTERVALS_PER_HOUR

_EPOCH_DAYS = GDELT_V2_EPOCH.toordinal()
#: Quarter index of the epoch quarter (2015 Q1) in "quarters since year 0".
_EPOCH_QUARTER = 2015 * 4 + 0


def _days_from_civil(y: np.ndarray, m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Days since 0000-03-01 for civil dates, vectorized (Hinnant's algorithm).

    Works on int64 arrays; proleptic Gregorian calendar.  The absolute
    offset cancels out because we only ever take differences against the
    epoch computed with the same function.
    """
    y = y - (m <= 2)
    era = np.floor_divide(y, 400)
    yoe = y - era * 400
    doy = (153 * (m + (m > 2) * (-3) + (m <= 2) * 9) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe


# Days-from-civil value of the GDELT epoch date, for vectorized differences.
_EPOCH_DFC = int(
    _days_from_civil(
        np.array([GDELT_V2_EPOCH.year], dtype=np.int64),
        np.array([GDELT_V2_EPOCH.month], dtype=np.int64),
        np.array([GDELT_V2_EPOCH.day], dtype=np.int64),
    )[0]
)


def datetime_to_timestamp(dt: _dt.datetime) -> int:
    """Encode a datetime as a GDELT ``YYYYMMDDHHMMSS`` integer."""
    return (
        dt.year * 10**10
        + dt.month * 10**8
        + dt.day * 10**6
        + dt.hour * 10**4
        + dt.minute * 10**2
        + dt.second
    )


def timestamp_to_datetime(ts: int) -> _dt.datetime:
    """Decode a GDELT ``YYYYMMDDHHMMSS`` integer.

    Raises:
        ValueError: if the encoded fields are not a valid date/time.
    """
    ts = int(ts)
    sec = ts % 100
    minute = ts // 10**2 % 100
    hour = ts // 10**4 % 100
    day = ts // 10**6 % 100
    month = ts // 10**8 % 100
    year = ts // 10**10
    return _dt.datetime(year, month, day, hour, minute, sec)


def datetime_to_interval(dt: _dt.datetime) -> int:
    """Capture interval index containing ``dt`` (may be negative pre-epoch)."""
    delta = dt - GDELT_V2_EPOCH
    minutes = delta.days * 1440 + delta.seconds // 60
    return minutes // INTERVAL_MINUTES


def interval_to_datetime(index: int) -> _dt.datetime:
    """Start instant of capture interval ``index``."""
    return GDELT_V2_EPOCH + _dt.timedelta(minutes=int(index) * INTERVAL_MINUTES)


def interval_to_timestamp(index: int) -> int:
    """``YYYYMMDDHHMMSS`` of the start of capture interval ``index``."""
    return datetime_to_timestamp(interval_to_datetime(index))


def timestamp_to_interval(ts: int) -> int:
    """Capture interval index containing ``YYYYMMDDHHMMSS`` timestamp ``ts``."""
    return datetime_to_interval(timestamp_to_datetime(ts))


def timestamps_to_intervals(ts: np.ndarray) -> np.ndarray:
    """Vectorized :func:`timestamp_to_interval` over an int64 array.

    This is the hot conversion of the preprocessing stage.  Entirely
    integer NumPy math; invalid (e.g. zero) timestamps map to garbage
    intervals and are expected to be caught by validation beforehand.

    Returns:
        int64 array of interval indices since the GDELT 2.0 epoch.
    """
    ts = np.asarray(ts, dtype=np.int64)
    sec = ts % 100
    minute = ts // 10**2 % 100
    hour = ts // 10**4 % 100
    day = ts // 10**6 % 100
    month = ts // 10**8 % 100
    year = ts // 10**10
    days = _days_from_civil(year, month, day) - _EPOCH_DFC
    minutes = days * 1440 + hour * 60 + minute + (sec // 60)
    return np.floor_divide(minutes, INTERVAL_MINUTES)


def intervals_to_timestamps(idx: np.ndarray) -> np.ndarray:
    """Vectorized :func:`interval_to_timestamp` (via numpy datetime64).

    Only used by writers (dataset export), so a datetime64 round-trip is
    acceptable here.
    """
    idx = np.asarray(idx, dtype=np.int64)
    base = np.datetime64(GDELT_V2_EPOCH, "m")
    dt = base + idx * INTERVAL_MINUTES
    # Extract components via string formatting-free datetime64 math.
    days = dt.astype("datetime64[D]")
    ymd = days.astype("datetime64[Y]").astype(np.int64) + 1970
    months = (days.astype("datetime64[M]").astype(np.int64) % 12) + 1
    dom = (days - days.astype("datetime64[M]")).astype(np.int64) + 1
    mins = (dt - days).astype("timedelta64[m]").astype(np.int64)
    hour = mins // 60
    minute = mins % 60
    return ymd * 10**10 + months * 10**8 + dom * 10**6 + hour * 10**4 + minute * 10**2


def interval_to_quarter(index: int) -> int:
    """Quarter index (0 = 2015 Q1) of capture interval ``index``."""
    return int(intervals_to_quarters(index))


#: Rows per ``searchsorted`` block of :func:`intervals_to_quarters`: its
#: scratch is a few blocks of int64, whatever the input length.
_QUARTER_BLOCK_ROWS = 1 << 15

#: A 400-year Gregorian cycle is exactly 1600 quarters and 146097 days,
#: so this ratio estimates a quarter to within one.
_QUARTERS_PER_CYCLE = 1600
_INTERVALS_PER_CYCLE = 146097 * INTERVALS_PER_DAY


def _quarter_starts(q: np.ndarray) -> np.ndarray:
    """First capture interval of each quarter index in ``q`` (int64).

    Quarters begin at midnight, so the interval is exact.
    """
    a = np.asarray(q, dtype=np.int64) + _EPOCH_QUARTER
    days = _days_from_civil(a // 4, a % 4 * 3 + 1, 1) - _EPOCH_DFC
    return days * INTERVALS_PER_DAY


_QUARTER0_START = int(_quarter_starts(0))


def _quarter_estimate(index: int) -> int:
    """Quarter of interval ``index``, off by at most one (Python ints)."""
    return (index - _QUARTER0_START) * _QUARTERS_PER_CYCLE // _INTERVALS_PER_CYCLE


def intervals_to_quarters(idx: np.ndarray) -> np.ndarray:
    """Vectorized :func:`interval_to_quarter`: quarter index, 0 = 2015 Q1
    (the partial quarter beginning at the 2015-02-18 epoch, exactly as
    in the paper's figures).

    A boundary search, not calendar arithmetic per row: the starts of
    the few quarters spanning ``[idx.min(), idx.max()]`` are computed
    over the quarters, and each interval's quarter is the number of
    those starts at or before it.  Scratch is a few fixed-size blocks.

    Dtype contract: any integer ``idx`` (any shape, 0-d included) gives
    the same values; the result has ``idx``'s shape and the narrowest of
    int16 / int32 / int64 that holds every quarter in it (int16 for any
    interval within about 8000 years of the epoch), so a key never wraps.
    """
    idx = np.asarray(idx)
    flat = idx.reshape(-1)
    if not len(flat):
        return np.empty(idx.shape, dtype=np.int16)
    lo, hi = int(flat.min()), int(flat.max())
    q0 = _quarter_estimate(lo) - 2  # at or before lo's quarter
    starts = _quarter_starts(np.arange(q0 + 1, _quarter_estimate(hi) + 3))
    first, last = (q0 + np.searchsorted(starts, [lo, hi], side="right")).tolist()
    dtype = next(
        t for t in (np.int16, np.int32, np.int64)
        if np.iinfo(t).min <= first and last <= np.iinfo(t).max
    )
    out = np.empty(len(flat), dtype=dtype)
    for s in range(0, len(flat), _QUARTER_BLOCK_ROWS):
        block = np.searchsorted(starts, flat[s : s + _QUARTER_BLOCK_ROWS], side="right")
        block += q0
        out[s : s + _QUARTER_BLOCK_ROWS] = block
    return out.reshape(idx.shape)


def quarter_label(q: int) -> str:
    """Human-readable label for quarter index ``q`` (e.g. ``"2015Q1"``)."""
    absolute = q + _EPOCH_QUARTER
    return f"{absolute // 4}Q{absolute % 4 + 1}"


def quarter_range(q: int) -> tuple[_dt.datetime, _dt.datetime]:
    """Half-open [start, end) datetime range of quarter index ``q``.

    The first quarter is clipped at the GDELT 2.0 epoch (the paper notes
    its first data point is a partial quarter starting 2015-02-18).
    """
    absolute = q + _EPOCH_QUARTER
    year, qi = absolute // 4, absolute % 4
    start = _dt.datetime(year, qi * 3 + 1, 1)
    if qi == 3:
        end = _dt.datetime(year + 1, 1, 1)
    else:
        end = _dt.datetime(year, qi * 3 + 4, 1)
    return (max(start, GDELT_V2_EPOCH), end)


def quarter_index_range(q: int) -> tuple[int, int]:
    """Half-open [start, end) *interval* index range of quarter ``q``."""
    start, end = quarter_range(q)
    return (datetime_to_interval(start), datetime_to_interval(end))
