"""Time helpers for the address-change analysis.

All timestamps in this project are Unix epoch seconds in UTC, expressed as
``float``.  The paper studies the calendar year 2015; :data:`YEAR_2015_START`
and :data:`YEAR_2015_END` bound that window.  Durations are in seconds unless
a function name says otherwise (``hours``, ``days``).

The RIPE Atlas connection logs render timestamps like ``Jan  1 03:22:16``;
:func:`format_log_time` and :func:`parse_log_time` implement that format so
our simulated logs are byte-compatible with the paper's Table 1 examples.
"""

from __future__ import annotations

import calendar
import datetime as _dt

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
WEEK = 7 * DAY

#: Wall-clock budget one shard task gets before the lease loop declares
#: it hung, kills its local worker and reassigns it
#: (:mod:`repro.runtime.server`).  Generous: a paper-scale shard
#: computes in well under a second, so only a truly wedged worker ever
#: reaches this.
SHARD_DEADLINE_S = 5 * MINUTE
#: First retry delay; attempt ``n`` waits ``BACKOFF_BASE_S * 2**(n-1)``.
BACKOFF_BASE_S = 0.05 * SECOND
#: Maximum failed attempts per shard before its probes are quarantined.
#: A count, not a duration — it lives here with the other supervision
#: retry knobs so none of them is a magic number at the call site.
MAX_SHARD_RETRIES = 3

#: Wall-clock budget one distributed lease gets before the coordinator
#: declares it hung and reassigns the shard (:mod:`repro.dist`).  The
#: same execution-only semantics as :data:`SHARD_DEADLINE_S`: the clock
#: starts at grant time, and a shard waiting ungranted never ages.
LEASE_DEADLINE_S = SHARD_DEADLINE_S
#: Longest the lease loop sleeps when nothing is due, and how
#: long a worker sleeps on an empty-handed DRAIN before re-pulling.
DIST_POLL_S = 0.05 * SECOND
#: Socket timeout of the dist protocol.  On the worker side, a reply
#: that never arrives (dropped by a faulty transport) surfaces as a
#: timeout and triggers a reconnect instead of wedging the worker; on
#: the server side it bounds each blocking reply ``sendall``.  A local
#: worker's socketpair end has no timeout: its parent's death is EOF.
DIST_SOCKET_TIMEOUT_S = 30 * SECOND
#: Delay between a worker's connection attempts to the coordinator.
DIST_RECONNECT_DELAY_S = 0.1 * SECOND
#: How long the coordinator keeps answering DRAIN(done) after the run
#: completes, so connected workers learn the run is over and exit.
DIST_DRAIN_GRACE_S = 5 * SECOND

#: Inclusive start of the study window (2015-01-01 00:00:00 UTC).
YEAR_2015_START = float(
    calendar.timegm(_dt.datetime(2015, 1, 1, tzinfo=_dt.timezone.utc).timetuple())
)
#: Exclusive end of the study window (2016-01-01 00:00:00 UTC).
YEAR_2015_END = float(
    calendar.timegm(_dt.datetime(2016, 1, 1, tzinfo=_dt.timezone.utc).timetuple())
)

_MONTH_ABBR = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
]


def utc_datetime(timestamp: float) -> _dt.datetime:
    """Return the aware UTC datetime for an epoch timestamp."""
    return _dt.datetime.fromtimestamp(timestamp, tz=_dt.timezone.utc)


def epoch(year: int, month: int, day: int, hour: int = 0,
          minute: int = 0, second: int = 0) -> float:
    """Return the epoch timestamp of a UTC calendar instant."""
    moment = _dt.datetime(year, month, day, hour, minute, second,
                          tzinfo=_dt.timezone.utc)
    return float(calendar.timegm(moment.timetuple()))


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * HOUR


def days(value: float) -> float:
    """Convert days to seconds."""
    return value * DAY


def to_hours(seconds: float) -> float:
    """Convert seconds to hours."""
    return seconds / HOUR


def hour_of_day(timestamp: float) -> int:
    """Return the GMT hour-of-day (0..23) for a timestamp.

    Figures 4 and 5 of the paper histogram address changes by the GMT hour
    in which a periodic address duration ended.
    """
    return utc_datetime(timestamp).hour


def day_of_year(timestamp: float) -> int:
    """Return the 1-based day of the year for a timestamp (Figure 6 x-axis)."""
    return utc_datetime(timestamp).timetuple().tm_yday


def month_of(timestamp: float) -> tuple[int, int]:
    """Return ``(year, month)`` for a timestamp.

    Used to select the monthly pfx2as snapshot matching an address
    assignment, per Section 3.3 of the paper.
    """
    moment = utc_datetime(timestamp)
    return moment.year, moment.month


def format_log_time(timestamp: float) -> str:
    """Render a timestamp in connection-log style, e.g. ``Jan  1 03:22:16``."""
    moment = utc_datetime(timestamp)
    return "%s %2d %02d:%02d:%02d" % (
        _MONTH_ABBR[moment.month - 1], moment.day,
        moment.hour, moment.minute, moment.second,
    )


def parse_log_time(text: str, year: int = 2015) -> float:
    """Parse a connection-log style timestamp back to epoch seconds.

    The log format omits the year, so the caller supplies it (the study
    window is 2015).  Raises :class:`ValueError` on malformed input.
    """
    fields = text.split()
    if len(fields) != 3:
        raise ValueError("malformed log time: %r" % (text,))
    month_name, day_text, clock = fields
    try:
        month = _MONTH_ABBR.index(month_name) + 1
    except ValueError:
        raise ValueError("unknown month in log time: %r" % (text,)) from None
    clock_fields = clock.split(":")
    if len(clock_fields) != 3:
        raise ValueError("malformed clock in log time: %r" % (text,))
    hour_v, minute_v, second_v = (int(part) for part in clock_fields)
    return epoch(year, month, int(day_text), hour_v, minute_v, second_v)


def iter_month_starts(start: float, end: float):
    """Yield ``(year, month, epoch_start)`` for each month touching [start, end)."""
    year, month = month_of(start)
    while True:
        month_start = epoch(year, month, 1)
        if month_start >= end:
            return
        if epoch(year + (month == 12), month % 12 + 1, 1) > start:
            yield year, month, max(month_start, 0.0)
        month += 1
        if month == 13:
            month = 1
            year += 1
