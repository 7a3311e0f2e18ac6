"""Half-open interval algebra used throughout the simulator and analysis.

Outage processes, connection sessions and dataset window queries all reason
about half-open time intervals ``[start, end)``.  :class:`IntervalSet` keeps
a normalized (sorted, disjoint) list of such intervals and supports the small
set of operations the pipeline needs: insertion with coalescing, membership,
overlap queries, intersection, and total measure.  :class:`IntervalArray`
holds the same normalized members as two sorted float64 arrays, so many
sets can share one CSR column and be queried with ``searchsorted``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open interval ``[start, end)`` with ``start <= end``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                "interval end %r precedes start %r" % (self.end, self.start)
            )

    @property
    def length(self) -> float:
        """Measure of the interval."""
        return self.end - self.start

    def is_empty(self) -> bool:
        """True when the interval has zero measure."""
        return self.end == self.start

    def contains(self, point: float) -> bool:
        """True when ``start <= point < end``."""
        return self.start <= point < self.end

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share positive measure."""
        return self.start < other.end and other.start < self.end

    def intersect(self, other: "Interval") -> "Interval | None":
        """Return the overlapping part, or None when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Interval(start, end)

    def shift(self, offset: float) -> "Interval":
        """Return the interval translated by ``offset``."""
        return Interval(self.start + offset, self.end + offset)


class IntervalSet:
    """A normalized set of disjoint half-open intervals.

    Intervals that touch (``a.end == b.start``) are coalesced on insertion,
    so the set is always minimal.  Empty intervals are ignored.
    """

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._starts: list[float] = []
        self._intervals: list[Interval] = []
        for interval in intervals:
            self.add(interval)

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __repr__(self) -> str:
        inner = ", ".join(
            "[%g, %g)" % (iv.start, iv.end) for iv in self._intervals
        )
        return "IntervalSet(%s)" % inner

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def add(self, interval: Interval) -> None:
        """Insert an interval, coalescing with any neighbours it touches."""
        if interval.is_empty():
            return
        lo = bisect.bisect_left(self._starts, interval.start)
        # Merge with the predecessor when it reaches interval.start.
        if lo > 0 and self._intervals[lo - 1].end >= interval.start:
            lo -= 1
        start = interval.start
        end = interval.end
        hi = lo
        while hi < len(self._intervals) and self._intervals[hi].start <= end:
            start = min(start, self._intervals[hi].start)
            end = max(end, self._intervals[hi].end)
            hi += 1
        merged = Interval(start, end)
        self._intervals[lo:hi] = [merged]
        self._starts[lo:hi] = [merged.start]

    def add_span(self, start: float, end: float) -> None:
        """Same as ``add(Interval(start, end))``.

        A span that starts after the last member ends is appended without
        the search: the simulator adds its outages in time order.
        """
        intervals = self._intervals
        if start < end and (not intervals or start > intervals[-1].end):
            intervals.append(Interval(start, end))
            self._starts.append(start)
            return
        self.add(Interval(start, end))

    def contains(self, point: float) -> bool:
        """True when some member interval contains ``point``."""
        return self.at(point) is not None

    def at(self, point: float) -> Interval | None:
        """Return the member interval containing ``point``, if any."""
        idx = bisect.bisect_right(self._starts, point) - 1
        if idx >= 0 and self._intervals[idx].contains(point):
            return self._intervals[idx]
        return None

    def overlapping(self, window: Interval) -> list[Interval]:
        """Return member intervals overlapping ``window`` in order."""
        if window.is_empty():
            return []
        idx = bisect.bisect_right(self._starts, window.start) - 1
        if idx < 0:
            idx = 0
        found: list[Interval] = []
        while idx < len(self._intervals):
            member = self._intervals[idx]
            if member.start >= window.end:
                break
            if member.overlaps(window):
                found.append(member)
            idx += 1
        return found

    def intersect_span(self, start: float, end: float) -> "IntervalSet":
        """Return the intersection of the set with ``[start, end)``."""
        window = Interval(start, end)
        clipped = IntervalSet()
        for member in self.overlapping(window):
            part = member.intersect(window)
            if part is not None:
                clipped.add(part)
        return clipped

    def total_measure(self) -> float:
        """Return the summed length of all member intervals."""
        return sum(member.length for member in self._intervals)

    def gaps_within(self, start: float, end: float) -> list[Interval]:
        """Return the complement of the set inside ``[start, end)``."""
        cursor = start
        holes: list[Interval] = []
        for member in self.overlapping(Interval(start, end)):
            if member.start > cursor:
                holes.append(Interval(cursor, min(member.start, end)))
            cursor = max(cursor, member.end)
        if cursor < end:
            holes.append(Interval(cursor, end))
        return holes


_NO_POINTS = np.zeros(0, dtype=np.float64)


class IntervalArray:
    """The members of a normalized :class:`IntervalSet` as two arrays.

    ``starts`` and ``ends`` are float64 arrays of the members in order:
    sorted, disjoint, never touching, never empty.  The constructor
    trusts its arrays (they may be views into a larger CSR column);
    :meth:`of` normalizes anything else.  Point queries bisect native
    float lists built once, on the first query.
    """

    __slots__ = ("starts", "ends", "_lists")

    def __init__(self, starts: np.ndarray = _NO_POINTS,
                 ends: np.ndarray = _NO_POINTS) -> None:
        self.starts = starts
        self.ends = ends
        self._lists: tuple[list[float], list[float]] | None = None

    @classmethod
    def of(cls, intervals: Iterable[Interval] | None) -> "IntervalArray":
        """The normalized members of any intervals (None: no intervals)."""
        if isinstance(intervals, IntervalArray):
            return intervals
        if not isinstance(intervals, IntervalSet):
            intervals = IntervalSet(intervals or ())
        members = list(intervals)
        return cls(np.array([member.start for member in members],
                            dtype=np.float64),
                   np.array([member.end for member in members],
                            dtype=np.float64))

    def _bounds(self) -> tuple[list[float], list[float]]:
        if self._lists is None:
            self._lists = (self.starts.tolist(), self.ends.tolist())
        return self._lists

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[Interval]:
        return (Interval(start, end) for start, end in zip(*self._bounds()))

    def contains(self, point: float) -> bool:
        """True when some member interval contains ``point``."""
        starts, ends = self._bounds()
        index = bisect.bisect_right(starts, point) - 1
        return index >= 0 and point < ends[index]

    def at(self, point: float) -> Interval | None:
        """Return the member interval containing ``point``, if any."""
        starts, ends = self._bounds()
        index = bisect.bisect_right(starts, point) - 1
        if index >= 0 and point < ends[index]:
            return Interval(starts[index], ends[index])
        return None

    def gaps_within(self, start: float, end: float) -> list[Interval]:
        """Return the complement of the set inside ``[start, end)``.

        The same holes :meth:`IntervalSet.gaps_within` returns.
        """
        window = Interval(start, end)
        starts, ends = self._bounds()
        cursor = start
        holes: list[Interval] = []
        if not window.is_empty():
            index = max(bisect.bisect_right(starts, start) - 1, 0)
            while index < len(starts) and starts[index] < end:
                if start < ends[index]:
                    if starts[index] > cursor:
                        holes.append(Interval(cursor,
                                              min(starts[index], end)))
                    cursor = max(cursor, ends[index])
                index += 1
        if cursor < end:
            holes.append(Interval(cursor, end))
        return holes
