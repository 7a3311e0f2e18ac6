"""Tests for repro.util.intervals."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.intervals import Interval, IntervalSet


def spans(int_set):
    return [(iv.start, iv.end) for iv in int_set]


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(5.0, 4.0)

    def test_length_and_empty(self):
        assert Interval(1.0, 4.0).length == 3.0
        assert Interval(2.0, 2.0).is_empty()
        assert not Interval(2.0, 3.0).is_empty()

    def test_contains_half_open(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0)
        assert iv.contains(1.5)
        assert not iv.contains(2.0)

    def test_overlaps(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert not Interval(0, 1).overlaps(Interval(1, 2))

    def test_intersect(self):
        assert Interval(0, 5).intersect(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 1).intersect(Interval(2, 3)) is None

    def test_shift(self):
        assert Interval(1, 2).shift(10) == Interval(11, 12)


class TestIntervalSetAdd:
    def test_empty_interval_ignored(self):
        s = IntervalSet()
        s.add(Interval(1, 1))
        assert len(s) == 0

    def test_disjoint_kept_sorted(self):
        s = IntervalSet()
        s.add_span(5, 6)
        s.add_span(1, 2)
        assert spans(s) == [(1, 2), (5, 6)]

    def test_touching_coalesce(self):
        s = IntervalSet()
        s.add_span(1, 2)
        s.add_span(2, 3)
        assert spans(s) == [(1, 3)]

    def test_overlapping_coalesce_multiple(self):
        s = IntervalSet()
        s.add_span(1, 2)
        s.add_span(4, 5)
        s.add_span(7, 8)
        s.add_span(1.5, 7.5)
        assert spans(s) == [(1, 8)]

    def test_contained_insert_noop_shape(self):
        s = IntervalSet()
        s.add_span(0, 10)
        s.add_span(3, 4)
        assert spans(s) == [(0, 10)]


class TestIntervalSetQueries:
    def setup_method(self):
        self.s = IntervalSet([Interval(0, 2), Interval(5, 7), Interval(10, 11)])

    def test_contains(self):
        assert self.s.contains(0)
        assert self.s.contains(6.5)
        assert not self.s.contains(2)
        assert not self.s.contains(9)

    def test_overlapping(self):
        found = self.s.overlapping(Interval(1, 6))
        assert [(iv.start, iv.end) for iv in found] == [(0, 2), (5, 7)]

    def test_overlapping_empty_window(self):
        assert self.s.overlapping(Interval(3, 3)) == []

    def test_intersect_span(self):
        clipped = self.s.intersect_span(1, 10.5)
        assert spans(clipped) == [(1, 2), (5, 7), (10, 10.5)]

    def test_total_measure(self):
        assert self.s.total_measure() == pytest.approx(2 + 2 + 1)

    def test_gaps_within(self):
        holes = self.s.gaps_within(0, 12)
        assert [(iv.start, iv.end) for iv in holes] == [(2, 5), (7, 10), (11, 12)]

    def test_gaps_within_no_members(self):
        empty = IntervalSet()
        assert [(iv.start, iv.end) for iv in empty.gaps_within(3, 4)] == [(3, 4)]


@st.composite
def interval_lists(draw):
    n = draw(st.integers(0, 30))
    out = []
    for _ in range(n):
        a = draw(st.integers(0, 100))
        b = draw(st.integers(0, 100))
        lo, hi = min(a, b), max(a, b)
        out.append(Interval(float(lo), float(hi)))
    return out


class TestIntervalSetProperties:
    @given(interval_lists())
    def test_normalized_disjoint_and_sorted(self, intervals):
        s = IntervalSet(intervals)
        members = list(s)
        for left, right in zip(members, members[1:]):
            assert left.end < right.start

    @given(interval_lists())
    def test_insertion_order_irrelevant(self, intervals):
        forward = IntervalSet(intervals)
        backward = IntervalSet(reversed(intervals))
        assert forward == backward

    @given(interval_lists(), st.integers(0, 100))
    def test_contains_matches_naive(self, intervals, point):
        s = IntervalSet(intervals)
        naive = any(iv.contains(float(point)) for iv in intervals)
        assert s.contains(float(point)) == naive

    @given(interval_lists())
    def test_measure_plus_gaps_covers_window(self, intervals):
        s = IntervalSet(intervals)
        inside = s.intersect_span(0, 100).total_measure()
        holes = sum(iv.length for iv in s.gaps_within(0, 100))
        assert inside + holes == pytest.approx(100)

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 10)),
                    max_size=30),
           st.booleans())
    def test_add_span_matches_add(self, pairs, ascending):
        # Ascending starts take add_span's append path (touching spans
        # included); shuffled ones mix it with the general insert.
        if ascending:
            pairs = sorted(pairs)
        via_span, via_add = IntervalSet(), IntervalSet()
        for start, length in pairs:
            via_span.add_span(start, start + length)
            via_add.add(Interval(start, start + length))
        assert list(via_span) == list(via_add)
        for point in range(0, 111):
            assert via_span.at(point) == via_add.at(point)
