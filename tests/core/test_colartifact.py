"""Tests for repro.core.colartifact: columnar forms of cached artifacts.

Round-trip contract under test: ``decode(encode(value))`` reproduces the
original artifact exactly — same dict iteration order, equal values,
``within_as_changes`` aliasing the matching ``changes`` objects — both
in memory and through a pickle (the form the artifact cache, the worker
pipes and the dist sockets carry).  Entry lists are dropped by design;
the oracle's ``restore_entries`` (``tests/oracle.py``) rebuilds them exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.atlas.columnar import ColumnarConnlog
from repro.core.association import GapCause, GapEvent
from repro.core.changes import AddressSpan
from repro.core.colartifact import (
    ColumnarFilterArtifact,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarSpanMap,
    decode_value,
)
from repro.core.filtering import FilterReport
from repro.core.pipeline import stage_filter_col
from repro.experiments.scenarios import small_world
from repro.net.ipv4 import IPv4Address
from repro.util import timeutil
from tests.oracle import restore_entries

MIN_CONNECTED = 4 * timeutil.DAY


def pickled(value):
    return pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))


def assert_same_columns(back, original) -> None:
    """Meta, column names in stored order, dtypes and values all equal."""
    assert back.meta == original.meta
    assert list(back.columns) == list(original.columns)
    for name, column in original.columns.items():
        assert back.columns[name].dtype == column.dtype, name
        np.testing.assert_array_equal(back.columns[name], column)


@pytest.fixture(scope="module")
def world():
    return small_world(seed=29, days=40)


@pytest.fixture(scope="module")
def report(world):
    """The filter report with entry lists (what the artifact drops)."""
    return restore_entries(
        stage_filter_col(ColumnarConnlog.from_connlog(world.connlog),
                         world.archive, world.ip2as,
                         min_connected=MIN_CONNECTED),
        world.connlog)


class TestFilterArtifact:
    def test_round_trip_preserves_everything_but_entries(self, report):
        back = ColumnarFilterArtifact.from_report(report).to_report()
        assert back.total == report.total
        assert list(back.verdicts) == list(report.verdicts)
        for pid, original in report.verdicts.items():
            got = back.verdicts[pid]
            assert got.category is original.category
            assert got.entries == []          # dropped by design
            assert got.changes == original.changes
            assert got.within_as_changes == original.within_as_changes
            assert got.multi_as == original.multi_as
            assert got.asn == original.asn

    def test_within_as_changes_alias_changes_objects(self, report):
        back = ColumnarFilterArtifact.from_report(report).to_report()
        aliased = 0
        for verdict in back.verdicts.values():
            for change in verdict.within_as_changes:
                assert any(change is candidate
                           for candidate in verdict.changes)
                aliased += 1
        assert aliased  # the seeded world has within-AS changes

    def test_restore_entries_round_trips_through_artifact(self, world,
                                                          report):
        back = ColumnarFilterArtifact.from_report(report).to_report()
        restore_entries(back, world.connlog)
        for pid, original in report.verdicts.items():
            assert back.verdicts[pid].entries == original.entries, pid

    def test_pickle_round_trip(self, report):
        artifact = ColumnarFilterArtifact.from_report(report)
        back = pickled(artifact)
        assert isinstance(back, ColumnarFilterArtifact)
        assert_same_columns(back, artifact)
        decoded = back.to_report()
        assert list(decoded.verdicts) == list(report.verdicts)
        for pid, verdict in report.verdicts.items():
            assert decoded.verdicts[pid].changes == verdict.changes

    def test_pickled_shards_concat_to_the_whole(self, report):
        pids = list(report.verdicts)
        chunks = (pids[:len(pids) // 2], pids[len(pids) // 2:])
        parts = [ColumnarFilterArtifact.from_report(FilterReport(
            verdicts={pid: report.verdicts[pid] for pid in chunk},
            total=len(chunk))) for chunk in chunks]
        joined = ColumnarFilterArtifact.concat(pickled(part)
                                               for part in parts)
        whole = ColumnarFilterArtifact.from_report(
            FilterReport(verdicts=report.verdicts, total=len(pids)))
        assert_same_columns(joined, whole)
        assert list(joined.to_report().verdicts) == pids


class TestSpanMap:
    def test_round_trip_preserves_order_and_values(self):
        a = IPv4Address.parse("10.0.0.1")
        b = IPv4Address.parse("10.0.0.2")
        spans = {7: [AddressSpan(7, a, 0.0, 10.0, False, True),
                     AddressSpan(7, b, 10.0, 30.0, True, False)],
                 3: [],  # empty list must survive
                 5: [AddressSpan(5, a, 1.5, 2.5, True, True)]}
        back = ColumnarSpanMap.from_map(spans).to_map()
        assert back == spans
        assert list(back) == [7, 3, 5]  # insertion order, never re-sorted

    def test_mismatched_probe_id_rejected(self):
        a = IPv4Address.parse("10.0.0.1")
        with pytest.raises(ValueError, match="probe_id"):
            ColumnarSpanMap.from_map(
                {1: [AddressSpan(2, a, 0.0, 1.0, True, True)]})

    def test_shared_addresses_decode_to_shared_objects(self):
        a = IPv4Address.parse("10.9.8.7")
        spans = {1: [AddressSpan(1, a, 0.0, 1.0, True, True),
                     AddressSpan(1, a, 2.0, 3.0, True, True)]}
        back = ColumnarSpanMap.from_map(spans).to_map()
        assert back[1][0].address is back[1][1].address


class TestFloatMap:
    def test_round_trip(self):
        durations = {4: [1.0, 2.5, 3.25], 2: [], 9: [0.125]}
        back = ColumnarFloatMap.from_map(durations).to_map()
        assert back == durations
        assert list(back) == [4, 2, 9]

    def test_empty_map(self):
        assert ColumnarFloatMap.from_map({}).to_map() == {}


class TestGapEventMap:
    def test_round_trip_all_causes(self):
        events = {6: [GapEvent(6, 0.0, 5.0, GapCause.NETWORK, True, 5.0),
                      GapEvent(6, 9.0, 12.0, GapCause.POWER, False, 3.0)],
                  8: [GapEvent(8, 1.0, 2.0, GapCause.NONE, False, 0.0)]}
        back = ColumnarGapEventMap.from_map(events).to_map()
        assert back == events
        assert list(back) == [6, 8]

    def test_mismatched_probe_id_rejected(self):
        with pytest.raises(ValueError, match="probe_id"):
            ColumnarGapEventMap.from_map(
                {1: [GapEvent(2, 0.0, 1.0, GapCause.NONE, False, 0.0)]})

    def test_pickle_round_trip_and_concat(self):
        first = {6: [GapEvent(6, 0.0, 4.0, GapCause.NETWORK, True, 4.0)],
                 2: []}
        second = {3: [GapEvent(3, 1.0, 2.0, GapCause.NONE, False, 0.0),
                      GapEvent(3, 5.0, 9.0, GapCause.POWER, False, 4.0)]}
        part = ColumnarGapEventMap.from_map(first)
        back = pickled(part)
        assert_same_columns(back, part)
        assert back.to_map() == first
        assert list(back) == [6, 2]  # stored order, never re-sorted
        joined = ColumnarGapEventMap.concat(
            [back, pickled(ColumnarGapEventMap.from_map(second))])
        assert_same_columns(joined,
                            ColumnarGapEventMap.from_map({**first, **second}))
        assert joined.to_map() == {**first, **second}


class TestDecodeValue:
    def test_columnar_values_decode(self, report):
        artifact = ColumnarFilterArtifact.from_report(report)
        decoded = decode_value(artifact)
        assert list(decoded.verdicts) == list(report.verdicts)

        span_map = {1: [AddressSpan(1, IPv4Address.parse("10.0.0.1"),
                                    0.0, 1.0, True, True)]}
        assert decode_value(ColumnarSpanMap.from_map(span_map)) == span_map
        assert decode_value(ColumnarFloatMap.from_map({2: [1.0]})) == \
               {2: [1.0]}
        events = {5: [GapEvent(5, 0.0, 1.0, GapCause.NONE, False, 0.0)]}
        assert decode_value(ColumnarGapEventMap.from_map(events)) == events

    def test_plain_values_pass_through(self):
        for value in (None, 42, "text", {"a": 1}, [1, 2]):
            assert decode_value(value) is value
