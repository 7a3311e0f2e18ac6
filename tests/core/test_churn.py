"""Tests for repro.core.churn."""

import pytest

from repro.core.changes import AddressChange, AddressSpan
from repro.core.colartifact import ColumnarSpanMap
from repro.core.churn import (
    churn_series,
    daily_active_addresses,
    detect_administrative_renumbering,
    mean_churn,
)
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.pfx2as import AsMapping, IpToAsDataset, Pfx2AsSnapshot
from repro.util import timeutil
from repro.util.timeutil import DAY, HOUR

T0 = timeutil.YEAR_2015_START


def addr(text):
    return IPv4Address.parse(text)


def span(address, start_day, end_day, probe=1):
    return AddressSpan(probe, addr(address), T0 + start_day * DAY,
                       T0 + end_day * DAY, True, True)


class TestDailyActiveAddresses:
    def test_span_covers_its_days(self):
        daily = daily_active_addresses(
            ColumnarSpanMap.from_map({1: [span("11.0.0.1", 0, 2)]}),
            T0, T0 + 5 * DAY)
        assert set(daily) == {0, 1, 2}
        assert all(addr("11.0.0.1").value in v for v in daily.values())

    def test_multiple_probes_union(self):
        daily = daily_active_addresses(
            ColumnarSpanMap.from_map({1: [span("11.0.0.1", 0, 1)],
                                      2: [span("11.0.0.2", 0, 1, 2)]}),
            T0, T0 + 3 * DAY)
        assert len(daily[0]) == 2

    def test_empty(self):
        assert daily_active_addresses(ColumnarSpanMap.from_map({}),
                                      T0, T0 + DAY) == {}


class TestChurnSeries:
    def test_stable_set_zero_churn(self):
        daily = {0: {1, 2}, 1: {1, 2}, 2: {1, 2}}
        points = churn_series(daily)
        assert all(p.churn_fraction == 0.0 for p in points)

    def test_full_turnover(self):
        daily = {0: {1, 2}, 1: {3, 4}}
        points = churn_series(daily)
        assert len(points) == 1
        assert points[0].appeared == 2
        assert points[0].disappeared == 2
        assert points[0].churn_fraction == pytest.approx(2.0)

    def test_mean_churn(self):
        daily = {0: {1}, 1: {1}, 2: {2}}
        assert mean_churn(churn_series(daily)) == pytest.approx(1.0)
        assert mean_churn([]) == 0.0


def make_ip2as():
    dataset = IpToAsDataset()
    snapshot = Pfx2AsSnapshot([
        AsMapping(IPv4Prefix.parse("11.0.0.0/16"), 100),
        AsMapping(IPv4Prefix.parse("11.1.0.0/16"), 100),
        AsMapping(IPv4Prefix.parse("11.99.0.0/16"), 100),
    ])
    for year, month, _ in timeutil.iter_month_starts(
            T0, timeutil.YEAR_2015_END):
        dataset.add_snapshot(year, month, Pfx2AsSnapshot(snapshot.mappings()))
    return dataset


def change(old, new, day, probe):
    at = T0 + day * DAY + 2 * HOUR
    return AddressChange(probe, addr(old), addr(new), at - 60, at)


class TestAdministrativeDetection:
    def asn_map(self, n):
        return {pid: 100 for pid in range(1, n + 1)}

    def test_mass_migration_detected(self):
        changes = {}
        for pid in range(1, 9):
            changes[pid] = [
                # Ordinary churn between the two regular prefixes first.
                change("11.0.0.%d" % pid, "11.1.0.%d" % pid, 10 + pid, pid),
                # Then the synchronized migration into 11.99/16 on day 100.
                change("11.1.0.%d" % pid, "11.99.0.%d" % pid, 100, pid),
            ]
        events = detect_administrative_renumbering(
            changes, self.asn_map(8), make_ip2as(), T0)
        assert len(events) == 1
        event = events[0]
        assert event.asn == 100
        assert event.day_index == 100
        assert event.probes_changed == 8
        assert str(event.novel_prefixes[0]) == "11.99.0.0/16"

    def test_periodic_churn_not_flagged(self):
        # Everyone changes daily but always within known prefixes.
        changes = {}
        for pid in range(1, 9):
            changes[pid] = [
                change("11.0.0.%d" % pid, "11.1.0.%d" % pid, day, pid)
                for day in range(5, 15)
            ]
        events = detect_administrative_renumbering(
            changes, self.asn_map(8), make_ip2as(), T0)
        assert events == []

    def test_partial_migration_not_flagged(self):
        # Only a quarter of probes move: below the change-fraction bar.
        changes = {pid: [change("11.0.0.%d" % pid, "11.1.0.%d" % pid,
                                20 + pid, pid)]
                   for pid in range(1, 9)}
        changes[1].append(change("11.1.0.1", "11.99.0.1", 100, 1))
        changes[2].append(change("11.1.0.2", "11.99.0.2", 100, 2))
        events = detect_administrative_renumbering(
            changes, self.asn_map(8), make_ip2as(), T0)
        assert events == []

    def test_small_as_ignored(self):
        changes = {pid: [change("11.0.0.%d" % pid, "11.99.0.%d" % pid,
                                100, pid)]
                   for pid in range(1, 4)}
        events = detect_administrative_renumbering(
            changes, self.asn_map(3), make_ip2as(), T0, min_probes=5)
        assert events == []
