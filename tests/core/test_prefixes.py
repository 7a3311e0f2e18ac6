"""Tests for repro.core.prefixes."""

import pytest

from repro.core.changes import AddressChange
from repro.core.prefixes import prefix_change_table
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.pfx2as import AsMapping, IpToAsDataset, Pfx2AsSnapshot
from repro.util import timeutil
from tests.oracle import compare_change

T = timeutil.epoch(2015, 6, 15)


def make_ip2as():
    dataset = IpToAsDataset()
    snapshot = Pfx2AsSnapshot([
        AsMapping(IPv4Prefix.parse("11.0.0.0/16"), 100),
        AsMapping(IPv4Prefix.parse("11.1.0.0/16"), 100),
        AsMapping(IPv4Prefix.parse("12.0.0.0/14"), 100),
    ])
    dataset.add_snapshot(2015, 6, snapshot)
    return dataset


def change(old, new, probe=1):
    return AddressChange(probe, IPv4Address.parse(old),
                         IPv4Address.parse(new), T - 60, T)


class TestCompareChange:
    def test_same_bgp_same_16(self):
        result = compare_change(change("11.0.0.1", "11.0.0.9"), make_ip2as())
        assert result.diff_bgp is False
        assert not result.diff_slash16
        assert not result.diff_slash8

    def test_diff_bgp_same_8(self):
        result = compare_change(change("11.0.0.1", "11.1.0.1"), make_ip2as())
        assert result.diff_bgp is True
        assert result.diff_slash16
        assert not result.diff_slash8

    def test_same_bgp_diff_16(self):
        # A /14 prefix spans several /16s: BT's Table 7 pattern.
        result = compare_change(change("12.0.0.1", "12.1.0.1"), make_ip2as())
        assert result.diff_bgp is False
        assert result.diff_slash16
        assert not result.diff_slash8

    def test_diff_8(self):
        result = compare_change(change("11.0.0.1", "12.0.0.1"), make_ip2as())
        assert result.diff_bgp is True
        assert result.diff_slash8

    def test_unrouted_address_none(self):
        result = compare_change(change("11.0.0.1", "99.0.0.1"), make_ip2as())
        assert result.diff_bgp is None
        assert result.diff_slash8


class TestPrefixChangeTable:
    def test_overall_and_per_as(self):
        changes = {
            1: [change("11.0.0.1", "11.1.0.1", 1),   # diff bgp, diff 16
                change("11.1.0.1", "11.1.0.9", 1)],  # same everything
            2: [change("12.0.0.1", "12.1.0.1", 2)],  # same bgp, diff 16
        }
        asns = {1: 100, 2: 200}
        overall, rows = prefix_change_table(
            changes, asns, make_ip2as(), {100: "A", 200: "B"})
        assert overall.total_changes == 3
        assert overall.diff_bgp == 1
        assert overall.diff_slash16 == 2
        assert overall.diff_slash8 == 0
        assert overall.pct_slash16 == pytest.approx(2 / 3)
        by_name = {row.as_name: row for row in rows}
        assert by_name["A"].total_changes == 2
        assert by_name["B"].diff_slash16 == 1

    def test_rows_ordered_by_probe_count_and_top(self):
        changes = {
            1: [change("11.0.0.1", "11.0.0.2", 1)],
            2: [change("11.0.0.3", "11.0.0.4", 2)],
            3: [change("12.0.0.1", "12.0.0.2", 3)],
        }
        asns = {1: 100, 2: 100, 3: 200}
        _, rows = prefix_change_table(changes, asns, make_ip2as(), {})
        assert [row.asn for row in rows] == [100, 200]
        _, top_rows = prefix_change_table(changes, asns, make_ip2as(), {},
                                          top=1)
        assert len(top_rows) == 1

    def test_empty(self):
        overall, rows = prefix_change_table({}, {}, make_ip2as(), {})
        assert overall.total_changes == 0
        assert rows == []
        assert overall.pct_bgp == 0.0
