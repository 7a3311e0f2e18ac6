"""Tests for the Table 2 probe classification.

Every case runs the production stage ``stage_filter_col``, restores the
entry lists its slim verdicts drop (``restore_entries``), and asserts the
frozen record oracle (``tests/oracle.py``) returns the identical report,
so each precedence case covers both.
"""

import pytest

from repro.atlas.archive import ProbeArchive
from repro.atlas.columnar import ColumnarConnlog
from repro.atlas.connlog import ConnectionLog
from repro.atlas.types import ConnectionLogEntry, ProbeMeta
from repro.core.filtering import ProbeCategory
from repro.core.pipeline import stage_filter_col
from repro.net.ipv4 import TESTING_ADDRESS, IPv4Address, IPv4Prefix
from repro.net.pfx2as import AsMapping, IpToAsDataset, Pfx2AsSnapshot
from repro.util import timeutil
from repro.util.timeutil import DAY, HOUR
from tests.oracle import ProbeFilter, looks_multihomed, restore_entries

A = IPv4Address.parse("11.0.0.1")
A2 = IPv4Address.parse("11.0.0.2")
B = IPv4Address.parse("12.0.0.1")
T0 = timeutil.YEAR_2015_START


def make_ip2as():
    dataset = IpToAsDataset()
    snapshot = Pfx2AsSnapshot([
        AsMapping(IPv4Prefix.parse("11.0.0.0/8"), 100),
        AsMapping(IPv4Prefix.parse("12.0.0.0/8"), 200),
        AsMapping(IPv4Prefix.parse("193.0.0.0/21"), 3333),
    ])
    for year, month, _ in timeutil.iter_month_starts(
            timeutil.YEAR_2015_START, timeutil.YEAR_2015_END):
        dataset.add_snapshot(year, month, Pfx2AsSnapshot(snapshot.mappings()))
    return dataset


def v4(probe, start, end, addr):
    return ConnectionLogEntry(probe, T0 + start, T0 + end, addr)


def v6(probe, start, end):
    return ConnectionLogEntry(probe, T0 + start, T0 + end, None,
                              ipv6_address="2001:db8::1")


def classify(log, archive, ip2as, min_connected):
    """The production stage's report, entry lists restored."""
    slim = stage_filter_col(ColumnarConnlog.from_connlog(log), archive,
                            ip2as, min_connected=min_connected)
    assert all(not verdict.entries for verdict in slim.verdicts.values())
    return restore_entries(slim, log)


def run_filter(entries, metas=(), min_connected=DAY):
    """Classify with production; the oracle must agree field for field."""
    log = ConnectionLog(entries)
    archive = ProbeArchive(metas)
    ip2as = make_ip2as()
    report = classify(log, archive, ip2as, min_connected)
    oracle = ProbeFilter(log, archive, ip2as,
                         min_connected=min_connected).run()
    assert list(report.verdicts) == list(oracle.verdicts)
    assert report.verdicts == oracle.verdicts
    assert report.total == oracle.total
    return report


class TestLooksMultihomed:
    def test_alternating_pattern_detected(self):
        fixed = A
        seq = []
        for i in range(10):
            seq.extend([fixed, IPv4Address(A2.value + i)])
        assert looks_multihomed(seq)

    def test_occasional_regrant_not_detected(self):
        # A appears twice (harmonic re-grant), far from 5 runs.
        seq = [A, A2, A, B]
        assert not looks_multihomed(seq)

    def test_constant_address_not_detected(self):
        assert not looks_multihomed([A] * 50)

    def test_empty(self):
        assert not looks_multihomed([])


class TestCategories:
    def test_short_lived_excluded_from_total(self):
        report = run_filter([v4(1, 0, HOUR, A)], min_connected=DAY)
        assert report.total == 0
        assert report.verdicts[1].category is ProbeCategory.SHORT_LIVED

    def test_ipv6_only(self):
        report = run_filter([v6(1, 0, 2 * DAY)])
        assert report.verdicts[1].category is ProbeCategory.IPV6_ONLY

    def test_dual_stack(self):
        report = run_filter([v4(1, 0, DAY, A), v6(1, DAY + 1, 2 * DAY)])
        assert report.verdicts[1].category is ProbeCategory.DUAL_STACK

    def test_tagged(self):
        metas = [ProbeMeta(1, "DE", "EU", tags=("multihomed",))]
        report = run_filter([v4(1, 0, 2 * DAY, A)], metas)
        assert report.verdicts[1].category is ProbeCategory.TAGGED

    def test_untagged_meta_not_tagged(self):
        metas = [ProbeMeta(1, "DE", "EU", tags=("home",))]
        report = run_filter([v4(1, 0, 2 * DAY, A)], metas)
        assert report.verdicts[1].category is ProbeCategory.NEVER_CHANGED

    def test_behavioral_multihomed(self):
        entries = []
        clock = 0.0
        for i in range(12):
            addr = A if i % 2 == 0 else IPv4Address(A2.value + i)
            entries.append(v4(1, clock, clock + 6 * HOUR, addr))
            clock += 7 * HOUR
        report = run_filter(entries)
        assert report.verdicts[1].category is ProbeCategory.MULTIHOMED

    def test_testing_only(self):
        entries = [v4(1, 0, HOUR, TESTING_ADDRESS),
                   v4(1, 2 * HOUR, 5 * DAY, A)]
        report = run_filter(entries)
        assert report.verdicts[1].category is ProbeCategory.TESTING_ONLY

    def test_testing_then_changes_is_analyzable(self):
        entries = [v4(1, 0, HOUR, TESTING_ADDRESS),
                   v4(1, 2 * HOUR, 2 * DAY, A),
                   v4(1, 2 * DAY + HOUR, 5 * DAY, A2)]
        report = run_filter(entries)
        verdict = report.verdicts[1]
        assert verdict.category is ProbeCategory.ANALYZABLE
        # The testing entry itself is not counted as a change.
        assert len(verdict.changes) == 1

    def test_never_changed(self):
        report = run_filter([v4(1, 0, 2 * DAY, A)])
        assert report.verdicts[1].category is ProbeCategory.NEVER_CHANGED

    def test_analyzable_single_as(self):
        entries = [v4(1, 0, DAY, A), v4(1, DAY + HOUR, 3 * DAY, A2)]
        report = run_filter(entries)
        verdict = report.verdicts[1]
        assert verdict.category is ProbeCategory.ANALYZABLE
        assert not verdict.multi_as
        assert verdict.asn == 100
        assert report.analyzable_as() == [1]

    def test_analyzable_multi_as(self):
        entries = [v4(1, 0, DAY, A), v4(1, DAY + HOUR, 3 * DAY, B)]
        report = run_filter(entries)
        verdict = report.verdicts[1]
        assert verdict.category is ProbeCategory.ANALYZABLE
        assert verdict.multi_as
        assert report.analyzable_as() == []
        assert report.multi_as_probes() == [1]
        # The cross-AS change is excluded from within-AS changes.
        assert verdict.within_as_changes == []

    def test_mixed_changes_keep_within_as(self):
        entries = [v4(1, 0, DAY, A), v4(1, DAY + HOUR, 2 * DAY, A2),
                   v4(1, 2 * DAY + HOUR, 4 * DAY, B)]
        report = run_filter(entries)
        verdict = report.verdicts[1]
        assert verdict.multi_as
        assert len(verdict.changes) == 2
        assert len(verdict.within_as_changes) == 1


class TestMissingPfx2asMonth:
    def test_filter_refuses_to_guess_the_routing_table(self):
        # A change in a month with no pfx2as snapshot must raise, not fall
        # back to a different month's table (Section 3.3 uses the snapshot
        # of the assignment month specifically).
        from repro.errors import DatasetError
        dataset = IpToAsDataset()
        dataset.add_snapshot(2015, 1, Pfx2AsSnapshot([
            AsMapping(IPv4Prefix.parse("11.0.0.0/8"), 100)]))
        entries = [v4(1, 0, DAY, A),
                   v4(1, 35 * DAY, 38 * DAY, A2)]  # change lands in February
        log = ConnectionLog(entries)
        with pytest.raises(DatasetError):
            classify(log, ProbeArchive(), dataset, DAY)
        with pytest.raises(DatasetError):
            ProbeFilter(log, ProbeArchive(), dataset,
                        min_connected=DAY).run()


class TestReportAggregation:
    def make_report(self):
        entries = [
            v4(1, 0, 2 * DAY, A),                                # never
            v6(2, 0, 2 * DAY),                                   # ipv6
            v4(3, 0, DAY, A), v6(3, DAY + 1, 2 * DAY),           # dual
            v4(4, 0, DAY, A), v4(4, DAY + HOUR, 3 * DAY, A2),    # analyzable
        ]
        return run_filter(entries)

    def test_counts(self):
        report = self.make_report()
        assert report.total == 4
        assert report.count(ProbeCategory.NEVER_CHANGED) == 1
        assert report.count(ProbeCategory.IPV6_ONLY) == 1
        assert report.count(ProbeCategory.DUAL_STACK) == 1
        assert report.count(ProbeCategory.ANALYZABLE) == 1

    def test_table2_rows_sum(self):
        report = self.make_report()
        rows = dict(report.table2_rows())
        filtered = (rows["Never changed"] + rows["Dual Stack"] + rows["IPv6"]
                    + rows["Multihomed / Core / Data-center (tags)"]
                    + rows["Multihomed (alternating addresses)"]
                    + rows["Only address change from 193.0.0.78"])
        assert filtered + rows["Analyzable (geography)"] == rows["Total Probes"]
        assert (rows["Analyzable (geography)"] - rows["Multiple ASes"]
                == rows["Analyzable (AS-level)"])

    def test_probes_in(self):
        report = self.make_report()
        assert report.probes_in(ProbeCategory.IPV6_ONLY) == [2]
        assert report.analyzable_geo() == [4]
