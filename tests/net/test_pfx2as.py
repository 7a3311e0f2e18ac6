"""Tests for repro.net.pfx2as."""

import io

import pytest

from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.pfx2as import AsMapping, IpToAsDataset, Pfx2AsSnapshot
from repro.util import timeutil
from repro.util.ingest import IngestReport, ReadPolicy


def snapshot_with(*entries):
    return Pfx2AsSnapshot(
        AsMapping(IPv4Prefix.parse(text), asn) for text, asn in entries
    )


class TestAsMapping:
    def test_rejects_nonpositive_asn(self):
        with pytest.raises(ParseError):
            AsMapping(IPv4Prefix.parse("10.0.0.0/8"), 0)

    def test_rejects_asn_beyond_32_bits(self):
        with pytest.raises(ParseError):
            AsMapping(IPv4Prefix.parse("10.0.0.0/8"), 1 << 32)
        assert AsMapping(IPv4Prefix.parse("10.0.0.0/8"), (1 << 32) - 1)


class TestSnapshotLookup:
    def test_origin_asn_longest_match(self):
        snap = snapshot_with(("10.0.0.0/8", 100), ("10.5.0.0/16", 200))
        assert snap.origin_asn(IPv4Address.parse("10.5.0.1")) == 200
        assert snap.origin_asn(IPv4Address.parse("10.9.0.1")) == 100
        assert snap.origin_asn(IPv4Address.parse("11.0.0.1")) is None

    def test_bgp_prefix(self):
        snap = snapshot_with(("10.0.0.0/8", 100), ("10.5.0.0/16", 200))
        assert str(snap.bgp_prefix(IPv4Address.parse("10.5.0.1"))) == "10.5.0.0/16"
        assert snap.bgp_prefix(IPv4Address.parse("200.0.0.1")) is None

    def test_len(self):
        assert len(snapshot_with(("10.0.0.0/8", 1), ("11.0.0.0/8", 2))) == 2


class TestSnapshotSerialization:
    def test_write_read_roundtrip(self):
        snap = snapshot_with(("10.0.0.0/8", 100), ("91.55.0.0/16", 3320))
        buffer = io.StringIO()
        snap.write(buffer)
        parsed = Pfx2AsSnapshot.read(io.StringIO(buffer.getvalue()))
        assert [(str(m.prefix), m.asn) for m in parsed.mappings()] == [
            ("10.0.0.0/8", 100), ("91.55.0.0/16", 3320)]

    def test_read_skips_comments_and_blanks(self):
        text = "# header\n\n10.0.0.0\t8\t100\n"
        snap = Pfx2AsSnapshot.read(io.StringIO(text))
        assert len(snap) == 1

    @pytest.mark.parametrize("line", [
        "10.0.0.0\t8",                 # too few fields
        "10.0.0.0\t8\t100\textra",     # too many fields
        "10.0.0.0\tx\t100",            # non-numeric length
        "10.0.0.0\t8\tAS100",          # non-numeric ASN
        "10.0.0.1\t8\t100",            # host bits set
        "10.0.0.256\t8\t100",          # bad address
    ])
    def test_read_rejects_malformed(self, line):
        with pytest.raises(ParseError):
            Pfx2AsSnapshot.read(io.StringIO(line + "\n"))

    @pytest.mark.parametrize("asn", ["4294967296", "99999999999999999999"])
    def test_strict_rejects_asn_beyond_32_bits(self, asn):
        text = "11.0.0.0\t8\t200\n10.0.0.0\t8\t%s\n" % asn
        with pytest.raises(ParseError, match=r"2015-01\.txt: line 2: ASN"):
            Pfx2AsSnapshot.read(io.StringIO(text), source="2015-01.txt")

    def test_repair_quarantines_asn_beyond_32_bits(self):
        text = ("10.0.0.0\t8\t99999999999999999999\n"
                "11.0.0.0\t8\t4294967295\n")
        report = IngestReport()
        snap = Pfx2AsSnapshot.read(io.StringIO(text),
                                   policy=ReadPolicy.REPAIR,
                                   report=report, source="2015-01.txt")
        ingest = report.dataset("pfx2as")
        assert (ingest.parsed, ingest.quarantined) == (1, 1)
        assert report.issues[0].line == 1
        # The surviving table still builds and answers lookups.
        assert snap.origin_asn(IPv4Address.parse("10.1.1.1")) is None
        assert snap.origin_asn(IPv4Address.parse("11.1.1.1")) == 4294967295
        assert snap.stab_arrays()[1].tolist() == [-1, 4294967295, -1]

    def test_strict_error_names_source_and_line(self):
        text = "10.0.0.0\t8\t100\nbroken\n"
        with pytest.raises(ParseError, match=r"2015-01\.txt: line 2:"):
            Pfx2AsSnapshot.read(io.StringIO(text), source="2015-01.txt")

    def test_repair_quarantines_bad_lines(self):
        text = "10.0.0.0\t8\t100\nbroken\n11.0.0.0\t8\t200\n"
        report = IngestReport()
        snap = Pfx2AsSnapshot.read(io.StringIO(text),
                                   policy=ReadPolicy.REPAIR,
                                   report=report, source="2015-01.txt")
        assert len(snap) == 2
        ingest = report.dataset("pfx2as")
        assert (ingest.parsed, ingest.quarantined) == (2, 1)
        assert "2015-01.txt" in report.issues[0].format()


class TestIpToAsDataset:
    def make_dataset(self):
        dataset = IpToAsDataset()
        dataset.add_snapshot(2015, 1, snapshot_with(("10.0.0.0/8", 100)))
        dataset.add_snapshot(2015, 2, snapshot_with(("10.0.0.0/8", 999)))
        return dataset

    def test_monthly_selection(self):
        dataset = self.make_dataset()
        addr = IPv4Address.parse("10.1.2.3")
        january = timeutil.epoch(2015, 1, 15)
        february = timeutil.epoch(2015, 2, 15)
        assert dataset.origin_asn(addr, january) == 100
        assert dataset.origin_asn(addr, february) == 999

    def test_missing_month_raises(self):
        dataset = self.make_dataset()
        with pytest.raises(DatasetError):
            dataset.origin_asn(IPv4Address.parse("10.0.0.1"),
                               timeutil.epoch(2015, 3, 1))

    def test_bad_month_rejected(self):
        dataset = IpToAsDataset()
        with pytest.raises(DatasetError):
            dataset.add_snapshot(2015, 13, Pfx2AsSnapshot())

    def test_months_sorted(self):
        dataset = IpToAsDataset()
        dataset.add_snapshot(2015, 5, Pfx2AsSnapshot())
        dataset.add_snapshot(2015, 2, Pfx2AsSnapshot())
        assert dataset.months() == [(2015, 2), (2015, 5)]


class TestMonthFallback:
    def make_dataset(self, fallback):
        dataset = IpToAsDataset(fallback=fallback)
        dataset.add_snapshot(2015, 2, snapshot_with(("10.0.0.0/8", 200)))
        dataset.add_snapshot(2015, 4, snapshot_with(("10.0.0.0/8", 400)))
        return dataset

    def test_gap_maps_to_nearest_earlier_month(self):
        dataset = self.make_dataset(fallback=True)
        addr = IPv4Address.parse("10.1.2.3")
        assert dataset.origin_asn(addr, timeutil.epoch(2015, 3, 15)) == 200
        assert dataset.origin_asn(addr, timeutil.epoch(2015, 6, 1)) == 400

    def test_before_first_month_uses_earliest_later(self):
        dataset = self.make_dataset(fallback=True)
        addr = IPv4Address.parse("10.1.2.3")
        assert dataset.origin_asn(addr, timeutil.epoch(2015, 1, 1)) == 200

    def test_without_fallback_gap_still_raises(self):
        dataset = self.make_dataset(fallback=False)
        with pytest.raises(DatasetError):
            dataset.snapshot_for(timeutil.epoch(2015, 3, 15))

    def test_empty_dataset_raises_even_with_fallback(self):
        dataset = IpToAsDataset(fallback=True)
        with pytest.raises(DatasetError):
            dataset.snapshot_for(timeutil.epoch(2015, 3, 15))
