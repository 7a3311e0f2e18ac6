"""Tests for repro.atlas.connlog."""

import io

import pytest

from repro.atlas.connlog import ConnectionLog
from repro.atlas.types import ConnectionLogEntry
from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import IPv4Address
from repro.util import timeutil
from repro.util.ingest import IngestReport, ReadPolicy


def v4(probe, start, end, text):
    return ConnectionLogEntry(probe, start, end, IPv4Address.parse(text))


class TestConnectionLog:
    def test_add_and_query(self):
        log = ConnectionLog()
        log.add(v4(206, 0.0, 100.0, "91.55.174.103"))
        log.add(v4(206, 150.0, 300.0, "91.55.169.37"))
        log.add(v4(207, 0.0, 50.0, "10.0.0.1"))
        assert log.probe_ids() == [206, 207]
        assert len(log.entries(206)) == 2
        assert log.entry_count() == 3
        assert log.entries(999) == []

    def test_rejects_overlapping_entries(self):
        log = ConnectionLog()
        log.add(v4(206, 0.0, 100.0, "91.55.174.103"))
        with pytest.raises(DatasetError):
            log.add(v4(206, 99.0, 200.0, "91.55.169.37"))

    def test_touching_entries_allowed(self):
        log = ConnectionLog()
        log.add(v4(206, 0.0, 100.0, "91.55.174.103"))
        log.add(v4(206, 100.0, 200.0, "91.55.169.37"))
        assert log.entry_count() == 2

    def test_stage_matches_add(self):
        added = ConnectionLog()
        added.add(v4(206, 0.0, 100.0, "91.55.174.103"))
        added.add(ConnectionLogEntry(206, 150.0, 300.0, None,
                                     ipv6_address="2001:db8::1"))
        staged = ConnectionLog()
        staged.stage(206, [
            (0.0, 100.0, IPv4Address.parse("91.55.174.103").value, None),
            (150.0, 300.0, 0, "2001:db8::1")])
        assert staged.entries(206) == added.entries(206)
        assert staged.columns().starts.tolist() == [0.0, 150.0]

    def test_stage_rejects_disorder_without_staging_anything(self):
        log = ConnectionLog()
        log.stage(206, [(0.0, 100.0, 1, None)])
        with pytest.raises(DatasetError, match="overlaps"):
            log.stage(206, [(100.0, 150.0, 2, None), (120.0, 200.0, 3, None)])
        with pytest.raises(DatasetError, match="ends before"):
            log.stage(206, [(300.0, 200.0, 4, None)])
        assert log.entry_count() == 1

    def test_stage_after_seal_continues_the_probe(self):
        log = ConnectionLog()
        log.stage(206, [(0.0, 100.0, 1, None)])
        assert log.entry_count() == 1          # seals
        with pytest.raises(DatasetError):
            log.stage(206, [(50.0, 60.0, 2, None)])
        log.stage(206, [(100.0, 160.0, 2, None)])
        assert [e.address.value for e in log.entries(206)] == [1, 2]

    def test_total_connected_time(self):
        log = ConnectionLog([
            v4(206, 0.0, 100.0, "91.55.174.103"),
            v4(206, 150.0, 250.0, "91.55.169.37"),
        ])
        assert log.total_connected_time(206) == 200.0
        assert log.total_connected_time(999) == 0.0

    def test_iteration_orders_by_probe_then_time(self):
        log = ConnectionLog([
            v4(300, 0.0, 10.0, "10.0.0.1"),
            v4(100, 0.0, 10.0, "10.0.0.2"),
            v4(100, 20.0, 30.0, "10.0.0.3"),
        ])
        assert [e.probe_id for e in log] == [100, 100, 300]


class TestSerialization:
    def test_roundtrip_mixed_families(self):
        log = ConnectionLog([
            v4(206, 0.0, 100.0, "91.55.174.103"),
            ConnectionLogEntry(206, 150.0, 300.0, None,
                               ipv6_address="2001:db8::1"),
        ])
        buffer = io.StringIO()
        log.write(buffer)
        parsed = ConnectionLog.read(io.StringIO(buffer.getvalue()))
        entries = parsed.entries(206)
        assert len(entries) == 2
        assert str(entries[0].address) == "91.55.174.103"
        assert entries[1].ipv6_address == "2001:db8::1"

    def test_read_skips_comments(self):
        text = "# probes\n206\t0\t100\t91.55.174.103\n"
        assert ConnectionLog.read(io.StringIO(text)).entry_count() == 1

    @pytest.mark.parametrize("line", [
        "206\t0\t100",                       # too few fields
        "206\t0\t100\t1.2.3.4\tmore",        # too many
        "x\t0\t100\t1.2.3.4",                # bad id
        "206\tx\t100\t1.2.3.4",              # bad start
        "206\t0\t100\tnot-an-address",       # bad address
    ])
    def test_read_rejects_malformed(self, line):
        with pytest.raises(ParseError):
            ConnectionLog.read(io.StringIO(line + "\n"))


class TestStrictDiagnostics:
    def test_malformed_line_names_source_and_line(self):
        text = "206\t0\t100\t1.2.3.4\njunk\n"
        with pytest.raises(ParseError, match=r"log\.tsv: line 2:"):
            ConnectionLog.read(io.StringIO(text), source="log.tsv")

    def test_source_defaults_to_placeholder(self):
        with pytest.raises(ParseError, match=r"<connlog>: line 1:"):
            ConnectionLog.read(io.StringIO("junk\n"))

    def test_out_of_order_names_source_and_line(self):
        text = ("206\t100\t200\t1.2.3.4\n"
                "206\t0\t50\t1.2.3.5\n")
        with pytest.raises(DatasetError, match=r"log\.tsv: line 2:"):
            ConnectionLog.read(io.StringIO(text), source="log.tsv")

    def test_strict_fills_report_on_success(self):
        report = IngestReport()
        ConnectionLog.read(io.StringIO("206\t0\t100\t1.2.3.4\n"),
                           report=report)
        assert report.dataset("connlog").parsed == 1
        assert report.clean


class TestRepairRead:
    TEXT = ("206\t0\t100\t1.2.3.4\n"
            "garbage line\n"
            "206\t250\t300\t1.2.3.6\n"     # out of order with next
            "206\t150\t200\t1.2.3.5\n"
            "206\t150\t200\t1.2.3.5\n"     # duplicate -> overlap
            "207\t0\t100\t10.0.0.1\n")

    def read(self):
        report = IngestReport()
        log = ConnectionLog.read(io.StringIO(self.TEXT),
                                 policy=ReadPolicy.REPAIR,
                                 report=report, source="log.tsv")
        return log, report

    def test_quarantines_garbage_and_duplicates(self):
        log, report = self.read()
        assert log.entry_count() == 4
        assert report.dataset("connlog").quarantined == 2

    def test_resorts_out_of_order_entries(self):
        log, report = self.read()
        assert [e.start for e in log.entries(206)] == [0.0, 150.0, 250.0]
        assert report.dataset("connlog").repaired == 2

    def test_accounting_balances(self):
        _, report = self.read()
        # 6 record lines presented: parsed + repaired + quarantined.
        assert report.dataset("connlog").total == 6

    def test_repair_on_clean_input_is_clean(self):
        report = IngestReport()
        log = ConnectionLog.read(
            io.StringIO("206\t0\t100\t1.2.3.4\n206\t100\t200\t1.2.3.5\n"),
            policy=ReadPolicy.REPAIR, report=report)
        assert log.entry_count() == 2
        assert report.clean


class TestPaperStyleRendering:
    def test_table1_style(self):
        start = timeutil.epoch(2015, 1, 1, 3, 22, 16)
        end = timeutil.epoch(2015, 1, 1, 17, 34, 11)
        log = ConnectionLog([v4(206, start, end, "91.55.169.37")])
        text = log.render_paper_style(206)
        lines = text.splitlines()
        assert lines[0].startswith("ID")
        assert "Jan  1 03:22:16" in lines[1]
        assert "91.55.169.37" in lines[1]

    def test_limit(self):
        log = ConnectionLog([
            v4(206, 0.0, 10.0, "10.0.0.1"),
            v4(206, 20.0, 30.0, "10.0.0.2"),
        ])
        assert len(log.render_paper_style(206, limit=1).splitlines()) == 2
