"""Tests for repro.atlas.sosuptime."""

import io

import pytest

from repro.atlas.sosuptime import UPTIME_WRAP_MODULUS, UptimeDataset
from repro.atlas.types import UptimeRecord
from repro.errors import DatasetError, ParseError
from repro.util.ingest import IngestReport, ReadPolicy


class TestUptimeDataset:
    def test_add_and_query(self):
        dataset = UptimeDataset([
            UptimeRecord(206, 1000.0, 500.0),
            UptimeRecord(206, 2000.0, 19.0),
            UptimeRecord(207, 50.0, 10.0),
        ])
        assert dataset.probe_ids() == [206, 207]
        assert len(dataset.records(206)) == 2
        assert dataset.records(999) == []

    def test_out_of_order_rejected(self):
        dataset = UptimeDataset([UptimeRecord(206, 1000.0, 500.0)])
        with pytest.raises(DatasetError):
            dataset.add(UptimeRecord(206, 900.0, 100.0))

    def test_stage_matches_add(self):
        staged = UptimeDataset()
        staged.stage(206, [(1000.0, 500.0), (2000.0, 19.0)])
        assert staged.records(206) == [UptimeRecord(206, 1000.0, 500.0),
                                       UptimeRecord(206, 2000.0, 19.0)]

    def test_stage_rejects_bad_rows_without_staging_anything(self):
        dataset = UptimeDataset()
        dataset.stage(206, [(1000.0, 500.0)])
        with pytest.raises(DatasetError, match="out of order"):
            dataset.stage(206, [(1500.0, 1.0), (1200.0, 2.0)])
        with pytest.raises(DatasetError, match="negative"):
            dataset.stage(206, [(3000.0, -1.0)])
        assert len(dataset.records(206)) == 1

    def test_records_in_window(self):
        dataset = UptimeDataset([
            UptimeRecord(206, 100.0, 1.0),
            UptimeRecord(206, 200.0, 1.0),
            UptimeRecord(206, 300.0, 1.0),
        ])
        found = dataset.records_in(206, 150.0, 300.0)
        assert [r.timestamp for r in found] == [200.0]
        assert dataset.records_in(206, 200.0, 201.0)[0].timestamp == 200.0

    def test_roundtrip(self):
        dataset = UptimeDataset([
            UptimeRecord(206, 1000.0, 262531.0),
            UptimeRecord(206, 2000.0, 19.0),
        ])
        buffer = io.StringIO()
        dataset.write(buffer)
        parsed = UptimeDataset.read(io.StringIO(buffer.getvalue()))
        assert [r.uptime for r in parsed.records(206)] == [262531.0, 19.0]

    @pytest.mark.parametrize("line", [
        "206\t100",                # too few
        "206\t100\t5\textra",      # too many
        "x\t100\t5",               # bad id
        "206\tx\t5",               # bad timestamp
        "206\t100\tx",             # bad uptime
    ])
    def test_read_rejects_malformed(self, line):
        with pytest.raises(ParseError):
            UptimeDataset.read(io.StringIO(line + "\n"))

    def test_read_skips_comments(self):
        text = "# header\n\n206\t100\t5\n"
        assert len(UptimeDataset.read(io.StringIO(text)).records(206)) == 1


class TestStrictDiagnostics:
    def test_malformed_line_names_source_and_line(self):
        text = "206\t100\t5\n206\tx\t5\n"
        with pytest.raises(ParseError, match=r"up\.tsv: line 2:"):
            UptimeDataset.read(io.StringIO(text), source="up.tsv")

    def test_wrapped_counter_rejected(self):
        wrapped = "206\t100\t%.0f\n" % (UPTIME_WRAP_MODULUS + 5)
        with pytest.raises(ParseError, match=r"line 1: .*32-bit wrap"):
            UptimeDataset.read(io.StringIO(wrapped))

    def test_out_of_order_names_source_and_line(self):
        text = "206\t1000\t5\n206\t900\t5\n"
        with pytest.raises(DatasetError, match=r"up\.tsv: line 2:"):
            UptimeDataset.read(io.StringIO(text), source="up.tsv")


class TestRepairRead:
    def test_unwraps_counter_modulo_2_32(self):
        wrapped = "206\t100\t%.0f\n" % (UPTIME_WRAP_MODULUS + 42)
        report = IngestReport()
        dataset = UptimeDataset.read(io.StringIO(wrapped),
                                     policy=ReadPolicy.REPAIR,
                                     report=report)
        assert dataset.records(206)[0].uptime == 42.0
        assert report.dataset("uptime").repaired == 1

    def test_quarantines_garbage_and_resorts(self):
        text = ("206\t1000\t5\n"
                "206\tgarbage\tX\n"
                "206\t3000\t5\n"
                "206\t2000\t5\n")
        report = IngestReport()
        dataset = UptimeDataset.read(io.StringIO(text),
                                     policy=ReadPolicy.REPAIR,
                                     report=report, source="up.tsv")
        assert [r.timestamp for r in dataset.records(206)] \
            == [1000.0, 2000.0, 3000.0]
        ingest = report.dataset("uptime")
        assert ingest.quarantined == 1
        assert ingest.repaired == 2
        assert ingest.total == 4

    def test_repair_on_clean_input_is_clean(self):
        report = IngestReport()
        dataset = UptimeDataset.read(io.StringIO("206\t100\t5\n"),
                                     policy=ReadPolicy.REPAIR,
                                     report=report)
        assert len(dataset.records(206)) == 1
        assert report.clean
