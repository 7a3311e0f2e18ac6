"""Tests for repro.core.reboots."""

from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import UptimeRecord
from repro.core.reboots import (
    Reboot,
    detect_firmware_days,
    detect_reboots,
    firmware_filtered_reboots,
    reboots_per_day,
    remove_firmware_reboots,
)
from repro.util import timeutil
from repro.util.timeutil import DAY
from tests.oracle import detect_all_reboots

T0 = timeutil.YEAR_2015_START


class TestDetectReboots:
    def test_paper_table4_example(self):
        # Table 4: counter 315038 then 19 -> reboot 19 s before the report.
        records = [
            UptimeRecord(206, 1000.0, 262531.0),
            UptimeRecord(206, 53507.0, 315038.0),
            UptimeRecord(206, 53536.0, 19.0),
            UptimeRecord(206, 53720.0, 203.0),
        ]
        reboots = detect_reboots(records)
        assert len(reboots) == 1
        assert reboots[0].time == 53536.0 - 19.0
        assert reboots[0].reported_at == 53536.0

    def test_growing_counter_no_reboot(self):
        records = [UptimeRecord(1, 100.0, 50.0), UptimeRecord(1, 200.0, 150.0)]
        assert detect_reboots(records) == []

    def test_multiple_resets(self):
        records = [
            UptimeRecord(1, 100.0, 1000.0),
            UptimeRecord(1, 200.0, 10.0),
            UptimeRecord(1, 500.0, 310.0),
            UptimeRecord(1, 600.0, 5.0),
        ]
        assert len(detect_reboots(records)) == 2

    def test_detect_all(self):
        dataset = UptimeDataset([
            UptimeRecord(1, 100.0, 1000.0), UptimeRecord(1, 200.0, 10.0),
            UptimeRecord(2, 100.0, 50.0),
        ])
        by_probe = detect_all_reboots(dataset)
        assert len(by_probe[1]) == 1
        assert by_probe[2] == []


class TestRebootsPerDay:
    def test_unique_probes_per_day(self):
        by_probe = {
            1: [Reboot(1, T0 + 3600, T0 + 3700),
                Reboot(1, T0 + 7200, T0 + 7300)],    # same day, counted once
            2: [Reboot(2, T0 + 3600, T0 + 3700)],
            3: [Reboot(3, T0 + DAY + 60, T0 + DAY + 160)],
        }
        per_day = reboots_per_day(by_probe)
        assert per_day == {1: 2, 2: 1}


class TestDetectFirmwareDays:
    def make_counts(self, spikes):
        counts = {day: 10 for day in range(1, 366)}
        for day in spikes:
            counts[day] = 100
        return counts

    def test_two_day_spikes_detected(self):
        counts = self.make_counts([100, 101, 250, 251, 252])
        assert detect_firmware_days(counts) == [100, 250]

    def test_single_day_spike_ignored(self):
        counts = self.make_counts([100])
        assert detect_firmware_days(counts) == []

    def test_threshold_uses_median(self):
        counts = {day: 10 for day in range(1, 366)}
        counts[50] = 19
        counts[51] = 19  # below 2x median
        assert detect_firmware_days(counts) == []

    def test_empty(self):
        assert detect_firmware_days({}) == []

    def test_run_ending_at_year_end(self):
        counts = self.make_counts([364, 365])
        assert detect_firmware_days(counts) == [364]

    def test_sparse_data_guard(self):
        # Median zero must not make every nonzero day a spike.
        counts = {100: 1, 101: 1}
        assert detect_firmware_days(counts) == []


class TestRemoveFirmwareReboots:
    def test_first_reboot_after_campaign_dropped(self):
        reboots = [Reboot(1, 100.0, 110.0), Reboot(1, 500.0, 510.0),
                   Reboot(1, 900.0, 910.0)]
        kept = remove_firmware_reboots(reboots, [400.0])
        assert [r.time for r in kept] == [100.0, 900.0]

    def test_two_campaigns_drop_two(self):
        reboots = [Reboot(1, 500.0, 0), Reboot(1, 900.0, 0),
                   Reboot(1, 1300.0, 0)]
        kept = remove_firmware_reboots(reboots, [400.0, 800.0])
        assert [r.time for r in kept] == [1300.0]

    def test_campaign_without_reboot_harmless(self):
        reboots = [Reboot(1, 100.0, 0)]
        kept = remove_firmware_reboots(reboots, [400.0])
        assert [r.time for r in kept] == [100.0]

    def test_bulk_filter(self):
        by_probe = {1: [Reboot(1, 500.0, 0)], 2: []}
        filtered = firmware_filtered_reboots(by_probe, [400.0])
        assert filtered[1] == []
        assert filtered[2] == []
