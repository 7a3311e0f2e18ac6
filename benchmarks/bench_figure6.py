"""Figure 6: probes rebooting per day with firmware-update spikes.

Times reboot detection plus spike inference over the whole uptime dataset
and checks each configured firmware campaign is recovered within a few
days (the paper matched three of five documented dates exactly and two
approximately).
"""

from repro.atlas.columnar import ColumnarUptime
from repro.core.colkernels import detect_reboots_col
from repro.core.reboots import detect_firmware_days, reboots_per_day
from repro.util import timeutil


def test_figure6_firmware_spikes(world, benchmark):
    def run():
        by_probe = detect_reboots_col(
            ColumnarUptime.from_uptime(world.uptime))
        per_day = reboots_per_day(by_probe)
        return per_day, detect_firmware_days(per_day)

    per_day, firmware_days = benchmark.pedantic(run, rounds=1, iterations=1)
    campaign_days = [timeutil.day_of_year(t)
                     for t in world.config.firmware_campaigns]
    print("\nInferred firmware days: %s" % firmware_days)
    print("Configured campaign days: %s" % campaign_days)

    assert firmware_days, "no spikes detected"
    # Every configured campaign is recovered within a 3-day window.
    for campaign in campaign_days:
        assert any(abs(day - campaign) <= 3 for day in firmware_days), \
            "campaign day %d not recovered" % campaign
    # And nothing spurious: at most one extra inferred day.
    assert len(firmware_days) <= len(campaign_days) + 1

    # Spike magnitude: campaign days dwarf the median day.
    counts = sorted(per_day.values())
    median = counts[len(counts) // 2]
    peak = max(per_day.get(day, 0) for day in firmware_days)
    assert peak > 2 * median
