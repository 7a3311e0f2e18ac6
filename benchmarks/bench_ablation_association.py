"""Ablation: gap-association priority order (Section 3.6).

The paper attributes a gap to a network outage *before* considering a
power outage, because the k-root signal is the more reliable of the two.
This ablation compares against a reboot-first variant: whenever both
signals are present in a gap, reboot-first claims it as a power outage,
inflating the power count with events the network data already explains.
"""

from repro.core.association import GapCause
from repro.core.changes import strip_testing_entry
from repro.core.outages import detect_network_outages
from repro.core.association import WINDOW_MARGIN, _missing_rounds_around
from repro.net.ipv4 import TESTING_ADDRESS


def reboot_first_cause(entries, series, reboots):
    """Naive variant: check the uptime reset before the k-root signal."""
    causes = []
    ordered = sorted(reboots, key=lambda r: r.time)
    for previous, current in zip(entries, entries[1:]):
        gap_start, gap_end = previous.end, current.start
        cause = GapCause.NONE
        for reboot in ordered:
            if gap_start - WINDOW_MARGIN <= reboot.time <= gap_end:
                missing, _ = _missing_rounds_around(series, reboot.time)
                if missing:
                    cause = GapCause.POWER
                    break
        if cause is GapCause.NONE:
            records = series.records(gap_start - WINDOW_MARGIN,
                                     gap_end + WINDOW_MARGIN)
            for outage in detect_network_outages(records):
                if outage.overlaps(gap_start, gap_end):
                    cause = GapCause.NETWORK
                    break
        causes.append(cause)
    return causes


def test_ablation_association_priority(world, results, benchmark):
    from repro.atlas.columnar import ColumnarUptime
    from repro.core.colkernels import detect_reboots_col
    from repro.core.reboots import firmware_filtered_reboots
    from repro.util import timeutil

    raw = detect_reboots_col(ColumnarUptime.from_uptime(world.uptime))
    campaigns = [timeutil.YEAR_2015_START + (d - 1) * timeutil.DAY
                 for d in results.firmware_days]
    filtered = firmware_filtered_reboots(raw, campaigns)

    probe_ids = list(results.gap_events_by_probe)[:150]

    def run_naive():
        counts = {GapCause.NETWORK: 0, GapCause.POWER: 0, GapCause.NONE: 0}
        for pid in probe_ids:
            entries, _ = strip_testing_entry(world.connlog.entries(pid),
                                             TESTING_ADDRESS)
            causes = reboot_first_cause(
                entries, world.kroot.series(pid), filtered.get(pid, []))
            for cause in causes:
                counts[cause] += 1
        return counts

    naive = benchmark.pedantic(run_naive, rounds=1, iterations=1)
    priority = {GapCause.NETWORK: 0, GapCause.POWER: 0, GapCause.NONE: 0}
    for pid in probe_ids:
        for event in results.gap_events_by_probe[pid]:
            priority[event.cause] += 1

    print("\npriority order: %s" % {k.name: v for k, v in priority.items()})
    print("reboot-first:   %s" % {k.name: v for k, v in naive.items()})

    # Same gaps classified either way.
    assert sum(naive.values()) == sum(priority.values())
    # Reboot-first claims at least as many power outages and strictly
    # fewer network outages when the signals co-occur.
    assert naive[GapCause.POWER] >= priority[GapCause.POWER]
    assert naive[GapCause.NETWORK] <= priority[GapCause.NETWORK]
    # Both agree on the unexplained remainder.
    assert naive[GapCause.NONE] == priority[GapCause.NONE]
