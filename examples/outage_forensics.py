"""Forensics walkthrough: why did this probe's address change?

Takes one probe from a small simulated world and replays the paper's
attribution process step by step, printing the evidence at each stage:

1. the connection-log gaps and the address on each side;
2. the k-root ping rounds inside each gap (loss + LTS);
3. any uptime-counter reset (reboot) inside the gap;
4. the pipeline's classification: network outage, power outage, or none
   (Section 5.2 discards firmware-update reboots before this step).

Run with::

    python examples/outage_forensics.py
"""

from repro.core.association import GapCause
from repro.core.changes import strip_testing_entry
from repro.core.pipeline import pipeline_for_world
from repro.core.reboots import detect_reboots
from repro.experiments.scenarios import small_world
from repro.net.ipv4 import TESTING_ADDRESS
from repro.util import timeutil


def main() -> None:
    world = small_world(seed=11)
    results = pipeline_for_world(world).run()

    # Pick the analyzable probe with the most attributed outages.
    def outage_count(pid):
        return sum(1 for e in results.gap_events_by_probe.get(pid, [])
                   if e.cause is not GapCause.NONE)

    probe_id = max(results.gap_events_by_probe, key=outage_count)
    truth = world.truth[probe_id]
    print("Probe %d (ISP: %s)\n" % (probe_id, truth.isp_names[0]))

    # The probe's connections, minus the RIPE testing entry (Section 3.3).
    entries, _ = strip_testing_entry(world.connlog.entries(probe_id),
                                     TESTING_ADDRESS)
    series = world.kroot.series(probe_id)
    reboots = detect_reboots(world.uptime.records(probe_id))
    # The pipeline's verdicts, one per gap between these entries.
    events = results.gap_events_by_probe[probe_id]

    shown = 0
    for previous, current, event in zip(entries, entries[1:], events):
        if event.cause is GapCause.NONE and not event.address_changed:
            continue
        shown += 1
        if shown > 8:
            print("... (further gaps elided)")
            break
        print("Gap %s .. %s" % (timeutil.format_log_time(event.gap_start),
                                timeutil.format_log_time(event.gap_end)))
        print("  address %s -> %s%s" % (
            previous.address, current.address,
            "  (CHANGED)" if event.address_changed else ""))
        records = series.records(event.gap_start - 480,
                                 event.gap_end + 480)
        lost = [r for r in records if r.all_lost]
        if lost:
            print("  k-root: %d/%d rounds all-lost, LTS %d..%d s"
                  % (len(lost), len(records), lost[0].lts, lost[-1].lts))
        elif len(records) < (event.gap_end - event.gap_start) // 240:
            print("  k-root: rounds missing (probe was dark)")
        gap_reboots = [r for r in reboots
                       if event.gap_start - 480 <= r.time <= event.gap_end]
        for reboot in gap_reboots:
            print("  uptime reset -> reboot at %s"
                  % timeutil.format_log_time(reboot.time))
        print("  verdict: %s%s\n" % (
            event.cause.value,
            ", ~%.0f min outage" % (event.outage_duration / 60)
            if event.outage_duration else ""))

    stats = results.stats_by_probe.get(probe_id)
    if stats is not None:
        print("Summary: P(change|network outage) = %.2f over %d outages; "
              "P(change|power outage) = %.2f over %d outages"
              % (stats.p_change_given_network, stats.network_outages,
                 stats.p_change_given_power, stats.power_outages))


if __name__ == "__main__":
    main()
