"""Extension experiments beyond the paper's tables and figures.

Section 8 of the paper sketches two follow-ups that we implement:

* ``ext-admin`` — attribute observed churn to *administrative renumbering*
  by detecting per-AS days of synchronized migration into never-before-seen
  prefixes;
* ``ext-churn`` — the Richter-style day-over-day active-address churn
  series the paper cites as context (~8%/day at a large CDN).

``ext-lease`` implements the paper's Section 5.4 aside that LGI's
behaviour "is consistent with a DHCP lease duration on the order of a few
hours": it infers an upper bound on each DHCP ISP's lease from the outage
duration at which renumbering becomes likely.
"""

from __future__ import annotations

from repro.core.pipeline import AnalysisResults
from repro.experiments.registry import ExperimentOutput, experiment
from repro.util import timeutil
from repro.util.tables import percent, render_table
from repro.util.timeutil import HOUR


@experiment("ext-admin")
def ext_admin(results: AnalysisResults) -> ExperimentOutput:
    """Detect administrative (mass prefix) renumbering events."""
    events = results.administrative_renumberings(timeutil.YEAR_2015_START)
    rows = [
        [results.as_names.get(event.asn, "AS%d" % event.asn),
         event.day_index + 1,
         "%d/%d" % (event.probes_changed, event.probes_total),
         ", ".join(str(p) for p in event.novel_prefixes)]
        for event in events
    ]
    text = render_table(
        ["AS", "Day of year", "Probes migrated", "Novel prefixes"],
        rows, title="Extension: administrative renumbering events")
    return ExperimentOutput("ext-admin", "Administrative renumbering",
                            text, data={"events": events})


@experiment("ext-churn")
def ext_churn(results: AnalysisResults) -> ExperimentOutput:
    """Daily active-address churn across the analyzable population."""
    series = results.churn_series(timeutil.YEAR_2015_START,
                                  timeutil.YEAR_2015_END)
    from repro.core.churn import mean_churn
    average = mean_churn(series)
    spikes = sorted(series, key=lambda p: -p.churn_fraction)[:5]
    rows = [[p.day_index, p.active, p.appeared, p.disappeared,
             percent(p.churn_fraction)] for p in sorted(
                 spikes, key=lambda p: p.day_index)]
    text = render_table(
        ["Day", "Active", "Appeared", "Disappeared", "Churn"],
        rows, title="Extension: top daily address churn (mean %s)"
        % percent(average, 1))
    return ExperimentOutput("ext-churn", "Daily address churn", text,
                            data={"series": series, "mean": average})


@experiment("ext-lease")
def ext_lease(results: AnalysisResults) -> ExperimentOutput:
    """Infer DHCP lease upper bounds from outage-duration behaviour.

    For each DHCP-looking AS (low renumbering on short outages), the lease
    cannot be much longer than the shortest outage duration at which
    renumbering becomes common: a client renews half-way through the lease,
    so an outage that loses the address must have outlived the residual.
    """
    from repro.core.outage_buckets import bucket_outages
    rows = []
    estimates: dict[int, float | None] = {}
    outages_by_probe = results.gap_events_by_probe.outages()
    for asn in sorted(set(results.asn_by_probe.values())):
        events = [event
                  for pid, outages in outages_by_probe.items()
                  if results.asn_by_probe.get(pid) == asn
                  for event in outages]
        buckets = bucket_outages(events)
        total = sum(b.total for b in buckets)
        if total < 30:
            continue
        short = [b for b in buckets if b.high <= HOUR]
        short_total = sum(b.total for b in short)
        short_changed = sum(b.renumbered for b in short)
        if short_total == 0 or short_changed / short_total > 0.3:
            continue  # PPP-style: renumbers on any outage, no lease signal
        threshold = None
        for bucket in buckets:
            if bucket.total >= 3 and bucket.renumbered_fraction > 0.5:
                threshold = bucket.low
                break
        estimates[asn] = threshold
        rows.append([
            results.as_names.get(asn, "AS%d" % asn), total,
            percent(short_changed / short_total),
            ("<= %.0f h" % (threshold / HOUR)
             if threshold else "no bound observed"),
        ])
    text = render_table(
        ["AS", "Outages", "Short-outage renumbering", "Inferred lease bound"],
        rows, title="Extension: DHCP lease upper bounds")
    return ExperimentOutput("ext-lease", "Lease inference", text,
                            data={"estimates": estimates})
