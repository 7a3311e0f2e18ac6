"""Reboot detection and firmware-update filtering (Sections 3.5, 5.1-5.2).

A reboot shows up as the SOS uptime counter resetting: a record whose
counter value is smaller than its predecessor's.  The reboot instant is the
report timestamp minus the counter (Table 4's example).

Firmware updates cause fleet-wide reboot spikes (Figure 6) that are a
*consequence* of dropped connections rather than a cause, so the paper
discards each probe's first reboot after an inferred distribution day.
Distribution days are inferred exactly as the paper describes: runs of at
least two consecutive days with more than twice the median number of
rebooting probes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.atlas.types import UptimeRecord
from repro.util.stats import median
from repro.util.timeutil import DAY


@dataclass(frozen=True)
class Reboot:
    """One inferred probe reboot."""

    probe_id: int
    #: The boot instant implied by the reset counter value.
    time: float
    #: When the post-reboot record reporting the reset was emitted.
    reported_at: float


def detect_reboots(records: Sequence[UptimeRecord]) -> list[Reboot]:
    """Find counter resets in one probe's uptime records."""
    reboots: list[Reboot] = []
    previous: UptimeRecord | None = None
    for record in records:
        if previous is not None and record.uptime < previous.uptime:
            reboots.append(Reboot(record.probe_id, record.boot_time,
                                  record.timestamp))
        previous = record
    return reboots


def reboots_per_day(reboots_by_probe: Mapping[int, Sequence[Reboot]]
                    ) -> dict[int, int]:
    """Unique probes rebooting on each day of the year (Figure 6).

    Days are numbered as :func:`~repro.util.timeutil.day_of_year` numbers
    them, computed for all reboots at once: the epoch second (carrying
    the microsecond rounding ``datetime.fromtimestamp`` applies), floor
    divided by ``DAY``, then the ``datetime64`` day of year.  The result
    maps each day to its count of unique probes, sorted by day.
    """
    probes = np.asarray([probe_id
                         for probe_id, reboots in reboots_by_probe.items()
                         for _ in reboots], dtype=np.int64)
    times = np.asarray([reboot.time for reboots in reboots_by_probe.values()
                        for reboot in reboots], dtype=np.float64)
    fraction, seconds = np.modf(times)
    micros = np.round(fraction * 1e6)  # half to even, like fromtimestamp
    seconds = seconds + (micros >= 1e6) - (micros < 0)
    dates = np.floor_divide(seconds, DAY).astype(np.int64).astype(
        "datetime64[D]")
    doy = (dates - dates.astype("datetime64[Y]")).astype(np.int64) + 1
    order = np.lexsort((probes, doy))
    doy, probes = doy[order], probes[order]
    # Count each (day, probe) pair once: its first row in sorted order.
    first = np.ones(len(doy), dtype=bool)
    first[1:] = (doy[1:] != doy[:-1]) | (probes[1:] != probes[:-1])
    counts = np.bincount(doy[first])
    days = np.flatnonzero(counts)
    return dict(zip(days.tolist(), counts[days].tolist()))


def detect_firmware_days(per_day: Mapping[int, int],
                         factor: float = 2.0,
                         min_consecutive: int = 2,
                         year_days: int = 365) -> list[int]:
    """Infer firmware distribution days from reboot-count spikes.

    Returns the first day of each run of >= ``min_consecutive`` consecutive
    days whose unique-rebooter count exceeds ``factor`` times the median
    daily count (days with zero reboots count toward the median).
    """
    counts = [per_day.get(day, 0) for day in range(1, year_days + 1)]
    if not any(counts):
        return []
    # The max() guard keeps sparse datasets (median 0) from flagging every
    # non-empty day as a spike.
    threshold = factor * max(median(counts), 1.0)
    days: list[int] = []
    run_start: int | None = None
    run_length = 0
    for day, count in enumerate(counts, start=1):
        if count > threshold:
            if run_start is None:
                run_start = day
            run_length += 1
        else:
            if run_start is not None and run_length >= min_consecutive:
                days.append(run_start)
            run_start = None
            run_length = 0
    if run_start is not None and run_length >= min_consecutive:
        days.append(run_start)
    return days


def remove_firmware_reboots(reboots: Sequence[Reboot],
                            campaign_times: Iterable[float]
                            ) -> list[Reboot]:
    """Drop one probe's first reboot after each firmware distribution time.

    ``campaign_times`` are epoch timestamps (the start of each inferred
    distribution day).  Consumed campaigns are matched in time order.
    """
    remaining = sorted(campaign_times)
    kept: list[Reboot] = []
    for reboot in sorted(reboots, key=lambda r: r.time):
        matched = False
        while remaining and remaining[0] <= reboot.time:
            # The earliest pending campaign claims this reboot.
            remaining.pop(0)
            matched = True
            break
        if not matched:
            kept.append(reboot)
    return kept


def firmware_filtered_reboots(reboots_by_probe: Mapping[int, Sequence[Reboot]],
                              campaign_times: Sequence[float]
                              ) -> dict[int, list[Reboot]]:
    """Apply :func:`remove_firmware_reboots` across all probes."""
    return {probe_id: remove_firmware_reboots(reboots, campaign_times)
            for probe_id, reboots in reboots_by_probe.items()}


def count_unique_rebooters(reboots_by_probe: Mapping[int, Sequence[Reboot]]
                           ) -> Counter:
    """Total reboots per probe (convenience for tests and reports)."""
    return Counter({probe_id: len(reboots)
                    for probe_id, reboots in reboots_by_probe.items()})
