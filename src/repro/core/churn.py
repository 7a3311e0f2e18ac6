"""Address-space churn and administrative renumbering (Section 8).

The paper's conclusion flags two follow-ups we implement here:

* **daily churn** — Richter et al. report the active IPv4 address set at a
  large CDN shifts ~8% day over day; :func:`churn_series` computes the
  equivalent appear/disappear series from observed address spans;
* **administrative renumbering** — reassignment of addresses en masse from
  one prefix to another, of which the paper found a single instance.
  :func:`detect_administrative_renumbering` flags, per AS, days where most
  probes changed address *and* the new addresses land in routed prefixes
  the AS's customers had never been seen in before.  The prefix-novelty
  condition is what separates an administrative migration from ordinary
  periodic renumbering, where every prefix recurs daily.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.changes import AddressChange
from repro.core.colartifact import ColumnarSpanMap
from repro.net.ipv4 import IPv4Prefix
from repro.net.pfx2as import UNROUTED, IpToAsDataset, prefix_from_key
from repro.util.stats import fraction
from repro.util.timeutil import DAY


@dataclass(frozen=True)
class ChurnPoint:
    """Day-over-day active-address-set delta."""

    day_index: int
    active: int
    appeared: int
    disappeared: int

    @property
    def churn_fraction(self) -> float:
        """(appeared + disappeared) relative to the previous day's set."""
        return fraction(self.appeared + self.disappeared, self.active)


def daily_active_addresses(spans_by_probe: ColumnarSpanMap,
                           start: float, end: float
                           ) -> dict[int, set[int]]:
    """Addresses observed active on each day (0-based day index).

    A span contributes its address to every day it overlaps, as in the
    daily active-address sets of "Beyond Counting: New Perspectives on
    the Active IPv4 Address Space" (Richter et al., PAPERS.md).  Works
    on the span columns: each span's day range is expanded to one
    (day, address) pair per day, packed into one sortable integer, and
    the distinct pairs are grouped by day.  Days come out in ascending
    order.
    """
    total_days = int((end - start) // DAY) + 1
    columns = spans_by_probe.columns
    first = np.maximum(0, (columns["start"] - start) // DAY).astype(np.int64)
    last = np.minimum(total_days - 1,
                      (columns["end"] - start) // DAY).astype(np.int64)
    counts = np.maximum(last - first + 1, 0)
    expanded = np.cumsum(counts)
    # Packed (day << 32 | address) per span-day, built in place.
    pairs = np.repeat(first - (expanded - counts), counts)
    pairs += np.arange(len(pairs))
    pairs <<= 32
    pairs |= np.repeat(columns["address"].astype(np.int64), counts)
    pairs.sort()
    distinct = np.ones(len(pairs), dtype=bool)
    distinct[1:] = pairs[1:] != pairs[:-1]
    pairs = pairs[distinct]
    days = pairs >> 32
    pairs &= 0xFFFFFFFF
    # Group bounds: the first row, every change of day, and the end.
    bounds = np.flatnonzero(np.diff(days, prepend=-1, append=-1)).tolist()
    return {int(days[lo]): set(pairs[lo:hi].tolist())
            for lo, hi in zip(bounds, bounds[1:])}


def churn_series(daily: Mapping[int, set[int]]) -> list[ChurnPoint]:
    """Day-over-day appear/disappear counts (the Richter-style series)."""
    points: list[ChurnPoint] = []
    days = sorted(daily)
    for previous_day, day in zip(days, days[1:]):
        before = daily[previous_day]
        after = daily[day]
        points.append(ChurnPoint(
            day_index=day,
            active=len(before),
            appeared=len(after - before),
            disappeared=len(before - after),
        ))
    return points


def mean_churn(points: Iterable[ChurnPoint]) -> float:
    """Average churn fraction across the series (0 when empty)."""
    values = [p.churn_fraction for p in points]
    if not values:
        return 0.0
    return sum(values) / len(values)


@dataclass(frozen=True)
class AdministrativeRenumbering:
    """One detected mass prefix migration."""

    asn: int
    day_index: int
    probes_changed: int
    probes_total: int
    novel_prefixes: tuple[IPv4Prefix, ...]

    @property
    def changed_fraction(self) -> float:
        """Share of the AS's probes renumbered on the day."""
        return fraction(self.probes_changed, self.probes_total)


def detect_administrative_renumbering(
        changes_by_probe: Mapping[int, Sequence[AddressChange]],
        asn_by_probe: Mapping[int, int],
        ip2as: IpToAsDataset,
        start: float,
        min_probes: int = 5,
        change_fraction: float = 0.6,
        novelty_fraction: float = 0.8,
        warmup_days: int = 30) -> list[AdministrativeRenumbering]:
    """Find days where an AS migrated its customers to fresh prefixes.

    For each AS with at least ``min_probes`` changed probes, a day
    qualifies when at least ``change_fraction`` of the AS's probes changed
    address and at least ``novelty_fraction`` of those changes landed in
    BGP prefixes never seen for this AS before that day.  The first
    ``warmup_days`` of the observation window are never flagged: the
    prefix universe is still filling in, so novelty is meaningless.

    Each AS's changes are looked up in one batch
    (:meth:`IpToAsDataset.lookup`); only the novel prefixes of a reported
    event become :class:`IPv4Prefix` values.
    """
    by_asn: dict[int, list[AddressChange]] = defaultdict(list)
    probes_by_asn: dict[int, set[int]] = defaultdict(set)
    for probe_id, changes in changes_by_probe.items():
        asn = asn_by_probe.get(probe_id)
        if asn is None or not changes:
            continue
        probes_by_asn[asn].add(probe_id)
        by_asn[asn].extend(changes)

    events: list[AdministrativeRenumbering] = []
    for asn, changes in by_asn.items():
        if len(probes_by_asn[asn]) < min_probes:
            continue
        changes.sort(key=lambda change: change.time)
        times = [change.time for change in changes]
        _, keys = ip2as.lookup(
            [change.new_address.value for change in changes]
            + [change.old_address.value for change in changes], times + times)
        keys = keys.tolist()
        # Prefixes as packed keys (UNROUTED when unrouted).
        seen_prefixes: set[int] = set()
        by_day: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for change, new_key, old_key in zip(changes, keys,
                                            keys[len(changes):]):
            day = int((change.time - start) // DAY)
            by_day[day].append((change.probe_id, new_key, old_key))
        for day in sorted(by_day):
            entries = by_day[day]
            day_probes = {probe_id for probe_id, _, _ in entries}
            day_prefixes = [p for _, p, _ in entries if p != UNROUTED]
            # Old addresses were in use before today; their prefixes are
            # prior knowledge even on an AS's first observed change day.
            seen_prefixes.update(
                p for _, _, p in entries if p != UNROUTED)
            novel = [p for p in day_prefixes if p not in seen_prefixes]
            changed_share = fraction(len(day_probes),
                                     len(probes_by_asn[asn]))
            novelty = fraction(len(novel), len(day_prefixes))
            # Warm-up: early in the window, 'novel' prefixes are just the
            # universe filling in.
            warmed_up = day >= warmup_days
            if (warmed_up
                    and changed_share >= change_fraction
                    and day_prefixes
                    and novelty >= novelty_fraction):
                events.append(AdministrativeRenumbering(
                    asn=asn, day_index=day,
                    probes_changed=len(day_probes),
                    probes_total=len(probes_by_asn[asn]),
                    novel_prefixes=tuple(prefix_from_key(key)
                                         for key in sorted(set(novel))),
                ))
            seen_prefixes.update(day_prefixes)
    events.sort(key=lambda event: (event.day_index, event.asn))
    return events
