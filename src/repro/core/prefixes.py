"""Prefix-level analysis of address changes (Section 6, Table 7).

For every address change, compare the old and new address at three
granularities: the routed BGP prefix (via the monthly IP-to-AS snapshot in
force when the new address appeared), the enclosing /16, and the enclosing
/8.  The paper's headline: nearly half of all changes cross BGP prefixes,
and even /8-level blacklist widening fails for a third of them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.changes import AddressChange
from repro.net.pfx2as import UNROUTED, IpToAsDataset
from repro.util.stats import fraction


@dataclass(frozen=True)
class PrefixChangeRow:
    """One Table 7 row: cross-prefix counts for an AS (or 'All')."""

    as_name: str
    asn: int | None
    country: str
    total_changes: int
    diff_bgp: int
    diff_slash16: int
    diff_slash8: int

    @property
    def pct_bgp(self) -> float:
        """Fraction of changes that crossed BGP prefixes."""
        return fraction(self.diff_bgp, self.total_changes)

    @property
    def pct_slash16(self) -> float:
        """Fraction of changes that crossed /16 boundaries."""
        return fraction(self.diff_slash16, self.total_changes)

    @property
    def pct_slash8(self) -> float:
        """Fraction of changes that crossed /8 boundaries."""
        return fraction(self.diff_slash8, self.total_changes)


def prefix_change_table(changes_by_probe: Mapping[int, Iterable[AddressChange]],
                        asn_by_probe: Mapping[int, int],
                        ip2as: IpToAsDataset,
                        as_names: Mapping[int, str],
                        as_countries: Mapping[int, str] | None = None,
                        top: int | None = None
                        ) -> tuple[PrefixChangeRow, list[PrefixChangeRow]]:
    """Build Table 7: the 'All' row plus per-AS rows.

    Per-AS rows are ordered by the number of probes contributing changes
    (the paper lists the ten ASes with the most changed probes); ``top``
    truncates the list.  Both addresses of every change are looked up
    in one batch (:meth:`IpToAsDataset.lookup`, in the snapshot for the
    month of the change); /16 and /8 compare the address values shifted.
    """
    probes_by_asn: dict[int, set[int]] = defaultdict(set)
    owners: list[int] = []  # the AS each change counts towards
    olds: list[int] = []
    news: list[int] = []
    times: list[float] = []
    for probe_id, changes in changes_by_probe.items():
        asn = asn_by_probe[probe_id]
        for change in changes:
            probes_by_asn[asn].add(probe_id)
            owners.append(asn)
            olds.append(change.old_address.value)
            news.append(change.new_address.value)
            times.append(change.time)

    old = np.asarray(olds, dtype=np.int64)
    new = np.asarray(news, dtype=np.int64)
    _, keys = ip2as.lookup(np.concatenate((old, new)), times + times)
    old_keys, new_keys = keys[:len(old)], keys[len(old):]
    # Per change: counted, diff BGP (never with an unrouted end), diff
    # /16, diff /8 -- the count columns of PrefixChangeRow, in order.
    flags = np.stack((np.ones(len(old), dtype=bool),
                      (old_keys != UNROUTED) & (new_keys != UNROUTED)
                      & (old_keys != new_keys),
                      (old >> 16) != (new >> 16),
                      (old >> 24) != (new >> 24)), axis=1).astype(np.int64)
    # Per-AS rows in order of each AS's first change.
    row = {asn: index for index, asn in enumerate(probes_by_asn)}
    counts = np.zeros((len(row), flags.shape[1]), dtype=np.int64)
    np.add.at(counts, np.asarray([row[asn] for asn in owners],
                                 dtype=np.int64), flags)
    overall = PrefixChangeRow("All", None, "", *flags.sum(axis=0).tolist())
    rows = [PrefixChangeRow(as_names.get(asn, "AS%d" % asn), asn,
                            (as_countries or {}).get(asn, ""),
                            *counts[index].tolist())
            for asn, index in row.items()]
    rows.sort(key=lambda row: -len(probes_by_asn[row.asn]))
    if top is not None:
        rows = rows[:top]
    return overall, rows
