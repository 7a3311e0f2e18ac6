"""Probe filtering pipeline (Sections 3.2-3.3, Table 2).

Classifies every probe into exactly one category.  The paper's Table 2 is
presentational; we document an explicit precedence:

1. insufficient data (connected < 30 days — excluded from the total);
2. IPv6-only;
3. dual-stack;
4. tagged multihomed / datacentre / core;
5. behaviourally multihomed (address-alternation heuristic);
6. testing-address-only (first entry from 193.0.0.78, no further changes);
7. never changed;
8. analyzable — split into single-AS (AS-level analysis) and multi-AS
   (geography only), using monthly IP-to-AS snapshots.

This module holds the verdict and report types; the classifier itself is
the vectorized :func:`repro.core.colkernels.classify_probes`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.atlas.types import ConnectionLogEntry
from repro.core.changes import AddressChange

#: An address seen in this many separate runs marks a probe as alternating
#: between concurrently held addresses (behavioural multihoming).  The
#: threshold is high enough that an ISP re-granting a previously held
#: address by chance (the paper's 'Harmonics') never trips it.
MULTIHOMED_MIN_RUNS = 5


class ProbeCategory(enum.Enum):
    """The Table 2 bucket a probe falls into."""

    SHORT_LIVED = "connected under 30 days"
    IPV6_ONLY = "IPv6"
    DUAL_STACK = "dual stack"
    TAGGED = "multihomed/core/datacenter (tags)"
    MULTIHOMED = "multihomed (alternating addresses)"
    TESTING_ONLY = "only address change from 193.0.0.78"
    NEVER_CHANGED = "never changed"
    ANALYZABLE = "analyzable"


@dataclass
class ProbeVerdict:
    """Classification outcome for one probe.

    Verdicts are pickled (entry-stripped) inside shard payloads crossing
    the worker boundary, so the field layout is a wire contract (RPR010).
    """

    __wire_contract__ = "probe-verdict"

    probe_id: int
    category: ProbeCategory
    #: Entries after testing-entry removal.  The classifier leaves it
    #: empty (the stages read the connlog columns instead).
    entries: list[ConnectionLogEntry] = field(default_factory=list)
    #: All observed changes (for analyzable probes).
    changes: list[AddressChange] = field(default_factory=list)
    #: Changes whose endpoints map to the same AS.
    within_as_changes: list[AddressChange] = field(default_factory=list)
    #: True when some change crossed autonomous systems.
    multi_as: bool = False
    #: The AS the probe's addresses map to (single-AS probes only).
    asn: int | None = None


@dataclass
class FilterReport:
    """Aggregate filtering outcome, the reproduction of Table 2.

    The cache stores it as a
    :class:`~repro.core.colartifact.ColumnarFilterArtifact`.
    """

    verdicts: dict[int, ProbeVerdict]
    total: int

    def probes_in(self, category: ProbeCategory) -> list[int]:
        """Probe ids classified into a category."""
        return sorted(v.probe_id for v in self.verdicts.values()
                      if v.category is category)

    def count(self, category: ProbeCategory) -> int:
        """Number of probes in a category."""
        return sum(1 for v in self.verdicts.values()
                   if v.category is category)

    def analyzable_geo(self) -> list[int]:
        """Probes usable for geographic analysis (Section 4.2)."""
        return self.probes_in(ProbeCategory.ANALYZABLE)

    def analyzable_as(self) -> list[int]:
        """Single-AS probes usable for AS-level analysis (Section 4.3)."""
        return sorted(v.probe_id for v in self.verdicts.values()
                      if v.category is ProbeCategory.ANALYZABLE
                      and not v.multi_as)

    def multi_as_probes(self) -> list[int]:
        """Analyzable probes whose changes span multiple ASes."""
        return sorted(v.probe_id for v in self.verdicts.values()
                      if v.category is ProbeCategory.ANALYZABLE
                      and v.multi_as)

    def table2_rows(self) -> list[tuple[str, int]]:
        """Rows in the paper's Table 2 ordering."""
        return [
            ("Total Probes", self.total),
            ("Never changed", self.count(ProbeCategory.NEVER_CHANGED)),
            ("Dual Stack", self.count(ProbeCategory.DUAL_STACK)),
            ("IPv6", self.count(ProbeCategory.IPV6_ONLY)),
            ("Multihomed / Core / Data-center (tags)",
             self.count(ProbeCategory.TAGGED)),
            ("Multihomed (alternating addresses)",
             self.count(ProbeCategory.MULTIHOMED)),
            ("Only address change from 193.0.0.78",
             self.count(ProbeCategory.TESTING_ONLY)),
            ("Analyzable (geography)", len(self.analyzable_geo())),
            ("Multiple ASes", len(self.multi_as_probes())),
            ("Analyzable (AS-level)", len(self.analyzable_as())),
        ]


def report_from_verdicts(verdicts: dict[int, ProbeVerdict]) -> FilterReport:
    """Assemble the Table 2 report from per-probe verdicts.

    The total excludes short-lived probes, matching the paper's Table 2
    denominator.  A sharded executor merges per-shard verdict maps and
    assembles the identical report through here.
    """
    total = sum(1 for v in verdicts.values()
                if v.category is not ProbeCategory.SHORT_LIVED)
    return FilterReport(verdicts=verdicts, total=total)
