"""Associating inter-connection gaps with outage events (Section 3.6).

Each pair of consecutive connections leaves a gap.  The paper's priority
order attributes the gap to a *network outage* when the k-root data shows
one, else to a *power outage* when an uptime reset coincides with missing
ping rounds, else to *no outage* (e.g. a periodic renumbering or a benign
TCP break).  The gap's address-change flag comes from comparing the peer
addresses on either side.

This module holds the gap vocabulary and the ping-round bracketing both
classifiers share.  The pipeline classifies gaps in batches
(:func:`repro.core.colkernels.gap_events_col`); the per-gap record
classifier it is pinned to lives in ``tests/oracle.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from repro.atlas.kroot import DEFAULT_CADENCE, KRootSeries

#: How far beyond the gap we look for corroborating measurements.
WINDOW_MARGIN = 2 * DEFAULT_CADENCE


class GapCause(enum.Enum):
    """What a gap between connections was attributed to."""

    NETWORK = "network outage"
    POWER = "power outage"
    NONE = "no outage"


@dataclass(frozen=True)
class GapEvent:
    """One classified inter-connection gap."""

    probe_id: int
    gap_start: float
    gap_end: float
    cause: GapCause
    address_changed: bool
    #: Estimated outage duration (0 for no-outage gaps).
    outage_duration: float


def _missing_rounds_around(series: KRootSeries, timestamp: float
                           ) -> tuple[bool, float]:
    """Check for a ping-round hole around ``timestamp``.

    Returns (rounds were missing, estimated outage duration).  The paper
    estimates a power outage's length as the spacing between the reported
    rounds bracketing the reboot.  The boot instant itself may coincide
    with a round tick, so we bracket the instant just before boot.
    """
    previous, following = series.ping_gap_around(timestamp - 1.0)
    if previous is None or following is None:
        return False, 0.0
    spacing = following - previous
    if spacing > 1.5 * series.cadence:
        return True, spacing
    return False, 0.0
