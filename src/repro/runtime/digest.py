"""Canonical digest of an :class:`AnalysisResults`.

The executor's equivalence guarantee ("``jobs=N`` is bit-identical to
``jobs=1``, warm cache identical to cold") needs a way to compare two
results objects exactly.  This module serializes every derived output —
per-probe spans, durations, changes, gap events, outage stats, reboot
aggregates — into one canonical string (sorted keys, ``repr`` floats,
which round-trips exactly) and hashes it.  Two results with equal digests
agree on every table and figure, since all of those are pure functions of
the digested fields.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import fields, is_dataclass

from repro.core.pipeline import AnalysisResults
from repro.util import fingerprint as fp


#: Types rendered by ``repr`` (exact-type match, so subclasses such as
#: ``IntEnum`` members still reach the general path).
_SCALARS = frozenset({float, int, str, bool, type(None)})


@functools.lru_cache(maxsize=None)
def _dataclass_fields(kind: type) -> tuple[str, ...] | None:
    """Field names of a dataclass type, or None for any other type."""
    if not is_dataclass(kind):
        return None
    return tuple(f.name for f in fields(kind))


def _canon(value: object) -> str:
    """Deterministic, type-tagged rendering of one value.

    Dispatches on the exact type first (the results are mostly lists,
    floats and dataclasses); ``isinstance`` checks then cover dicts,
    enums, sets and subclasses of the builtin containers.
    """
    kind = type(value)
    # repr() of float is the shortest exact round-trip representation, so
    # any bit-level numeric divergence changes the digest.
    if kind in _SCALARS:
        return repr(value)
    if kind is list or kind is tuple:
        return "[%s]" % ",".join([_canon(item) for item in value])
    names = _dataclass_fields(kind)
    if names is not None:
        return "%s(%s)" % (kind.__name__, ",".join(
            ["%s=%s" % (name, _canon(getattr(value, name)))
             for name in names]))
    if isinstance(value, dict):
        return "{%s}" % ",".join(["%s:%s" % (_canon(key), _canon(value[key]))
                                  for key in sorted(value)])
    if isinstance(value, enum.Enum):
        return "%s.%s" % (kind.__name__, value.name)
    if isinstance(value, (set, frozenset)):
        return "{%s}" % ",".join([_canon(item) for item in sorted(value)])
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join([_canon(item) for item in value])
    return repr(value)


def results_digest(results: AnalysisResults) -> str:
    """Hex fingerprint over every derived output of one analysis run."""
    payload = _canon({
        "table2": results.table2_rows(),
        "spans": results.spans_by_probe,
        "durations": results.durations_by_probe,
        "changes": results.changes_by_probe,
        "asn": results.asn_by_probe,
        "gaps": results.gap_events_by_probe,
        "stats": results.stats_by_probe,
        "reboot_days": results.reboot_day_counts,
        "firmware_days": results.firmware_days,
        "v3": results._v3_probes,
    })
    return fp.hash_text(payload)
