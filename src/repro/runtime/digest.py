"""Canonical digest of an :class:`AnalysisResults`.

The executor's equivalence guarantee ("``jobs=N`` is bit-identical to
``jobs=1``, warm cache identical to cold") needs a way to compare two
results objects exactly.  This module serializes every derived output —
per-probe spans, durations, changes, gap events, outage stats, reboot
aggregates — into one canonical text (sorted keys, ``repr`` floats,
which round-trips exactly) and hashes it.  Two results with equal digests
agree on every table and figure, since all of those are pure functions of
the digested fields.

The text is the type-tagged rendering of the results' records, e.g.
``{'asn':{…},'changes':{1:[AddressChange(probe_id=1,…)]},…}``.  The
per-probe outputs are rendered row by row with one ``%``-format per row
type, straight from the columns where the stage output is columnar (spans,
durations, gaps), and hashed chunk by chunk as they are formatted; only
the small fields go through the recursive :func:`_canon`.  The recursive
record-by-record rendering in ``tests/oracle.py`` pins these bytes.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator

import numpy as np

from repro.core.pipeline import AnalysisResults

#: Types rendered by ``repr`` (exact-type match).
_SCALARS = frozenset({float, int, str, bool, type(None)})

#: Probes formatted (and hashed) per chunk.
_CHUNK_PROBES = 512

# One template per row type; ``%r`` is ``repr``, exact for floats.
_SPAN = ("AddressSpan(probe_id=%r,address=IPv4Address(value=%r),start=%r,"
         "end=%r,complete_start=%r,complete_end=%r)")
_GAP = ("GapEvent(probe_id=%r,gap_start=%r,gap_end=%r,cause=GapCause.%s,"
        "address_changed=%r,outage_duration=%r)")
_CHANGE = ("AddressChange(probe_id=%r,old_address=IPv4Address(value=%r),"
           "new_address=IPv4Address(value=%r),gap_start=%r,gap_end=%r)")
_STATS = ("ProbeOutageStats(probe_id=%r,network_outages=%r,"
          "network_changes=%r,power_outages=%r,power_changes=%r)")


def _canon(value: object) -> str:
    """Deterministic rendering of one small field: scalars, lists,
    tuples and dicts (sorted keys) of those."""
    kind = type(value)
    if kind in _SCALARS:
        return repr(value)
    if isinstance(value, dict):
        return "{%s}" % ",".join(["%s:%s" % (_canon(key), _canon(value[key]))
                                  for key in sorted(value)])
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join([_canon(item) for item in value])
    return repr(value)


def _column_entries(template: str, ids: np.ndarray, offsets: np.ndarray,
                    columns: list[np.ndarray],
                    owner: bool = True) -> Iterator[str]:
    """``pid:[row,…]`` texts of one CSR map, ascending by probe id.

    With ``owner`` the first ``%`` of ``template`` receives the row's
    probe id, the rest the ``columns`` values in order.  Stage outputs
    are stored in ascending probe order, which the rendering relies on.
    """
    if not bool((ids[1:] > ids[:-1]).all()):
        raise ValueError("results_digest needs columnar maps stored in "
                         "ascending probe order, as the stages emit them")
    if owner:
        columns = [np.repeat(ids, np.diff(offsets))] + columns
    pids = ids.tolist()
    bounds = offsets.tolist()
    for first in range(0, len(pids), _CHUNK_PROBES):
        last = min(first + _CHUNK_PROBES, len(pids))
        lo, hi = bounds[first], bounds[last]
        rows = [template % row for row in zip(
            *[column[lo:hi].tolist() for column in columns])]
        for k in range(first, last):
            yield "%r:[%s]" % (pids[k], ",".join(
                rows[bounds[k] - lo:bounds[k + 1] - lo]))


def _spans(results: AnalysisResults) -> Iterator[str]:
    columns = results.spans_by_probe.columns
    return _column_entries(
        _SPAN, columns["probe_ids"], columns["offsets"],
        [columns["address"], columns["start"], columns["end"],
         columns["complete_start"].astype(bool),
         columns["complete_end"].astype(bool)])


def _durations(results: AnalysisResults) -> Iterator[str]:
    columns = results.durations_by_probe.columns
    return _column_entries("%r", columns["probe_ids"], columns["offsets"],
                           [columns["values"]], owner=False)


def _gaps(results: AnalysisResults) -> Iterator[str]:
    gaps = results.gap_events_by_probe
    columns = gaps.columns
    names = np.asarray(gaps.meta["causes"], dtype=object)
    return _column_entries(
        _GAP, columns["probe_ids"], columns["offsets"],
        [columns["gap_start"], columns["gap_end"], names[columns["cause"]],
         columns["address_changed"].astype(bool),
         columns["outage_duration"]])


def _changes(results: AnalysisResults) -> Iterator[str]:
    changes_by_probe = results.changes_by_probe
    for pid in sorted(changes_by_probe):
        yield "%r:[%s]" % (pid, ",".join([
            _CHANGE % (change.probe_id, change.old_address.value,
                       change.new_address.value, change.gap_start,
                       change.gap_end)
            for change in changes_by_probe[pid]]))


def _stats(results: AnalysisResults) -> Iterator[str]:
    stats_by_probe = results.stats_by_probe
    for pid in sorted(stats_by_probe):
        stats = stats_by_probe[pid]
        yield "%r:%s" % (pid, _STATS % (
            stats.probe_id, stats.network_outages, stats.network_changes,
            stats.power_outages, stats.power_changes))


def _hash_map(update: Callable[[str], None], entries: Iterator[str]) -> None:
    """Hash ``{entry,entry,…}`` a chunk of entries at a time."""
    update("{")
    chunk: list[str] = []
    separator = ""
    for entry in entries:
        chunk.append(entry)
        if len(chunk) == _CHUNK_PROBES:
            update(separator + ",".join(chunk))
            chunk = []
            separator = ","
    if chunk:
        update(separator + ",".join(chunk))
    update("}")


def results_digest(results: AnalysisResults) -> str:
    """Hex fingerprint over every derived output of one analysis run."""
    digest = hashlib.sha256()

    def update(text: str) -> None:
        digest.update(text.encode("utf-8"))

    # Section name -> its rendering: text for the small fields, a stream
    # of ``pid:…`` entries for the per-probe maps.
    sections = {
        "table2": _canon(results.table2_rows()),
        "spans": _spans(results),
        "durations": _durations(results),
        "changes": _changes(results),
        "asn": _canon(results.asn_by_probe),
        "gaps": _gaps(results),
        "stats": _stats(results),
        "reboot_days": _canon(results.reboot_day_counts),
        "firmware_days": _canon(results.firmware_days),
        "v3": _canon(results._v3_probes),
    }
    update("{")
    for position, name in enumerate(sorted(sections)):
        update("%s%r:" % ("," if position else "", name))
        section = sections[name]
        if isinstance(section, str):
            update(section)
        else:
            _hash_map(update, section)
    update("}")
    return digest.hexdigest()
