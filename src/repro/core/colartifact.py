"""Columnar forms of the fat cached artifacts (DESIGN.md §16).

The hot stages' cached artifacts used to be pickled object graphs — the
entry-stripped :class:`~repro.core.filtering.FilterReport`, plus
megabytes of ``AddressSpan``/``GapEvent`` lists — tens of thousands of
small objects re-walked on every warm load and re-serialized on every
cold store.  The classes here hold the same information as a handful of
parallel arrays plus a tiny JSON meta block, stored through
:mod:`repro.util.colpack` so runs memory-map columns instead of walking
pickle graphs.

Round-trip contract: ``decode(encode(value))`` reproduces the original
exactly — same dict order, equal field values, and (for the filter
artifact) ``within_as_changes`` items that are the *same objects* as the
matching ``changes`` items (as the classifier constructs them).
Verdict entry lists are dropped: they are a pure function of the
connection log, and the spans and gaps kernels read the columnar view
instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.association import GapCause, GapEvent
from repro.core.changes import AddressChange, AddressSpan
from repro.core.filtering import FilterReport, ProbeCategory, ProbeVerdict
from repro.net.ipv4 import IPv4Address
from repro.util import colpack


def _address_memo():
    """An ``int -> IPv4Address`` constructor that reuses instances.

    Decode loops build one address object per *distinct* value instead
    of one per row — addresses repeat heavily across spans and changes,
    and the class is frozen, so sharing is safe.
    """
    cache: dict[int, IPv4Address] = {}

    def addr(value: int) -> IPv4Address:
        got = cache.get(value)
        if got is None:
            got = cache[value] = IPv4Address(value)
        return got

    return addr


@colpack.register
class ColumnarFilterArtifact:
    """The slim filter report as named columns.

    Layout: one row per verdict in the report's dict order (``probe_ids``
    is *not* re-sorted — preserving iteration order is part of the
    round-trip contract), with CSR ``change_offsets`` slicing the flat
    per-change columns.  ``asns`` uses ``-1`` for "no single AS" and
    ``change_within`` flags the changes that belong to
    ``within_as_changes``.  Category codes index the category-name list
    carried in ``meta`` — the file is self-describing even if the enum
    ever gains members.

    This artifact persists across processes and code versions, so its
    column set and meta keys are a wire contract (RPR010).
    """

    __columnar__ = "filter-artifact-columnar"
    __wire_contract__ = "filter-artifact-columnar"

    def __init__(self, meta: dict, columns: dict) -> None:
        self.meta = meta
        self.columns = columns

    # -- codec ---------------------------------------------------------------

    def to_columns(self):
        return self.meta, self.columns

    @classmethod
    def from_columns(cls, meta, columns) -> "ColumnarFilterArtifact":
        return cls(meta, columns)

    # -- report round-trip ---------------------------------------------------

    @classmethod
    def from_report(cls, report: FilterReport) -> "ColumnarFilterArtifact":
        """Encode a (fat or slim) report; entry lists are dropped."""
        code_of = {category: code
                   for code, category in enumerate(ProbeCategory)}
        pids: list[int] = []
        categories: list[int] = []
        multi_as: list[int] = []
        asns: list[int] = []
        offsets: list[int] = [0]
        old_addrs: list[int] = []
        new_addrs: list[int] = []
        gap_starts: list[float] = []
        gap_ends: list[float] = []
        within: list[int] = []
        for pid, verdict in report.verdicts.items():
            pids.append(pid)
            categories.append(code_of[verdict.category])
            multi_as.append(1 if verdict.multi_as else 0)
            asns.append(-1 if verdict.asn is None else verdict.asn)
            position = 0
            pending = verdict.within_as_changes
            for change in verdict.changes:
                old_addrs.append(change.old_address.value)
                new_addrs.append(change.new_address.value)
                gap_starts.append(change.gap_start)
                gap_ends.append(change.gap_end)
                matched = (position < len(pending)
                           and pending[position] == change)
                if matched:
                    position += 1
                within.append(1 if matched else 0)
            if position != len(pending):
                # The classifier builds within_as_changes as an ordered
                # subset of changes; anything else cannot be encoded as
                # per-change flags.
                raise ValueError(
                    "probe %d: within_as_changes is not an ordered "
                    "subset of changes" % (pid,))
            offsets.append(len(old_addrs))
        meta = {"total": report.total,
                "categories": [category.name for category in ProbeCategory]}
        columns = {
            "probe_ids": np.asarray(pids, dtype=np.int64),
            "categories": np.asarray(categories, dtype=np.uint8),
            "multi_as": np.asarray(multi_as, dtype=np.uint8),
            "asns": np.asarray(asns, dtype=np.int64),
            "change_offsets": np.asarray(offsets, dtype=np.int64),
            "change_old": np.asarray(old_addrs, dtype=np.uint32),
            "change_new": np.asarray(new_addrs, dtype=np.uint32),
            "change_gap_start": np.asarray(gap_starts, dtype=np.float64),
            "change_gap_end": np.asarray(gap_ends, dtype=np.float64),
            "change_within": np.asarray(within, dtype=np.uint8),
        }
        return cls(meta, columns)

    def to_report(self) -> FilterReport:
        """Decode back into the slim (entry-stripped) report."""
        categories = [ProbeCategory[name]
                      for name in self.meta["categories"]]
        pids = self.columns["probe_ids"].tolist()
        codes = self.columns["categories"].tolist()
        multi = self.columns["multi_as"].tolist()
        asns = self.columns["asns"].tolist()
        offsets = self.columns["change_offsets"].tolist()
        old_addrs = self.columns["change_old"].tolist()
        new_addrs = self.columns["change_new"].tolist()
        gap_starts = self.columns["change_gap_start"].tolist()
        gap_ends = self.columns["change_gap_end"].tolist()
        within_flags = self.columns["change_within"].tolist()
        addr = _address_memo()
        verdicts: dict[int, ProbeVerdict] = {}
        for row, pid in enumerate(pids):
            lo, hi = offsets[row], offsets[row + 1]
            changes = [AddressChange(pid,
                                     addr(old_addrs[index]),
                                     addr(new_addrs[index]),
                                     gap_starts[index], gap_ends[index])
                       for index in range(lo, hi)]
            verdicts[pid] = ProbeVerdict(
                probe_id=pid,
                category=categories[codes[row]],
                entries=[],
                changes=changes,
                within_as_changes=[changes[index - lo]
                                   for index in range(lo, hi)
                                   if within_flags[index]],
                multi_as=bool(multi[row]),
                asn=None if asns[row] < 0 else asns[row])
        return FilterReport(verdicts=verdicts, total=self.meta["total"])


class _ColumnarMapBase:
    """Shared plumbing for ``dict[int, list[...]]`` artifacts.

    Layout: ``probe_ids`` in the dict's insertion order (never
    re-sorted — preserving iteration order is part of the round-trip
    contract) with CSR ``offsets`` slicing the flat per-item columns.
    """

    def __init__(self, meta: dict, columns: dict) -> None:
        self.meta = meta
        self.columns = columns

    def to_columns(self):
        return self.meta, self.columns

    @classmethod
    def from_columns(cls, meta, columns):
        return cls(meta, columns)


@colpack.register
class ColumnarSpanMap(_ColumnarMapBase):
    """``spans_by_probe`` (``dict[int, list[AddressSpan]]``) as columns.

    Persists across processes and code versions — a wire contract
    (RPR010).
    """

    __columnar__ = "span-map-columnar"
    __wire_contract__ = "span-map-columnar"

    @classmethod
    def from_map(cls, spans_by_probe: dict) -> "ColumnarSpanMap":
        pids: list[int] = []
        offsets: list[int] = [0]
        addrs: list[int] = []
        starts: list[float] = []
        ends: list[float] = []
        complete_start: list[int] = []
        complete_end: list[int] = []
        for pid, spans in spans_by_probe.items():
            pids.append(pid)
            for span in spans:
                if span.probe_id != pid:
                    raise ValueError(
                        "span probe_id %d under key %d cannot be encoded"
                        % (span.probe_id, pid))
                addrs.append(span.address.value)
                starts.append(span.start)
                ends.append(span.end)
                complete_start.append(1 if span.complete_start else 0)
                complete_end.append(1 if span.complete_end else 0)
            offsets.append(len(addrs))
        columns = {
            "probe_ids": np.asarray(pids, dtype=np.int64),
            "offsets": np.asarray(offsets, dtype=np.int64),
            "address": np.asarray(addrs, dtype=np.uint32),
            "start": np.asarray(starts, dtype=np.float64),
            "end": np.asarray(ends, dtype=np.float64),
            "complete_start": np.asarray(complete_start, dtype=np.uint8),
            "complete_end": np.asarray(complete_end, dtype=np.uint8),
        }
        return cls({}, columns)

    def to_map(self) -> dict:
        pids = self.columns["probe_ids"].tolist()
        offsets = self.columns["offsets"].tolist()
        addrs = self.columns["address"].tolist()
        starts = self.columns["start"].tolist()
        ends = self.columns["end"].tolist()
        complete_start = self.columns["complete_start"].tolist()
        complete_end = self.columns["complete_end"].tolist()
        addr = _address_memo()
        spans_by_probe: dict[int, list[AddressSpan]] = {}
        for row, pid in enumerate(pids):
            lo, hi = offsets[row], offsets[row + 1]
            spans_by_probe[pid] = [
                AddressSpan(pid, addr(addrs[index]), starts[index],
                            ends[index], bool(complete_start[index]),
                            bool(complete_end[index]))
                for index in range(lo, hi)]
        return spans_by_probe


@colpack.register
class ColumnarFloatMap(_ColumnarMapBase):
    """A ``dict[int, list[float]]`` artifact (``durations_by_probe``).

    Persists across processes and code versions — a wire contract
    (RPR010).
    """

    __columnar__ = "float-map-columnar"
    __wire_contract__ = "float-map-columnar"

    @classmethod
    def from_map(cls, values_by_probe: dict) -> "ColumnarFloatMap":
        pids = list(values_by_probe)
        offsets: list[int] = [0]
        flat: list[float] = []
        for values in values_by_probe.values():
            flat.extend(values)
            offsets.append(len(flat))
        columns = {
            "probe_ids": np.asarray(pids, dtype=np.int64),
            "offsets": np.asarray(offsets, dtype=np.int64),
            "values": np.asarray(flat, dtype=np.float64),
        }
        return cls({}, columns)

    def to_map(self) -> dict:
        pids = self.columns["probe_ids"].tolist()
        offsets = self.columns["offsets"].tolist()
        values = self.columns["values"].tolist()
        return {pid: values[offsets[row]:offsets[row + 1]]
                for row, pid in enumerate(pids)}


@colpack.register
class ColumnarGapEventMap(_ColumnarMapBase):
    """``gap_events_by_probe`` (``dict[int, list[GapEvent]]``) as columns.

    Cause codes index the cause-name list carried in ``meta`` (the file
    stays self-describing if the enum ever gains members).  Persists
    across processes and code versions — a wire contract (RPR010).
    """

    __columnar__ = "gap-event-map-columnar"
    __wire_contract__ = "gap-event-map-columnar"

    @classmethod
    def from_map(cls, events_by_probe: dict) -> "ColumnarGapEventMap":
        code_of = {cause: code for code, cause in enumerate(GapCause)}
        pids: list[int] = []
        offsets: list[int] = [0]
        gap_starts: list[float] = []
        gap_ends: list[float] = []
        causes: list[int] = []
        changed: list[int] = []
        outage: list[float] = []
        for pid, events in events_by_probe.items():
            pids.append(pid)
            for event in events:
                if event.probe_id != pid:
                    raise ValueError(
                        "gap event probe_id %d under key %d cannot be "
                        "encoded" % (event.probe_id, pid))
                gap_starts.append(event.gap_start)
                gap_ends.append(event.gap_end)
                causes.append(code_of[event.cause])
                changed.append(1 if event.address_changed else 0)
                outage.append(event.outage_duration)
            offsets.append(len(causes))
        meta = {"causes": [cause.name for cause in GapCause]}
        columns = {
            "probe_ids": np.asarray(pids, dtype=np.int64),
            "offsets": np.asarray(offsets, dtype=np.int64),
            "gap_start": np.asarray(gap_starts, dtype=np.float64),
            "gap_end": np.asarray(gap_ends, dtype=np.float64),
            "cause": np.asarray(causes, dtype=np.uint8),
            "address_changed": np.asarray(changed, dtype=np.uint8),
            "outage_duration": np.asarray(outage, dtype=np.float64),
        }
        return cls(meta, columns)

    def to_map(self) -> dict:
        causes = [GapCause[name] for name in self.meta["causes"]]
        pids = self.columns["probe_ids"].tolist()
        offsets = self.columns["offsets"].tolist()
        gap_starts = self.columns["gap_start"].tolist()
        gap_ends = self.columns["gap_end"].tolist()
        codes = self.columns["cause"].tolist()
        changed = self.columns["address_changed"].tolist()
        outage = self.columns["outage_duration"].tolist()
        events_by_probe: dict[int, list[GapEvent]] = {}
        for row, pid in enumerate(pids):
            lo, hi = offsets[row], offsets[row + 1]
            events_by_probe[pid] = [
                GapEvent(pid, gap_starts[index], gap_ends[index],
                         causes[codes[index]], bool(changed[index]),
                         outage[index])
                for index in range(lo, hi)]
        return events_by_probe


def decode_value(value: object) -> object:
    """Decode one cached artifact value; non-columnar values pass through.

    The single dispatch point the executor's cache-revive path uses.
    """
    if isinstance(value, ColumnarFilterArtifact):
        return value.to_report()
    if isinstance(value, (ColumnarSpanMap, ColumnarFloatMap,
                          ColumnarGapEventMap)):
        return value.to_map()
    return value
