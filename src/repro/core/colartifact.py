"""Columnar forms of the fat stage outputs (DESIGN.md §16).

The hot stages' outputs used to be object graphs — the entry-stripped
:class:`~repro.core.filtering.FilterReport`, plus megabytes of
``AddressSpan``/``GapEvent`` lists — tens of thousands of small objects
pickled across every shard boundary, re-walked on every warm load and
re-serialized on every cold store.  The classes here hold the same
information as a handful of parallel arrays plus a tiny meta block, and
pickle as exactly those: the worker pipes, the dist sockets, the shard
checkpoints and the artifact cache all carry a few array buffers instead
of an object graph.  The span, duration and gap maps are
the ``spans`` and ``gaps`` stage outputs themselves, in every execution
mode: read-only mappings that decode a probe's records on lookup.

Round-trip contract: ``decode(encode(value))`` reproduces the original
exactly — same dict order, equal field values, and (for the filter
artifact) ``within_as_changes`` items that are the *same objects* as the
matching ``changes`` items (as the classifier constructs them).
Verdict entry lists are dropped: they are a pure function of the
connection log, and the spans and gaps kernels read the columnar view
instead.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.association import GapCause, GapEvent
from repro.core.changes import AddressChange, AddressSpan
from repro.core.filtering import FilterReport, ProbeCategory, ProbeVerdict
from repro.net.ipv4 import IPv4Address

#: ``cause`` column value of each gap cause, in the order the gap map's
#: ``meta["causes"]`` names them.
CAUSE_CODES = {cause: code for code, cause in enumerate(GapCause)}


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

    __wire_contract__ = "filter-artifact-columnar"

    def __init__(self, meta: dict, columns: dict) -> None:
        self.meta = meta
        self.columns = columns

    @classmethod
    def concat(cls, parts) -> "ColumnarFilterArtifact":
        """The artifacts of consecutive shards joined end to end."""
        parts = list(parts)
        if not parts:
            return cls.from_report(FilterReport(verdicts={}, total=0))
        return cls(_joined_meta(parts, summed=("total",)),
                   _concat_columns(parts, "change_offsets"))

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


def _concat_columns(parts: list, offsets: str) -> dict:
    """Concatenate CSR column sets end to end, in the order given.

    Every column is joined as is except ``offsets``, whose parts are
    shifted past the items of the parts before them.
    """
    columns = {}
    for name in parts[0].columns:
        arrays = [part.columns[name] for part in parts]
        if name == offsets:
            pieces = [np.zeros(1, dtype=np.int64)]
            base = 0
            for array in arrays:
                pieces.append(array[1:] + base)
                base += int(array[-1])
            columns[name] = np.concatenate(pieces)
        else:
            columns[name] = np.concatenate(arrays)
    return columns


def _joined_meta(parts: list, summed: tuple[str, ...] = ()) -> dict:
    """The meta block of concatenated parts: ``summed`` keys add up,
    every other key must agree across the parts."""
    def fixed(meta: dict) -> dict:
        return {key: value for key, value in meta.items()
                if key not in summed}

    first = fixed(parts[0].meta)
    if any(fixed(part.meta) != first for part in parts[1:]):
        raise ValueError("cannot concatenate artifacts with different "
                         "meta blocks")
    first.update({key: sum(part.meta[key] for part in parts)
                  for key in summed})
    return first


class _ColumnarMapBase(Mapping):
    """Shared plumbing for the ``Mapping[int, list[record]]`` artifacts.

    Layout: ``probe_ids`` in the map's order (never re-sorted —
    preserving iteration order is part of the round-trip contract) with
    CSR ``offsets`` slicing the flat per-item columns.

    The maps are read-only stage outputs.  A lookup decodes one probe's
    records and memoizes them; iteration follows the stored order.  The
    first lookup turns the item columns into lists once, so decoding a
    probe is list slicing plus one record per item.  Pickling ships the
    columns only, never the decoded records.
    """

    def __init__(self, meta: dict, columns: dict) -> None:
        self.meta = meta
        self.columns = columns
        self._keys: list[int] | None = None
        self._rows: dict[int, int] | None = None
        self._lists: dict[str, list] | None = None
        self._memo: dict[int, list] = {}

    def __getstate__(self) -> dict:
        return {"meta": self.meta, "columns": self.columns}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    @classmethod
    def concat(cls, parts):
        """The maps of consecutive shards joined end to end, in order."""
        parts = list(parts)
        if not parts:
            return cls.from_map({})
        return cls(_joined_meta(parts), _concat_columns(parts, "offsets"))

    def to_map(self) -> dict:
        """A plain dict of the decoded records, in stored order."""
        return {pid: self[pid] for pid in self}

    # -- Mapping -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns["probe_ids"])

    def __iter__(self):
        if self._keys is None:
            self._keys = self.columns["probe_ids"].tolist()
        return iter(self._keys)

    def __contains__(self, key: object) -> bool:
        if self._rows is None:
            self._rows = {pid: row for row, pid in enumerate(self)}
        return key in self._rows

    def __getitem__(self, key: int) -> list:
        if key not in self._memo:
            if key not in self:
                raise KeyError(key)
            if self._lists is None:
                self._lists = {name: column.tolist()
                               for name, column in self.columns.items()
                               if name != "probe_ids"}
            offsets = self._lists["offsets"]
            row = self._rows[key]
            self._memo[key] = self._records(
                key, self._lists, offsets[row], offsets[row + 1])
        return self._memo[key]

    def _records(self, pid: int, lists: dict[str, list], lo: int,
                 hi: int) -> list:
        """Items ``lo:hi`` of the column ``lists`` as ``pid``'s records."""
        raise NotImplementedError


class ColumnarSpanMap(_ColumnarMapBase):
    """``spans_by_probe`` (``Mapping[int, list[AddressSpan]]``) as columns.

    Persists across processes and code versions — a wire contract
    (RPR010).
    """

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
        return cls.from_arrays(
            np.asarray(pids, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
            np.asarray(addrs, dtype=np.uint32),
            np.asarray(starts, dtype=np.float64),
            np.asarray(ends, dtype=np.float64),
            np.asarray(complete_start, dtype=np.uint8),
            np.asarray(complete_end, dtype=np.uint8))

    @classmethod
    def from_arrays(cls, probe_ids, offsets, address, start, end,
                    complete_start, complete_end) -> "ColumnarSpanMap":
        """Wrap ready columns (the spans kernel's output)."""
        return cls({}, {
            "probe_ids": probe_ids, "offsets": offsets, "address": address,
            "start": start, "end": end, "complete_start": complete_start,
            "complete_end": complete_end})

    def _records(self, pid: int, lists: dict[str, list], lo: int,
                 hi: int) -> list:
        addresses: dict[int, IPv4Address] = {}
        spans = []
        for value, start, end, first, last in zip(
                lists["address"][lo:hi], lists["start"][lo:hi],
                lists["end"][lo:hi], lists["complete_start"][lo:hi],
                lists["complete_end"][lo:hi]):
            address = addresses.get(value)
            if address is None:
                address = addresses[value] = IPv4Address(value)
            spans.append(AddressSpan(pid, address, start, end, first == 1,
                                     last == 1))
        return spans


class ColumnarFloatMap(_ColumnarMapBase):
    """A ``Mapping[int, list[float]]`` artifact (``durations_by_probe``).

    Persists across processes and code versions — a wire contract
    (RPR010).
    """

    __wire_contract__ = "float-map-columnar"

    @classmethod
    def from_map(cls, values_by_probe: dict) -> "ColumnarFloatMap":
        pids = list(values_by_probe)
        offsets: list[int] = [0]
        flat: list[float] = []
        for values in values_by_probe.values():
            flat.extend(values)
            offsets.append(len(flat))
        return cls.from_arrays(np.asarray(pids, dtype=np.int64),
                               np.asarray(offsets, dtype=np.int64),
                               np.asarray(flat, dtype=np.float64))

    @classmethod
    def from_arrays(cls, probe_ids, offsets, values) -> "ColumnarFloatMap":
        """Wrap ready columns (the spans kernel's durations)."""
        return cls({}, {"probe_ids": probe_ids, "offsets": offsets,
                        "values": values})

    def _records(self, pid: int, lists: dict[str, list], lo: int,
                 hi: int) -> list:
        return lists["values"][lo:hi]


class ColumnarGapEventMap(_ColumnarMapBase):
    """``gap_events_by_probe`` (``Mapping[int, list[GapEvent]]``) as columns.

    Cause codes index the cause-name list carried in ``meta`` (the file
    stays self-describing if the enum ever gains members).  Persists
    across processes and code versions — a wire contract (RPR010).
    """

    __wire_contract__ = "gap-event-map-columnar"

    @classmethod
    def from_map(cls, events_by_probe: dict) -> "ColumnarGapEventMap":
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
                causes.append(CAUSE_CODES[event.cause])
                changed.append(1 if event.address_changed else 0)
                outage.append(event.outage_duration)
            offsets.append(len(causes))
        return cls.from_arrays(
            np.asarray(pids, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
            np.asarray(gap_starts, dtype=np.float64),
            np.asarray(gap_ends, dtype=np.float64),
            np.asarray(causes, dtype=np.uint8),
            np.asarray(changed, dtype=np.uint8),
            np.asarray(outage, dtype=np.float64))

    @classmethod
    def from_arrays(cls, probe_ids, offsets, gap_start, gap_end, cause,
                    address_changed, outage_duration
                    ) -> "ColumnarGapEventMap":
        """Wrap ready columns (the gaps kernel's output); ``cause``
        holds :data:`CAUSE_CODES` values."""
        return cls({"causes": [cause.name for cause in GapCause]}, {
            "probe_ids": probe_ids, "offsets": offsets,
            "gap_start": gap_start, "gap_end": gap_end, "cause": cause,
            "address_changed": address_changed,
            "outage_duration": outage_duration})

    def cause_code(self, cause: GapCause) -> int:
        """The ``cause`` column value that stands for ``cause``."""
        return self.meta["causes"].index(cause.name)

    def outages(self) -> dict[int, list[GapEvent]]:
        """Each probe's gaps attributed to an outage (cause other than
        NONE), in stored order, every probe keyed.

        Decodes only those rows — a small share of all gaps — so the
        outage figures need not decode every gap event.
        """
        columns = self.columns
        counts = np.diff(columns["offsets"])
        owner = np.repeat(np.arange(len(counts)), counts)
        rows = np.flatnonzero(columns["cause"]
                              != self.cause_code(GapCause.NONE))
        outages: dict[int, list[GapEvent]] = {pid: [] for pid in self}
        causes = [GapCause[name] for name in self.meta["causes"]]
        pids = columns["probe_ids"].tolist()
        for row, start, end, code, changed, outage in zip(
                owner[rows].tolist(), columns["gap_start"][rows].tolist(),
                columns["gap_end"][rows].tolist(),
                columns["cause"][rows].tolist(),
                columns["address_changed"][rows].tolist(),
                columns["outage_duration"][rows].tolist()):
            pid = pids[row]
            outages[pid].append(GapEvent(pid, start, end, causes[code],
                                         changed == 1, outage))
        return outages

    def _records(self, pid: int, lists: dict[str, list], lo: int,
                 hi: int) -> list:
        causes = [GapCause[name] for name in self.meta["causes"]]
        return [GapEvent(pid, start, end, causes[code], changed == 1,
                         outage)
                for start, end, code, changed, outage in zip(
                    lists["gap_start"][lo:hi], lists["gap_end"][lo:hi],
                    lists["cause"][lo:hi], lists["address_changed"][lo:hi],
                    lists["outage_duration"][lo:hi])]


def decode_value(value: object) -> object:
    """Decode one cached artifact value; other values pass through.

    The single dispatch point the executor's cache-revive path uses.
    Only the filter artifact decodes: the span, duration and gap maps
    are the stage outputs themselves.
    """
    if isinstance(value, ColumnarFilterArtifact):
        return value.to_report()
    return value
