"""The RIPE Atlas connection-logs dataset (Section 3.1 of the paper).

:class:`ConnectionLog` stores per-probe, time-ordered connections as
columns -- a :class:`~repro.atlas.columnar.ColumnarConnlog` plus the
text of the few IPv6 entries -- serializes them to a tab-separated text
format, and renders samples in the paper's Table 1 style.  Record
objects (:class:`~repro.atlas.types.ConnectionLogEntry`) are built on
demand, per probe, for the few consumers that want them.  Address
changes are *detected* from these logs by :mod:`repro.core.colkernels`;
this module only stores and transports them.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, TextIO

import numpy as np

from repro.atlas.columnar import (
    ColumnarConnlog,
    group_heads,
    repair_order,
    staged_probes,
    strict_order,
)
from repro.atlas.types import ConnectionLogEntry
from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import IPv4Address
from repro.util import timeutil
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
    parse_finite,
    parse_probe_id,
)
from repro.util.tsvscan import TsvScan

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "connlog"

class ConnectionLog:
    """Per-probe, time-ordered connection log entries, held as columns.

    Entries added with :meth:`add` are staged per probe; the first read
    seals them into columns, and an :meth:`add` after that unseals them
    again (the next read re-seals).  Sealing is not thread-safe: seal a
    log (any read does) before sharing it between threads.
    """

    def __init__(self, entries: Iterable[ConnectionLogEntry] = ()) -> None:
        self._columns: ColumnarConnlog | None = None
        #: IPv6 address text by flat row of the sealed columns.
        self._ipv6: dict[int, str] = {}
        #: Staged rows ``(start, end, address value, IPv6 text)`` by probe.
        self._staged: dict[int, list[tuple[float, float, int,
                                           str | None]]] = {}
        for entry in entries:
            self.add(entry)

    @classmethod
    def _sealed(cls, columns: ColumnarConnlog,
                ipv6: dict[int, str]) -> "ConnectionLog":
        log = cls()
        log._columns = columns
        log._ipv6 = ipv6
        return log

    def add(self, entry: ConnectionLogEntry) -> None:
        """Append an entry; rejects overlaps/out-of-order per probe."""
        self.stage(entry.probe_id, [(
            entry.start, entry.end,
            0 if entry.is_ipv6 else entry.address.value,
            entry.ipv6_address)])

    def stage(self, probe_id: int,
              rows: list[tuple[float, float, int, str | None]]) -> None:
        """Append one probe's rows in a single call (the bulk :meth:`add`).

        Rows are ``(start, end, IPv4 value, IPv6 text)``: IPv4 rows carry
        None as text, IPv6 rows carry value 0.  They must continue the
        probe's time order without overlap; on a violation nothing is
        staged.
        """
        if self._columns is not None:
            self._unseal()
        log = self._staged.setdefault(probe_id, [])
        previous_end = log[-1][1] if log else -math.inf
        for start, end, _, _ in rows:
            if start < previous_end:
                raise DatasetError(
                    "probe %d: connection starting %s overlaps previous one"
                    % (probe_id, start)
                )
            if end < start:
                raise DatasetError(
                    "probe %d: connection starting %s ends before it starts"
                    % (probe_id, start)
                )
            previous_end = end
        log.extend(rows)

    def columns(self) -> ColumnarConnlog:
        """The sealed columns (sealing staged entries first)."""
        if self._columns is None:
            self._seal()
        return self._columns

    def _seal(self) -> None:
        probe_ids = sorted(self._staged)
        rows = [row for pid in probe_ids for row in self._staged[pid]]
        starts, ends, addrs, texts = (zip(*rows) if rows
                                      else ((), (), (), ()))
        self._ipv6 = {row: text for row, text in enumerate(texts)
                      if text is not None}
        self._columns = ColumnarConnlog.from_grouped(
            staged_probes(self._staged),
            starts=np.asarray(starts, dtype=np.float64),
            ends=np.asarray(ends, dtype=np.float64),
            addrs=np.asarray(addrs, dtype=np.uint32),
            v6=np.asarray([text is not None for text in texts],
                          dtype=np.uint8))
        self._staged = {}

    def _unseal(self) -> None:
        col = self._columns
        starts, ends = col.starts.tolist(), col.ends.tolist()
        addrs = col.addrs.tolist()
        offsets = col.offsets.tolist()
        self._staged = {
            pid: [(starts[row], ends[row], addrs[row], self._ipv6.get(row))
                  for row in range(offsets[index], offsets[index + 1])]
            for index, pid in enumerate(col.probe_ids.tolist())}
        self._columns = None
        self._ipv6 = {}

    def probe_ids(self) -> list[int]:
        """All probe ids present, sorted."""
        return self.columns().probe_ids.tolist()

    def entries(self, probe_id: int) -> list[ConnectionLogEntry]:
        """Entries for one probe in time order (empty when unknown).

        Builds the record objects from the columns on every call.
        """
        col = self.columns()
        if not col.has_probe(probe_id):
            return []
        lo, hi = col.slice_of(probe_id)
        entries = []
        for row, start, end, value in zip(
                range(lo, hi), col.starts[lo:hi].tolist(),
                col.ends[lo:hi].tolist(), col.addrs[lo:hi].tolist()):
            text = self._ipv6.get(row)
            if text is None:
                entries.append(ConnectionLogEntry(probe_id, start, end,
                                                  IPv4Address(value)))
            else:
                entries.append(ConnectionLogEntry(probe_id, start, end, None,
                                                  ipv6_address=text))
        return entries

    def entry_count(self) -> int:
        """Total entries across all probes."""
        return self.columns().entry_count

    def total_connected_time(self, probe_id: int) -> float:
        """Aggregate connected duration for a probe.

        The paper restricts analysis to probes connected for more than
        30 days in 2015; this is the quantity that threshold applies to.
        """
        col = self.columns()
        if not col.has_probe(probe_id):
            return 0
        lo, hi = col.slice_of(probe_id)
        return sum(col.durations_list()[lo:hi])

    def __iter__(self) -> Iterator[ConnectionLogEntry]:
        for probe_id in self.probe_ids():
            yield from self.entries(probe_id)

    # -- serialization -----------------------------------------------------

    def write(self, stream: TextIO) -> None:
        """Serialize as ``probe_id<TAB>start<TAB>end<TAB>address`` lines."""
        col = self.columns()
        probe_of_row = np.repeat(col.probe_ids, np.diff(col.offsets))
        dotted: dict[int, str] = {}  # addresses repeat across rows
        for row, (probe_id, start, end, value) in enumerate(zip(
                probe_of_row.tolist(), col.starts.tolist(),
                col.ends.tolist(), col.addrs.tolist())):
            address = self._ipv6.get(row)
            if address is None:
                address = dotted.get(value)
                if address is None:
                    address = dotted[value] = str(IPv4Address(value))
            stream.write("%d\t%.0f\t%.0f\t%s\n"
                         % (probe_id, start, end, address))

    @staticmethod
    def _parse_line(text: str) -> ConnectionLogEntry:
        """Parse one record line; raises :class:`ParseError` sans location."""
        fields = text.split("\t")
        if len(fields) != 4:
            raise ParseError("expected 4 fields, got %d" % len(fields))
        probe_text, start_text, end_text, address_text = fields
        try:
            probe_id = parse_probe_id(probe_text)
            start = parse_finite(start_text)
            end = parse_finite(end_text)
        except ValueError:
            raise ParseError("malformed numbers") from None
        if ":" in address_text:
            return ConnectionLogEntry(probe_id, start, end, None,
                                      ipv6_address=address_text)
        return ConnectionLogEntry(
            probe_id, start, end, IPv4Address.parse(address_text))

    @classmethod
    def read(cls, stream: TextIO,
             policy: ReadPolicy = ReadPolicy.STRICT,
             report: IngestReport | None = None,
             source: str | None = None) -> "ConnectionLog":
        """Parse the text format produced by :meth:`write`.

        ``STRICT`` raises on the first malformed/out-of-order record;
        ``REPAIR`` quarantines malformed lines, re-sorts out-of-order
        entries per probe and quarantines overlapping duplicates,
        accounting every decision in ``report``.

        Plain lines are converted a whole column at a time
        (:class:`~repro.util.tsvscan.TsvScan`); every other line goes
        through :meth:`_parse_line`, in file order, so diagnostics and
        accounting are exactly those of a line-by-line read.
        """
        source = source or getattr(stream, "name", "<connlog>")
        report = report if report is not None else IngestReport()
        rows = _Rows.from_scan(TsvScan(stream.read(), 4))
        extra: list[tuple[int, ConnectionLogEntry]] = []
        for index in rows.other_lines():
            line_number = index + 1
            text = rows.scan.line(index).strip()
            if not text or text.startswith("#"):
                continue
            try:
                extra.append((line_number, cls._parse_line(text)))
            except ParseError as error:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(
                        format_line_error(source, line_number, error)
                    ) from None
                report.quarantined(DATASET_NAME, source, line_number,
                                   str(error))
        rows.merge(extra)
        if policy is ReadPolicy.STRICT:
            return rows.assemble_strict(report, source)
        return rows.assemble_repaired(report, source)

    # -- presentation ------------------------------------------------------

    def render_paper_style(self, probe_id: int, limit: int | None = None) -> str:
        """Render a probe's log like the paper's Table 1.

        Columns: probe id, start time, end time, address.
        """
        lines = ["ID\tStart time\tEnd time\tIP Address"]
        entries = self.entries(probe_id)
        if limit is not None:
            entries = entries[:limit]
        for entry in entries:
            address = (entry.ipv6_address if entry.is_ipv6
                       else str(entry.address))
            lines.append("%d\t%s\t%s\t%s" % (
                entry.probe_id,
                timeutil.format_log_time(entry.start),
                timeutil.format_log_time(entry.end),
                address,
            ))
        return "\n".join(lines)


class _Rows:
    """The parsed rows of one read, as parallel arrays in line order."""

    def __init__(self, scan: TsvScan, line, probe, start, end, addr, v6,
                 ipv6: dict[int, str]) -> None:
        self.scan = scan
        self.line, self.probe, self.start, self.end = line, probe, start, end
        self.addr, self.v6 = addr, v6
        #: IPv6 text by line number.
        self.ipv6 = ipv6

    @classmethod
    def from_scan(cls, scan: TsvScan) -> "_Rows":
        """The plain lines that convert cleanly; the rest left for later."""
        probe, ok = scan.decimal(0, 18)
        start, start_ok = scan.decimal(1, 15)
        end, end_ok = scan.decimal(2, 15)
        v6 = scan.contains(3, ":")
        addr, addr_ok = scan.dotted_quad(3)
        ok &= start_ok & end_ok & (v6 | addr_ok) & (end >= start)
        ipv6 = dict(zip((scan.rows[ok & v6] + 1).tolist(),
                        scan.text(3, ok & v6)))
        # IPv6 rows fail the dotted-quad check, so their address is 0.
        return cls(scan, scan.rows[ok] + 1, probe[ok],
                   start[ok].astype(np.float64), end[ok].astype(np.float64),
                   addr[ok], v6[ok], ipv6)

    def other_lines(self) -> list[int]:
        """Indexes of the lines the scan left for the per-line parser."""
        return self.scan.other_lines(self.line - 1).tolist()

    def merge(self, extra: list[tuple[int, ConnectionLogEntry]]) -> None:
        """Merge in the rows parsed line by line, restoring line order."""
        if not extra:
            return
        for line_number, entry in extra:
            if entry.is_ipv6:
                self.ipv6[line_number] = entry.ipv6_address
        order = np.argsort(np.concatenate(
            (self.line, [line_number for line_number, _ in extra])),
            kind="stable")

        def merged(column, values, dtype):
            return np.concatenate(
                (column, np.asarray(values, dtype=dtype)))[order]

        self.line = merged(self.line, [n for n, _ in extra], np.int64)
        self.probe = merged(self.probe, [e.probe_id for _, e in extra],
                            np.int64)
        self.start = merged(self.start, [e.start for _, e in extra],
                            np.float64)
        self.end = merged(self.end, [e.end for _, e in extra], np.float64)
        self.addr = merged(self.addr, [0 if e.is_ipv6 else e.address.value
                                       for _, e in extra], np.uint32)
        self.v6 = merged(self.v6, [e.is_ipv6 for _, e in extra], bool)

    def _log(self, order) -> ConnectionLog:
        """The container holding rows ``order`` (grouped by probe)."""
        v6 = self.v6[order]
        rows = np.flatnonzero(v6)
        ipv6 = dict(zip(rows.tolist(), [
            self.ipv6[line] for line in self.line[order][rows].tolist()]))
        return ConnectionLog._sealed(ColumnarConnlog.from_grouped(
            self.probe[order],
            starts=self.start[order], ends=self.end[order],
            addrs=self.addr[order], v6=v6.astype(np.uint8)), ipv6)

    def assemble_strict(self, report: IngestReport,
                        source: str) -> ConnectionLog:
        """STRICT: keep file order per probe; the first overlap raises."""
        return self._log(strict_order(
            self.probe, self.start, self.end, report, DATASET_NAME,
            lambda row: DatasetError(format_line_error(
                source, int(self.line[row]),
                "probe %d: connection starting %s overlaps previous one"
                % (int(self.probe[row]), float(self.start[row]))))))

    def assemble_repaired(self, report: IngestReport,
                          source: str) -> ConnectionLog:
        """REPAIR: sort per probe, drop overlapping records.

        A record is displaced (repaired) when sorting moved it: the
        probe's file order and sorted order disagree at its position.
        Probes without a displaced or overlapping record are accepted
        whole; the rest are scanned record by record.
        """
        order, displaced = repair_order(self.probe, self.start, self.end)
        probe = self.probe[order]
        start, end = self.start[order], self.end[order]
        overlap = np.zeros(len(order), dtype=bool)
        overlap[1:] = (probe[1:] == probe[:-1]) & (start[1:] < end[:-1])
        keep = np.ones(len(order), dtype=bool)
        # Probe groups [firsts[g], firsts[g + 1]) of the sorted rows.
        firsts = group_heads(probe)
        flagged = np.unique(np.searchsorted(
            firsts, np.flatnonzero(displaced | overlap), side="right") - 1)
        if len(flagged):
            lines = self.line[order].tolist()
            starts, ends = start.tolist(), end.tolist()
            moved = displaced.tolist()
            bounds = np.append(firsts, len(order)).tolist()
            for group in flagged.tolist():
                lo, hi = bounds[group], bounds[group + 1]
                pid = int(probe[lo])
                last_end = float("-inf")
                for at in range(lo, hi):
                    if starts[at] < last_end:
                        keep[at] = False
                        report.quarantined(
                            DATASET_NAME, source, lines[at],
                            "probe %d: connection starting %s overlaps the "
                            "previous one" % (pid, starts[at]))
                        continue
                    last_end = ends[at]
                    if moved[at]:
                        report.repaired(
                            DATASET_NAME, source, lines[at],
                            "probe %d: out-of-order entry re-sorted" % pid)
        parsed = int(np.count_nonzero(keep & ~displaced))
        if parsed:
            report.parsed(DATASET_NAME, parsed)
        return self._log(order[keep])
