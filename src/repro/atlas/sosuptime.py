"""The SOS-uptime dataset (Section 3.5 of the paper).

Probes report their uptime counter — seconds since boot — every time they
establish a new TCP connection to the controller.  A counter value smaller
than the previous one means the probe rebooted; the reboot instant is the
report timestamp minus the counter value (the paper's Table 4 example).

:class:`UptimeDataset` holds the reports as columns
(:class:`~repro.atlas.columnar.ColumnarUptime`) and builds
:class:`~repro.atlas.types.UptimeRecord` objects only on demand.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, TextIO

import numpy as np

from repro.atlas.columnar import (
    ColumnarUptime,
    repair_order,
    staged_probes,
    strict_order,
)
from repro.atlas.types import UptimeRecord
from repro.errors import DatasetError, ParseError
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
    parse_finite,
    parse_probe_id,
)
from repro.util.tsvscan import TsvScan

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "uptime"

#: Uptime counters are 32-bit seconds on the probe; a raw value at or
#: beyond this bound can only be a wrapped/corrupted read-out, since it
#: would mean more than 136 years since boot.
UPTIME_WRAP_MODULUS = float(2 ** 32)


class UptimeDataset:
    """Per-probe, time-ordered SOS-uptime records, held as columns.

    Staging, sealing and unsealing work as in
    :class:`~repro.atlas.connlog.ConnectionLog`.
    """

    def __init__(self, records: Iterable[UptimeRecord] = ()) -> None:
        self._columns: ColumnarUptime | None = None
        #: Staged ``(timestamp, uptime)`` rows by probe.
        self._staged: dict[int, list[tuple[float, float]]] = {}
        for record in records:
            self.add(record)

    def add(self, record: UptimeRecord) -> None:
        """Append a record, enforcing per-probe time order."""
        self.stage(record.probe_id, [(record.timestamp, record.uptime)])

    def stage(self, probe_id: int, rows: list[tuple[float, float]]) -> None:
        """Append one probe's ``(timestamp, uptime)`` rows in a single call.

        The bulk form of :meth:`add`: rows must continue the probe's time
        order and carry non-negative counters; on a violation nothing is
        staged.
        """
        if self._columns is not None:
            self._unseal()
        log = self._staged.setdefault(probe_id, [])
        previous = log[-1][0] if log else -math.inf
        for timestamp, uptime in rows:
            if timestamp < previous:
                raise DatasetError(
                    "probe %d: uptime record at %s out of order"
                    % (probe_id, timestamp)
                )
            if uptime < 0:
                raise DatasetError(
                    "probe %d: negative uptime %r" % (probe_id, uptime))
            previous = timestamp
        log.extend(rows)

    def columns(self) -> ColumnarUptime:
        """The sealed columns (sealing staged records first)."""
        if self._columns is None:
            rows = [row for pid in sorted(self._staged)
                    for row in self._staged[pid]]
            timestamps, uptimes = zip(*rows) if rows else ((), ())
            self._columns = ColumnarUptime.from_grouped(
                staged_probes(self._staged),
                timestamps=np.asarray(timestamps, dtype=np.float64),
                uptimes=np.asarray(uptimes, dtype=np.float64))
            self._staged = {}
        return self._columns

    def _unseal(self) -> None:
        col = self._columns
        rows = list(zip(col.timestamps.tolist(), col.uptimes.tolist()))
        offsets = col.offsets.tolist()
        self._staged = {pid: rows[offsets[index]:offsets[index + 1]]
                        for index, pid in enumerate(col.probe_ids.tolist())}
        self._columns = None

    def probe_ids(self) -> list[int]:
        """All probe ids present, sorted."""
        return self.columns().probe_ids.tolist()

    def records(self, probe_id: int) -> list[UptimeRecord]:
        """All records for a probe in time order (built on every call)."""
        col = self.columns()
        if not col.has_probe(probe_id):
            return []
        lo, hi = col.slice_of(probe_id)
        return [UptimeRecord(probe_id, timestamp, uptime)
                for timestamp, uptime in zip(col.timestamps[lo:hi].tolist(),
                                             col.uptimes[lo:hi].tolist())]

    def records_in(self, probe_id: int, window_start: float,
                   window_end: float) -> list[UptimeRecord]:
        """Records with timestamps inside ``[window_start, window_end)``."""
        return [r for r in self.records(probe_id)
                if window_start <= r.timestamp < window_end]

    def __iter__(self) -> Iterator[UptimeRecord]:
        for probe_id in self.probe_ids():
            yield from self.records(probe_id)

    def write(self, stream: TextIO) -> None:
        """Serialize as ``probe_id<TAB>timestamp<TAB>uptime`` lines."""
        col = self.columns()
        probe_of_row = np.repeat(col.probe_ids, np.diff(col.offsets))
        for probe_id, timestamp, uptime in zip(probe_of_row.tolist(),
                                               col.timestamps.tolist(),
                                               col.uptimes.tolist()):
            stream.write("%d\t%.0f\t%.0f\n" % (probe_id, timestamp, uptime))

    @staticmethod
    def _parse_line(text: str) -> UptimeRecord:
        """Parse one record line; raises :class:`ParseError` sans location."""
        fields = text.split("\t")
        if len(fields) != 3:
            raise ParseError("expected 3 fields, got %d" % len(fields))
        try:
            # UptimeRecord itself rejects negative counters (ParseError).
            return UptimeRecord(parse_probe_id(fields[0]),
                                parse_finite(fields[1]),
                                parse_finite(fields[2]))
        except ValueError:
            raise ParseError("malformed numbers") from None

    @classmethod
    def read(cls, stream: TextIO,
             policy: ReadPolicy = ReadPolicy.STRICT,
             report: IngestReport | None = None,
             source: str | None = None) -> "UptimeDataset":
        """Parse the text format produced by :meth:`write`.

        ``STRICT`` raises on malformed lines, wrapped counters and
        out-of-order records; ``REPAIR`` quarantines garbage, unwraps
        counters modulo 2**32 and re-sorts per-probe timestamps,
        accounting every decision in ``report``.

        Plain lines with in-range counters are converted a whole column
        at a time (:class:`~repro.util.tsvscan.TsvScan`); every other
        line goes through :meth:`_parse_line`, in file order.
        """
        source = source or getattr(stream, "name", "<uptime>")
        report = report if report is not None else IngestReport()
        scan = TsvScan(stream.read(), 3)
        probe, ok = scan.decimal(0, 18)
        stamp, stamp_ok = scan.decimal(1, 15)
        uptime, uptime_ok = scan.decimal(2, 15)
        ok &= stamp_ok & uptime_ok & (uptime < 2 ** 32)
        # Per row: its line number, negated for a counter-wrap repair
        # (already accounted, so assembly does not count it again).
        lines = [scan.rows[ok] + 1]
        columns = [(probe[ok], stamp[ok].astype(np.float64),
                    uptime[ok].astype(np.float64))]
        extra: list[tuple[int, UptimeRecord]] = []
        for index in scan.other_lines(scan.rows[ok]).tolist():
            line_number = index + 1
            text = scan.line(index).strip()
            if not text or text.startswith("#"):
                continue
            try:
                record = cls._parse_line(text)
            except ParseError as error:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(
                        format_line_error(source, line_number, error)
                    ) from None
                report.quarantined(DATASET_NAME, source, line_number,
                                   str(error))
                continue
            if record.uptime >= UPTIME_WRAP_MODULUS:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(format_line_error(
                        source, line_number,
                        "uptime counter %r beyond the 32-bit wrap"
                        % record.uptime))
                record = UptimeRecord(record.probe_id, record.timestamp,
                                      record.uptime % UPTIME_WRAP_MODULUS)
                report.repaired(DATASET_NAME, source, line_number,
                                "wrapped uptime counter reduced modulo 2**32")
                line_number = -line_number
            extra.append((line_number, record))
        if extra:
            lines.append(np.asarray([n for n, _ in extra], dtype=np.int64))
            columns.append((
                np.asarray([r.probe_id for _, r in extra], dtype=np.int64),
                np.asarray([r.timestamp for _, r in extra], dtype=np.float64),
                np.asarray([r.uptime for _, r in extra], dtype=np.float64)))
        line = np.concatenate(lines)
        by_line = np.argsort(np.abs(line), kind="stable")
        line = line[by_line]
        probe, stamp, uptime = (np.concatenate(column)[by_line]
                                for column in zip(*columns))
        if policy is ReadPolicy.STRICT:
            order = strict_order(
                probe, stamp, stamp, report, DATASET_NAME,
                lambda row: DatasetError(format_line_error(
                    source, int(line[row]),
                    "probe %d: uptime record at %s out of order"
                    % (int(probe[row]), float(stamp[row])))))
        else:
            order = cls._repair_order(line, probe, stamp, report, source)
        dataset = cls()
        dataset._columns = ColumnarUptime.from_grouped(
            probe[order], timestamps=stamp[order], uptimes=uptime[order])
        return dataset

    @staticmethod
    def _repair_order(line, probe, stamp, report: IngestReport,
                      source: str):
        """REPAIR assembly: sort timestamps per probe, count re-orderings.

        A record is displaced (repaired) when sorting moved it: the
        probe's file order and sorted order disagree at its position.
        Rows carrying a negative line number were already accounted as
        repaired (counter unwrap) and are not double-counted.
        """
        order, displaced = repair_order(probe, stamp)
        counted = line[order] > 0
        displaced &= counted
        for at in np.flatnonzero(displaced).tolist():
            report.repaired(
                DATASET_NAME, source, int(line[order[at]]),
                "probe %d: out-of-order record re-sorted"
                % int(probe[order[at]]))
        parsed = int(np.count_nonzero(counted & ~displaced))
        if parsed:
            report.parsed(DATASET_NAME, parsed)
        return order
