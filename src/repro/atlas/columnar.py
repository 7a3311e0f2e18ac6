"""Columnar (structure-of-arrays) storage of the hot Atlas datasets.

These columns are the source of truth: the dataset containers
(:class:`~repro.atlas.connlog.ConnectionLog`,
:class:`~repro.atlas.sosuptime.UptimeDataset`) hold one of these, their
readers parse text straight into it, and the vectorized stage kernels
(:mod:`repro.core.colkernels`) operate on it.  Record objects
(``ConnectionLogEntry``/``UptimeRecord``) are lazy views the containers
build on demand.  Layout is CSR-style: one row per probe in sorted-id
order, with ``offsets[i]:offsets[i+1]`` slicing the flat per-entry
columns.

Invariants (DESIGN.md §16):

* ``probe_ids`` is strictly increasing; ``offsets`` is non-decreasing
  with ``offsets[0] == 0`` and ``offsets[-1] == len(starts)``;
* within a probe's slice, entries keep the container's time order;
* ``addrs[k]`` is the IPv4 address as a host-order ``uint32`` and is 0
  where ``v6[k]`` is set — IPv6 payloads (textual addresses) stay in
  the connection log's row-to-text map, the kernels only need the
  *flag*.

The columns are never mutated once built; a container that receives
new records builds a new instance.

The module also holds the row-assembly steps both readers share: the
STRICT and REPAIR groupings (:func:`strict_order`, :func:`repair_order`)
and the CSR build over grouped rows (:meth:`_ProbeIndexed.from_grouped`,
:func:`staged_probes`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.atlas.connlog import ConnectionLog
    from repro.atlas.sosuptime import UptimeDataset
    from repro.util.ingest import IngestReport


def group_heads(probe) -> np.ndarray:
    """Indexes of the first row of each probe, over rows grouped by probe."""
    head = np.ones(len(probe), dtype=bool)
    head[1:] = probe[1:] != probe[:-1]
    return np.flatnonzero(head)


def staged_probes(staged: dict) -> np.ndarray:
    """The probe id of every row staged per probe, probes in id order."""
    probe_ids = sorted(staged)
    return np.repeat(np.asarray(probe_ids, dtype=np.int64),
                     np.asarray([len(staged[pid]) for pid in probe_ids],
                                dtype=np.int64))


def strict_order(probe, key, bound, report: "IngestReport", dataset: str,
                 fail) -> np.ndarray:
    """Group rows by probe in input order, as a line-by-line STRICT read.

    A row whose ``key`` is below the ``bound`` of the previous row of its
    probe is out of order.  The earliest such row (in input order) fails
    the read: the rows before it were accepted and count as parsed, then
    ``fail(row)`` is raised.  Otherwise every row counts as parsed and
    the stable by-probe order is returned: ``slice(None)`` when the rows
    are grouped already (as every written bundle's are), so indexing
    with it copies nothing.
    """
    if (probe[1:] >= probe[:-1]).all():
        order = slice(None)
    else:
        order = np.argsort(probe, kind="stable")
    grouped = probe[order]
    bad = ((grouped[1:] == grouped[:-1])
           & (key[order][1:] < bound[order][:-1]))
    if bad.any():
        first = int(np.arange(len(probe))[order][1:][bad].min())
        if first:
            report.parsed(dataset, first)
        raise fail(first)
    if len(probe):
        report.parsed(dataset, len(probe))
    return order


def repair_order(probe, *keys) -> tuple[np.ndarray, np.ndarray]:
    """REPAIR grouping: rows sorted by probe, then by ``keys`` in turn.

    Ties keep input order.  Returns ``(order, displaced)``, where
    ``displaced[k]`` is set when sorting moved a row to position ``k``:
    the probe's input order and sorted order disagree there.
    """
    rank = np.arange(len(probe))
    order = np.lexsort((rank,) + keys[::-1] + (probe,))
    return order, order != np.argsort(probe, kind="stable")


class _ProbeIndexed:
    """Shared CSR plumbing: sorted probe ids + offsets into flat columns.

    Pickles as its columns only (worker contexts ship the containers to
    spawned processes); derived and memoized state is rebuilt.
    """

    #: The constructor's column keywords: what an instance pickles as.
    COLUMNS: tuple[str, ...] = ("probe_ids", "offsets")

    def __init__(self, probe_ids, offsets) -> None:
        self.probe_ids = probe_ids
        self.offsets = offsets
        self._row: dict[int, int] = {
            int(pid): row for row, pid in enumerate(probe_ids.tolist())}

    @classmethod
    def from_grouped(cls, probe, **columns):
        """An instance over rows grouped by ascending probe id.

        ``probe`` holds each row's probe id; ``columns`` are the flat
        per-row columns in the same order.
        """
        heads = group_heads(probe)
        return cls(probe_ids=probe[heads].astype(np.int64),
                   offsets=np.append(heads, len(probe)).astype(np.int64),
                   **columns)

    def __len__(self) -> int:
        return len(self.probe_ids)

    def has_probe(self, probe_id: int) -> bool:
        return probe_id in self._row

    def slice_of(self, probe_id: int) -> tuple[int, int]:
        """``(lo, hi)`` bounds of one probe's rows in the flat columns."""
        row = self._row[probe_id]
        return int(self.offsets[row]), int(self.offsets[row + 1])

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.COLUMNS}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


class ColumnarConnlog(_ProbeIndexed):
    """The columns of a :class:`ConnectionLog`."""

    COLUMNS = ("probe_ids", "offsets", "starts", "ends", "addrs", "v6")

    def __init__(self, probe_ids, offsets, starts, ends, addrs, v6) -> None:
        super().__init__(probe_ids, offsets)
        self.starts = starts
        self.ends = ends
        self.addrs = addrs
        self.v6 = v6
        self._durations = None
        self._durations_list: list[float] | None = None
        self._run_starts = None

    @classmethod
    def from_connlog(cls, connlog: "ConnectionLog") -> "ColumnarConnlog":
        """The log's sealed columns (no copy)."""
        return connlog.columns()

    @property
    def entry_count(self) -> int:
        return len(self.starts)

    def durations(self):
        """Per-entry ``end - start`` (IEEE-identical to the scalar path)."""
        if self._durations is None:
            self._durations = self.ends - self.starts
        return self._durations

    def durations_list(self) -> list[float]:
        """The durations as native floats (for order-sensitive ``sum``)."""
        if self._durations_list is None:
            self._durations_list = self.durations().tolist()
        return self._durations_list

    def run_starts(self):
        """Boolean column: entry opens a new address run within its probe.

        An entry is a run start when it is the first entry of its probe
        or its address value differs from the previous entry's.  Only
        meaningful for pure-IPv4 slices (IPv6 entries share the 0
        placeholder value); the kernels consult it exclusively for
        probes that passed the dual-stack filter.
        """
        if self._run_starts is None:
            mask = np.ones(len(self.addrs), dtype=bool)
            if len(self.addrs):
                mask[1:] = self.addrs[1:] != self.addrs[:-1]
                firsts = self.offsets[:-1]
                mask[firsts[firsts < len(self.addrs)]] = True
            self._run_starts = mask
        return self._run_starts


class ColumnarUptime(_ProbeIndexed):
    """The columns of an :class:`UptimeDataset`."""

    COLUMNS = ("probe_ids", "offsets", "timestamps", "uptimes")

    def __init__(self, probe_ids, offsets, timestamps, uptimes) -> None:
        super().__init__(probe_ids, offsets)
        self.timestamps = timestamps
        self.uptimes = uptimes

    @classmethod
    def from_uptime(cls, uptime: "UptimeDataset") -> "ColumnarUptime":
        """The dataset's sealed columns (no copy)."""
        return uptime.columns()
