"""The k-root ping dataset (Section 3.4 of the paper).

Every ~4 minutes a probe sends three pings to the k-root DNS server and
reports the result together with its LTS ("last time synchronised") value.
The paper detects a *network outage* as a run of all-pings-lost rounds with
growing LTS; a *power outage* shows up as rounds missing entirely (the
probe was off) bracketing an uptime-counter reset.

Storing a year of 4-minute rounds for thousands of probes is infeasible, so
:class:`KRootSeries` stores the generative state — the power-off and
network-down interval sets — and materializes
:class:`~repro.atlas.types.KRootPingRecord` rounds on demand for any query
window.  The analysis code consumes only the materialized records, exactly
as it would consume the real dataset.

:class:`KRootDataset` holds every probe's state as CSR columns (one row
per probe, two interval families) and builds a :class:`KRootSeries` view
of a row on demand.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.atlas.types import KRootPingRecord
from repro.errors import DatasetError
from repro.util.intervals import Interval, IntervalArray

#: Measurement/reporting cadence in seconds (the paper's ~4 minutes).
DEFAULT_CADENCE = 240.0

#: Baseline LTS for a healthy probe, comfortably under the 240 s bound.
HEALTHY_LTS = 120.0


def _window_checks(observed_start: float, observed_end: float,
                   cadence: float) -> None:
    if observed_end <= observed_start:
        raise DatasetError("observation window is empty")
    if cadence <= 0:
        raise DatasetError("cadence must be positive")


class KRootSeries:
    """Generative k-root ping timeline for one probe.

    ``power_off`` and ``network_down`` may be any intervals (an
    :class:`~repro.util.intervals.IntervalSet`, say); the series holds
    their normalized members as
    :class:`~repro.util.intervals.IntervalArray`.
    """

    def __init__(self, probe_id: int, observed_start: float,
                 observed_end: float,
                 power_off: Iterable[Interval] | None = None,
                 network_down: Iterable[Interval] | None = None,
                 cadence: float = DEFAULT_CADENCE,
                 phase: float | None = None,
                 pings_per_round: int = 3) -> None:
        _window_checks(observed_start, observed_end, cadence)
        self.probe_id = probe_id
        self.observed_start = observed_start
        self.observed_end = observed_end
        self.power_off = IntervalArray.of(power_off)
        self.network_down = IntervalArray.of(network_down)
        self.cadence = cadence
        # Deterministic per-probe phase so probes are not tick-aligned.
        self.phase = (probe_id * 37.0) % cadence if phase is None else phase
        self.pings_per_round = pings_per_round

    def _tick_index(self, timestamp: float) -> int:
        """Index of the last tick at or before ``timestamp``."""
        return int((timestamp - self.observed_start - self.phase)
                   // self.cadence)

    def _tick_time(self, index: int) -> float:
        return self.observed_start + self.phase + index * self.cadence

    def _record_at(self, tick: float) -> KRootPingRecord | None:
        """Materialize the round at tick time, or None while powered off."""
        if self.power_off.contains(tick):
            return None
        outage = self.network_down.at(tick)
        if outage is not None:
            # All pings lost and the probe cannot sync: LTS grows from the
            # start of the outage.
            return KRootPingRecord(
                self.probe_id, tick, self.pings_per_round, 0,
                lts=HEALTHY_LTS + (tick - outage.start),
            )
        return KRootPingRecord(
            self.probe_id, tick, self.pings_per_round, self.pings_per_round,
            lts=HEALTHY_LTS,
        )

    def records(self, window_start: float,
                window_end: float) -> list[KRootPingRecord]:
        """Materialize all rounds with tick times in the window."""
        start = max(window_start, self.observed_start)
        end = min(window_end, self.observed_end)
        if end <= start:
            return []
        first = self._tick_index(start)
        if self._tick_time(first) < start:
            first += 1
        out: list[KRootPingRecord] = []
        index = first
        while True:
            tick = self._tick_time(index)
            if tick >= end:
                break
            record = self._record_at(tick)
            if record is not None:
                out.append(record)
            index += 1
        return out

    def iter_all_records(self) -> Iterator[KRootPingRecord]:
        """Iterate every round in the observation window (small sims only)."""
        index = 0
        while True:
            tick = self._tick_time(index)
            if tick >= self.observed_end:
                return
            if tick >= self.observed_start:
                record = self._record_at(tick)
                if record is not None:
                    yield record
            index += 1

    def ping_gap_around(self, timestamp: float,
                        max_scan: int = 10_000) -> tuple[float | None, float | None]:
        """Return timestamps of the reported rounds bracketing ``timestamp``.

        The paper estimates a power outage's duration as the difference
        between the successive ping rounds around the reboot; rounds during
        the power-off window are missing, so the bracketing rounds straddle
        the outage.  Scanning is bounded by ``max_scan`` ticks each way.
        """
        base = self._tick_index(timestamp)
        previous: float | None = None
        index = base
        for _ in range(max_scan):
            tick = self._tick_time(index)
            if tick < self.observed_start:
                break
            if tick <= timestamp and not self.power_off.contains(tick):
                previous = tick
                break
            index -= 1
        following: float | None = None
        index = base + 1
        for _ in range(max_scan):
            tick = self._tick_time(index)
            if tick >= self.observed_end:
                break
            if tick > timestamp and not self.power_off.contains(tick):
                following = tick
                break
            index += 1
        return previous, following


_NO_SPANS = np.zeros((0, 2), dtype=np.float64)


def _family(spans: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """``(offsets, starts, ends)`` of per-probe ``(n, 2)`` span arrays.

    Each probe's spans are normalized as an
    :class:`~repro.util.intervals.IntervalSet` would hold them; spans
    that already are (every sealed series and written bundle) pass
    through one vectorized check.
    """
    counts = np.array([len(probe) for probe in spans], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    flat = np.concatenate([_NO_SPANS] + spans)
    starts, ends = flat[:, 0].copy(), flat[:, 1].copy()
    bad = ~(ends > starts)
    follows = np.ones(len(starts), dtype=bool)
    follows[offsets[:-1][counts > 0]] = False
    bad[1:] |= follows[1:] & ~(starts[1:] > ends[:-1])
    if not bad.any():
        return offsets, starts, ends
    rows = set((np.searchsorted(offsets, np.flatnonzero(bad),
                                side="right") - 1).tolist())
    for row in rows:
        lo, hi = offsets[row], offsets[row + 1]
        normal = IntervalArray.of(
            Interval(start, end) for start, end
            in zip(starts[lo:hi].tolist(), ends[lo:hi].tolist()))
        spans[row] = np.stack((normal.starts, normal.ends), axis=1)
    return _family(spans)


class KRootColumns:
    """The columns of a :class:`KRootDataset`.

    One row per probe, in ascending id order: ``windows[row]`` holds the
    observed start and end, cadence and phase; the power-off and
    network-down intervals are CSR families, row ``r``'s members at
    ``[offsets[r], offsets[r + 1])`` of the ``starts``/``ends`` columns,
    normalized as an :class:`~repro.util.intervals.IntervalSet` holds
    them.  Pickles as its columns only.
    """

    COLUMNS = ("probe_ids", "windows", "power_offsets", "power_starts",
               "power_ends", "network_offsets", "network_starts",
               "network_ends")

    def __init__(self, probe_ids, windows, power_offsets, power_starts,
                 power_ends, network_offsets, network_starts,
                 network_ends) -> None:
        self.probe_ids = probe_ids
        self.windows = windows
        self.power_offsets = power_offsets
        self.power_starts = power_starts
        self.power_ends = power_ends
        self.network_offsets = network_offsets
        self.network_starts = network_starts
        self.network_ends = network_ends
        self._row: dict[int, int] = {
            pid: row for row, pid in enumerate(probe_ids.tolist())}

    @classmethod
    def from_staged(cls, staged: dict[int, tuple]) -> "KRootColumns":
        """Columns over staged ``(window, power spans, network spans)``."""
        probe_ids = sorted(staged)
        rows = [staged[pid] for pid in probe_ids]
        return cls(np.array(probe_ids, dtype=np.int64),
                   np.array([row[0] for row in rows],
                            dtype=np.float64).reshape(-1, 4),
                   *_family([row[1] for row in rows]),
                   *_family([row[2] for row in rows]))

    def __len__(self) -> int:
        return len(self.probe_ids)

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.COLUMNS}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def row_of(self, probe_id: int) -> int | None:
        """The probe's row, or None when absent."""
        return self._row.get(probe_id)

    def power_off(self, row: int) -> IntervalArray:
        """Row ``row``'s power-off intervals (views into the columns)."""
        lo, hi = self.power_offsets[row], self.power_offsets[row + 1]
        return IntervalArray(self.power_starts[lo:hi],
                             self.power_ends[lo:hi])

    def network_down(self, row: int) -> IntervalArray:
        """Row ``row``'s network-down intervals (views into the columns)."""
        lo, hi = self.network_offsets[row], self.network_offsets[row + 1]
        return IntervalArray(self.network_starts[lo:hi],
                             self.network_ends[lo:hi])

    def series(self, row: int) -> KRootSeries:
        """Row ``row`` as a :class:`KRootSeries` (no copy of the spans)."""
        start, end, cadence, phase = self.windows[row].tolist()
        return KRootSeries(int(self.probe_ids[row]), start, end,
                           power_off=self.power_off(row),
                           network_down=self.network_down(row),
                           cadence=cadence, phase=phase)

    def states(self) -> list[dict]:
        """Every row as the JSON state a bundle's ``kroot.json`` holds."""
        power = np.stack((self.power_starts, self.power_ends),
                         axis=1).tolist()
        network = np.stack((self.network_starts, self.network_ends),
                           axis=1).tolist()
        power_at = self.power_offsets.tolist()
        network_at = self.network_offsets.tolist()
        return [{
            "probe_id": pid, "start": start, "end": end,
            "cadence": cadence, "phase": phase,
            "power_off": power[power_at[row]:power_at[row + 1]],
            "network_down": network[network_at[row]:network_at[row + 1]],
        } for row, (pid, (start, end, cadence, phase)) in enumerate(zip(
            self.probe_ids.tolist(), self.windows.tolist()))]


class KRootDataset:
    """All probes' k-root series, held as :class:`KRootColumns`.

    Series added with :meth:`add_series` or :meth:`stage` are staged per
    probe; the first read seals them into columns, and staging after
    that unseals them again (the next read re-seals).  Sealing is not
    thread-safe: seal a dataset (any read does) before sharing it
    between threads.
    """

    def __init__(self) -> None:
        self._columns: KRootColumns | None = None
        #: Staged ``(window, power spans, network spans)`` by probe.
        self._staged: dict[int, tuple] = {}

    def add_series(self, series: KRootSeries) -> None:
        """Register a probe's series (one per probe)."""
        self.stage(series.probe_id, series.observed_start,
                   series.observed_end, series.power_off,
                   series.network_down, series.cadence, series.phase)

    def stage(self, probe_id: int, observed_start: float,
              observed_end: float, power_off, network_down,
              cadence: float = DEFAULT_CADENCE,
              phase: float | None = None) -> None:
        """Register one probe's series state (one per probe).

        ``power_off`` and ``network_down`` are intervals (as
        :class:`KRootSeries` takes them) or ``(n, 2)`` float64 arrays of
        ``[start, end)`` rows with ``start <= end``, in any order:
        sealing normalizes them.  Rejects what :class:`KRootSeries`
        rejects, then a probe already present.
        """
        _window_checks(observed_start, observed_end, cadence)
        if self._columns is not None:
            self._unseal()
        if probe_id in self._staged:
            raise DatasetError("probe %d already present" % probe_id)
        if phase is None:
            phase = (probe_id * 37.0) % cadence
        self._staged[probe_id] = (
            (observed_start, observed_end, cadence, phase),
            _spans(power_off), _spans(network_down))

    def columns(self) -> KRootColumns:
        """The sealed columns (sealing staged series first)."""
        if self._columns is None:
            self._columns = KRootColumns.from_staged(self._staged)
            self._staged = {}
        return self._columns

    def _unseal(self) -> None:
        col = self._columns
        self._staged = {
            pid: (tuple(col.windows[row].tolist()),
                  _spans(col.power_off(row)), _spans(col.network_down(row)))
            for row, pid in enumerate(col.probe_ids.tolist())}
        self._columns = None

    def probe_ids(self) -> list[int]:
        """All probe ids present, sorted."""
        return self.columns().probe_ids.tolist()

    def series(self, probe_id: int) -> KRootSeries:
        """Build the series of a probe; raises when absent."""
        col = self.columns()
        row = col.row_of(probe_id)
        if row is None:
            raise DatasetError("no k-root series for probe %d" % probe_id)
        return col.series(row)

    def has_probe(self, probe_id: int) -> bool:
        """True when the probe has a series."""
        return self.columns().row_of(probe_id) is not None

    def records(self, probe_id: int, window_start: float,
                window_end: float) -> list[KRootPingRecord]:
        """Materialized rounds for a probe inside a window."""
        return self.series(probe_id).records(window_start, window_end)


def _spans(intervals) -> np.ndarray:
    """Intervals as an ``(n, 2)`` float64 array of ``[start, end)`` rows."""
    if isinstance(intervals, np.ndarray):
        return intervals.reshape(-1, 2)
    if isinstance(intervals, IntervalArray):
        return np.stack((intervals.starts, intervals.ends), axis=1)
    return np.array([(member.start, member.end)
                     for member in intervals or ()],
                    dtype=np.float64).reshape(-1, 2)
