"""Vectorized stage kernels over the columnar Atlas views.

The hot per-probe kernels of the analysis: probe classification (stage
``filter``, including change extraction and the batched IP-to-AS
lookups), span extraction (stage ``spans``), uptime-reset detection
(stage ``reboots``) and gap association (stage ``gaps``).  Each must
produce output **bit-identical** to the per-record reference kernels
built from :mod:`repro.core.changes`, :mod:`repro.core.reboots` and
:mod:`repro.core.association` — the frozen oracle in ``tests/oracle.py``
and the differential suites in ``tests/core`` and ``tests/runtime`` pin
this.  The spans and gaps kernels emit their output as the columnar
maps of :mod:`repro.core.colartifact`, which decode to those records.

Exactness rules the implementations follow:

* every float that reaches a result is taken from the columns as is
  (bit-identical to the source records) or computed with the same
  scalar IEEE operation the record kernel used (elementwise float64
  add/sub equals the CPython scalar op);
* order-sensitive reductions (the 30-day connected-time threshold)
  use sequential ``sum`` over native floats, never pairwise numpy
  summation;
* numpy scalars never escape: indexes and values are converted with
  ``int()``/``tolist()`` before constructing result objects, so
  ``repr``-canonicalized digests cannot observe the backend.

The gap kernel avoids materializing ping records entirely: a
:class:`KRootOutageIndex` enumerates only the *all-lost* ticks of a
probe's generative series (the overwhelming majority of gaps touch
none, and classify as NONE straight from two ``searchsorted`` calls);
the few gaps near an outage or reboot fall back to an exact per-gap
path that reuses the record path's LTS-run rules and reboot bracketing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.atlas.kroot import DEFAULT_CADENCE, HEALTHY_LTS, KRootSeries
from repro.core import association
from repro.core.association import WINDOW_MARGIN, GapCause
from repro.core.changes import AddressChange
from repro.core.colartifact import (
    CAUSE_CODES,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarSpanMap,
)
from repro.core.filtering import (
    MULTIHOMED_MIN_RUNS,
    ProbeCategory,
    ProbeVerdict,
)
from repro.core.reboots import Reboot
from repro.net.ipv4 import TESTING_ADDRESS, IPv4Address
from repro.net.pfx2as import UNROUTED, IpToAsDataset

_TESTING_VALUE = TESTING_ADDRESS.value


def _strip_offset(col: ColumnarConnlog, lo: int, hi: int) -> int:
    """Start offset after the testing-entry strip (Section 3.3).

    The strip is a pure function of the raw entries — first entry is
    IPv4 and carries the RIPE testing address — so the spans and gaps
    kernels recompute it from the columns instead of needing the
    stripped entry lists a fat ``FilterReport`` would carry.
    """
    if (hi > lo and int(col.v6[lo]) == 0
            and int(col.addrs[lo]) == _TESTING_VALUE):
        return lo + 1
    return lo


# -- stage ``filter`` ---------------------------------------------------------

def classify_probes(col: ColumnarConnlog, archive, ip2as: IpToAsDataset,
                    min_connected: float,
                    probe_ids: Sequence[int] | None = None
                    ) -> dict[int, ProbeVerdict]:
    """Classify many probes (Table 2), in the precedence order documented
    in :mod:`repro.core.filtering`.

    Verdicts are slim: ``verdict.entries`` stays empty.  Change endpoints
    are built from the address column, one :class:`IPv4Address` per run.
    """
    if probe_ids is None:
        pids = col.probe_ids.tolist()
    else:
        pids = [int(pid) for pid in probe_ids]
    durations = col.durations_list()
    run_starts = col.run_starts()
    v6_cumsum = np.concatenate((np.zeros(1, dtype=np.int64),
                                np.cumsum(col.v6, dtype=np.int64)))
    verdicts: dict[int, ProbeVerdict] = {}
    pending: list[tuple[int, list, int]] = []
    lookup_addrs: list[int] = []
    lookup_times: list[float] = []
    for pid in pids:
        lo, hi = col.slice_of(pid)
        # Sequential native-float sum: the 30-day threshold compare must
        # see the exact value the record path's ordered sum produces.
        if sum(durations[lo:hi]) < min_connected:
            verdicts[pid] = ProbeVerdict(pid, ProbeCategory.SHORT_LIVED)
            continue
        v6_count = int(v6_cumsum[hi] - v6_cumsum[lo])
        if v6_count:
            category = (ProbeCategory.IPV6_ONLY if v6_count == hi - lo
                        else ProbeCategory.DUAL_STACK)
            verdicts[pid] = ProbeVerdict(pid, category)
            continue
        if archive.has_probe(pid) and archive.get(pid).has_filtered_tag:
            verdicts[pid] = ProbeVerdict(pid, ProbeCategory.TAGGED)
            continue
        run_values = col.addrs[lo:hi][run_starts[lo:hi]]
        if run_values.size:
            _, counts = np.unique(run_values, return_counts=True)
            if int(counts.max()) >= MULTIHOMED_MIN_RUNS:
                verdicts[pid] = ProbeVerdict(pid, ProbeCategory.MULTIHOMED)
                continue
        slo = _strip_offset(col, lo, hi)
        change_at = (np.nonzero(run_starts[slo + 1:hi])[0]
                     + (slo + 1)).tolist()
        if not change_at:
            category = (ProbeCategory.TESTING_ONLY if slo > lo
                        else ProbeCategory.NEVER_CHANGED)
            verdicts[pid] = ProbeVerdict(pid, category)
            continue
        values = col.addrs[[slo] + change_at].tolist()
        ends = col.ends[[at - 1 for at in change_at]].tolist()
        starts = col.starts[change_at].tolist()
        # Consecutive runs: each change's new address is the next one's old.
        runs = [IPv4Address(value) for value in values]
        changes = [AddressChange(pid, runs[k], runs[k + 1], ends[k],
                                 starts[k]) for k in range(len(change_at))]
        for k, start in enumerate(starts):
            lookup_addrs.append(values[k])
            lookup_times.append(start)
            lookup_addrs.append(values[k + 1])
            lookup_times.append(start)
        # Placeholder keeps dict order; the AS split fills it in below.
        verdicts[pid] = ProbeVerdict(pid, ProbeCategory.ANALYZABLE)
        pending.append((pid, changes, slo))

    if not pending:
        return verdicts
    asns, _ = ip2as.lookup(lookup_addrs, lookup_times)
    cursor = 0
    first_addrs: list[int] = []
    first_times: list[float] = []
    resolved: list[tuple[int, list, list, bool]] = []
    for pid, changes, slo in pending:
        span = asns[cursor:cursor + 2 * len(changes)]
        cursor += 2 * len(changes)
        old_asns = span[0::2]
        new_asns = span[1::2]
        crossed = ((old_asns != UNROUTED) & (new_asns != UNROUTED)
                   & (old_asns != new_asns))
        multi_as = bool(crossed.any())
        within = [change for change, crossing
                  in zip(changes, crossed.tolist()) if not crossing]
        resolved.append((pid, changes, within, multi_as))
        if not multi_as:
            # Analyzable probes are pure IPv4 here, so the first v4
            # entry the record kernel scans for is simply row ``slo``.
            first_addrs.append(int(col.addrs[slo]))
            first_times.append(float(col.starts[slo]))
    first_asns, _ = ip2as.lookup(first_addrs, first_times)
    first_cursor = 0
    for pid, changes, within, multi_as in resolved:
        asn = None
        if not multi_as:
            value = int(first_asns[first_cursor])
            first_cursor += 1
            asn = None if value == UNROUTED else value
        verdicts[pid] = ProbeVerdict(
            pid, ProbeCategory.ANALYZABLE, changes=changes,
            within_as_changes=within, multi_as=multi_as, asn=asn)
    return verdicts


# -- stage ``spans`` ----------------------------------------------------------

def _csr_offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (leading zero, then running totals) of ``counts``."""
    return np.concatenate((np.zeros(1, dtype=np.int64),
                           np.cumsum(counts, dtype=np.int64)))


def probe_spans_col(col: ColumnarConnlog, probe_ids: Sequence[int]
                    ) -> tuple[ColumnarSpanMap, ColumnarFloatMap]:
    """Address spans and known durations for a batch of probes.

    Only valid for analyzable (pure-IPv4) probes: runs of equal
    addresses merge into spans, the first/last span of a probe has an
    unknown boundary, interior spans are the known durations.  Every
    probe gets a span entry (possibly empty); only probes with at least
    one known duration get a durations entry.
    """
    pids = [int(pid) for pid in probe_ids]
    ids = np.asarray(pids, dtype=np.int64)
    bounds = [col.slice_of(pid) for pid in pids]
    slo = np.asarray([_strip_offset(col, lo, hi) for lo, hi in bounds],
                     dtype=np.int64)
    hi = np.asarray([bound[1] for bound in bounds], dtype=np.int64)
    lengths = hi - slo
    # Every kept row of the batch, probe after probe; a row heads a span
    # when it opens an address run or is its probe's first kept row.
    row_offsets = _csr_offsets(lengths)
    firsts = row_offsets[:-1]
    rows = (np.repeat(slo - firsts, lengths)
            + np.arange(row_offsets[-1], dtype=np.int64))
    is_head = col.run_starts()[rows]
    is_head[firsts[lengths > 0]] = True
    heads = rows[is_head]
    head_totals = _csr_offsets(is_head)
    span_counts = head_totals[row_offsets[1:]] - head_totals[firsts]
    span_offsets = _csr_offsets(span_counts)
    nonempty = span_counts > 0
    first_span = span_offsets[:-1][nonempty]
    last_span = span_offsets[1:][nonempty] - 1
    # A span ends on the row before the next head, or on its probe's
    # last row.
    tails = np.empty(len(heads), dtype=np.int64)
    tails[:-1] = heads[1:] - 1
    tails[last_span] = hi[nonempty] - 1
    complete_start = np.ones(len(heads), dtype=np.uint8)
    complete_start[first_span] = 0
    complete_end = np.ones(len(heads), dtype=np.uint8)
    complete_end[last_span] = 0
    starts = col.starts[heads]
    ends = col.ends[tails]
    spans = ColumnarSpanMap.from_arrays(
        ids, span_offsets, col.addrs[heads].astype(np.uint32), starts,
        ends, complete_start, complete_end)
    # Interior spans carry the known durations; the elementwise f64
    # subtract equals AddressSpan.duration exactly.
    interior = (complete_start & complete_end).astype(bool)
    known = np.maximum(span_counts - 2, 0)
    durations = ColumnarFloatMap.from_arrays(
        ids[known > 0], _csr_offsets(known[known > 0]),
        (ends - starts)[interior])
    return spans, durations


# -- stage ``reboots`` --------------------------------------------------------

def detect_reboots_col(colup: ColumnarUptime,
                       probe_ids: Sequence[int] | None = None
                       ) -> dict[int, list[Reboot]]:
    """:func:`~repro.core.reboots.detect_reboots` over a batch of probes.

    Every requested probe gets a key (possibly an empty list), matching
    :func:`~repro.core.reboots.detect_all_reboots`.
    """
    if probe_ids is None:
        pids = colup.probe_ids.tolist()
    else:
        pids = [int(pid) for pid in probe_ids]
    # Only the requested probes' rows, probe after probe; a row is a
    # reset when its counter is below the previous row's of its probe.
    bounds = np.array([colup.slice_of(pid) for pid in pids],
                      dtype=np.int64).reshape(-1, 2)
    lengths = bounds[:, 1] - bounds[:, 0]
    row_offsets = _csr_offsets(lengths)
    rows = (np.repeat(bounds[:, 0] - row_offsets[:-1], lengths)
            + np.arange(row_offsets[-1], dtype=np.int64))
    uptimes = colup.uptimes[rows]
    resets = np.zeros(len(rows), dtype=bool)
    resets[1:] = uptimes[1:] < uptimes[:-1]
    resets[row_offsets[:-1][lengths > 0]] = False
    at = np.flatnonzero(resets)
    hits = rows[at]
    # Elementwise f64 subtract matches UptimeRecord.boot_time exactly.
    boots = (colup.timestamps[hits] - colup.uptimes[hits]).tolist()
    stamps = colup.timestamps[hits].tolist()
    ends = np.searchsorted(at, row_offsets[1:]).tolist()
    out: dict[int, list[Reboot]] = {}
    first = 0
    for pid, last in zip(pids, ends):
        out[pid] = [Reboot(pid, boots[k], stamps[k])
                    for k in range(first, last)]
        first = last
    return out


# -- stage ``gaps`` -----------------------------------------------------------

def _tick_of(series: KRootSeries, index: int) -> float:
    # Must mirror KRootSeries._tick_time bit-for-bit (same expression).
    return series.observed_start + series.phase + index * series.cadence


def _first_tick_at_or_after(series: KRootSeries, timestamp: float) -> int:
    index = int((timestamp - series.observed_start - series.phase)
                // series.cadence)
    if _tick_of(series, index) < timestamp:
        index += 1
    return index


def _ticks_of(series: KRootSeries, indexes: np.ndarray) -> np.ndarray:
    """:func:`_tick_of` elementwise (the same IEEE operations)."""
    return (series.observed_start + series.phase) + indexes * series.cadence


def _first_ticks_at_or_after(series: KRootSeries,
                             timestamps: np.ndarray) -> np.ndarray:
    """:func:`_first_tick_at_or_after` elementwise (numpy's float floor
    division is Python's)."""
    index = np.floor_divide(timestamps - series.observed_start
                            - series.phase, series.cadence).astype(np.int64)
    return index + (_ticks_of(series, index) < timestamps)


def _live_tick_between(series: KRootSeries, left: int, right: int) -> bool:
    """A present (not powered-off) tick strictly between two tick indexes.

    Such a tick is a healthy reported round, which breaks an all-lost
    run; powered-off ticks are absent from the record stream and do not.
    """
    holes = series.power_off.gaps_within(_tick_of(series, left),
                                         _tick_of(series, right))
    for hole in holes:
        index = _first_tick_at_or_after(series, hole.start)
        if index <= left:
            index = left + 1
        if index < right and _tick_of(series, index) < hole.end:
            return True
    return False


class KRootOutageIndex:
    """All-lost tick timeline of one generative k-root series.

    ``times`` holds every tick the series would report as all-pings-lost
    (present, inside a network-down interval), with the LTS value the
    materialized record would carry.  ``run`` assigns consecutive ticks
    the same id exactly when no healthy reported round separates them —
    i.e. when they belong to one all-lost run of the record stream — and
    ``grow[k]`` is the earliest index of the strictly-growing LTS chain
    ending at ``k`` inside its run.  Any window ``[a, b)`` of a run is
    then strictly growing iff ``grow[b - 1] <= a``, which is all
    :func:`~repro.core.outages.detect_network_outages` needs: window
    truncation can shorten a run but never merge two (the separating
    healthy tick lies between in-window ticks, hence in-window).
    """

    __slots__ = ("times", "times_list", "lts", "run", "grow")

    def __init__(self, series: KRootSeries) -> None:
        down = series.network_down
        window_lo = np.maximum(down.starts, series.observed_start)
        window_hi = np.minimum(down.ends, series.observed_end)
        inside = window_hi > window_lo
        outage_starts = down.starts[inside]
        window_hi = window_hi[inside]
        # Each clipped outage's ticks, from its first tick at or after
        # the clipped start up to one past its stop: a superset of the
        # ticks before the stop, which the mask below keeps.
        first = _first_ticks_at_or_after(series, window_lo[inside])
        counts = _first_ticks_at_or_after(series, window_hi) + 2 - first
        owner = np.repeat(np.arange(len(first)), counts)
        ticks = (np.arange(len(owner), dtype=np.int64)
                 + np.repeat(first - _csr_offsets(counts)[:-1], counts))
        times = _ticks_of(series, ticks)
        keep = times < window_hi[owner]
        power = series.power_off
        if len(power):
            # Present ticks only: drop those a power-off interval covers.
            covering = np.searchsorted(power.starts, times,
                                       side="right") - 1
            keep &= ((covering < 0)
                     | (times >= power.ends[np.maximum(covering, 0)]))
        times, ticks = times[keep], ticks[keep]
        lts = HEALTHY_LTS + (times - outage_starts[owner[keep]])
        tick_list = ticks.tolist()
        joined = np.ones(len(times), dtype=bool)
        for k in np.flatnonzero(ticks[1:] != ticks[:-1] + 1).tolist():
            joined[k + 1] = not _live_tick_between(
                series, tick_list[k], tick_list[k + 1])
        # A run breaks where a live tick separates two lost ones; the LTS
        # chain also breaks where the LTS does not grow.
        positions = np.arange(len(times))
        grows = joined.copy()
        grows[1:] &= lts[1:] > lts[:-1]
        grows[:1] = False
        self.times = times
        self.times_list = times.tolist()
        self.lts = lts.tolist()
        self.run = np.cumsum(~joined).tolist()
        self.grow = np.maximum.accumulate(
            np.where(grows, 0, positions)).tolist() if len(times) else []


def _classify_slow(gap_start: float, gap_end: float,
                   index: KRootOutageIndex, j0: int, j1: int,
                   series: KRootSeries, ordered_reboots: list[Reboot],
                   i0: int, i1: int) -> tuple[int, float]:
    """Exact classification of one gap that is near lost ticks/reboots.

    Returns the gap's ``(cause code, outage duration)``.
    """
    run = index.run
    a = j0
    while a < j1:
        b = a + 1
        while b < j1 and run[b] == run[a]:
            b += 1
        if index.grow[b - 1] <= a and (b - a > 1
                                       or index.lts[a] > DEFAULT_CADENCE):
            start = index.times_list[a]
            end = index.times_list[b - 1]
            if start <= gap_end and gap_start <= end:
                return CAUSE_CODES[GapCause.NETWORK], end - start
        a = b
    for reboot in ordered_reboots[i0:i1]:
        # The record path's round-bracketing scan stays the oracle for
        # power outage durations; only ~a few thousand gaps reach it.
        missing, duration = association._missing_rounds_around(
            series, reboot.time)
        if missing:
            return CAUSE_CODES[GapCause.POWER], duration
    return CAUSE_CODES[GapCause.NONE], 0.0


def gap_events_col(col: ColumnarConnlog, kroot,
                   items: Sequence[tuple[int, list[Reboot]]]
                   ) -> ColumnarGapEventMap:
    """:func:`~repro.core.association.associate_probe_gaps` over a batch.

    ``items`` pairs each probe id with its firmware-filtered reboots,
    exactly like the gap shard payloads.  The fast path proves NONE for
    every gap whose corroboration window contains no all-lost tick and
    no reboot, by mask; the remainder go through :func:`_classify_slow`.
    """
    pids: list[int] = []
    counts: list[int] = []
    starts: list[np.ndarray] = []
    ends: list[np.ndarray] = []
    changes: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    outages: list[np.ndarray] = []
    for pid, reboots in items:
        pid = int(pid)
        pids.append(pid)
        series = kroot.series(pid)
        lo, hi = col.slice_of(pid)
        slo = _strip_offset(col, lo, hi)
        count = max(hi - slo - 1, 0)
        counts.append(count)
        if not count:
            continue
        gap_starts = col.ends[slo:hi - 1]
        gap_ends = col.starts[slo + 1:hi]
        starts.append(gap_starts)
        ends.append(gap_ends)
        changes.append((col.v6[slo:hi - 1] == 0) & (col.v6[slo + 1:hi] == 0)
                       & (col.addrs[slo:hi - 1] != col.addrs[slo + 1:hi]))
        index = KRootOutageIndex(series)
        window_lo = np.maximum(gap_starts - WINDOW_MARGIN,
                               series.observed_start)
        window_hi = np.minimum(gap_ends + WINDOW_MARGIN,
                               series.observed_end)
        lost_lo = np.searchsorted(index.times, window_lo, side="left")
        lost_hi = np.searchsorted(index.times, window_hi, side="left")
        ordered = sorted(reboots, key=lambda reboot: reboot.time)
        if ordered:
            reboot_times = np.asarray(
                [reboot.time for reboot in ordered], dtype=np.float64)
            rb_lo = np.searchsorted(reboot_times,
                                    gap_starts - WINDOW_MARGIN, side="left")
            rb_hi = np.searchsorted(reboot_times, gap_ends, side="right")
        else:
            rb_lo = rb_hi = np.zeros(count, dtype=np.int64)
        cause = np.full(count, CAUSE_CODES[GapCause.NONE], dtype=np.uint8)
        outage = np.zeros(count, dtype=np.float64)
        for k in np.flatnonzero((lost_hi > lost_lo)
                                | (rb_hi > rb_lo)).tolist():
            cause[k], outage[k] = _classify_slow(
                float(gap_starts[k]), float(gap_ends[k]), index,
                int(lost_lo[k]), int(max(lost_lo[k], lost_hi[k])), series,
                ordered, int(rb_lo[k]), int(max(rb_lo[k], rb_hi[k])))
        codes.append(cause)
        outages.append(outage)

    def joined(arrays: list[np.ndarray], dtype) -> np.ndarray:
        return (np.concatenate(arrays).astype(dtype, copy=False) if arrays
                else np.zeros(0, dtype=dtype))

    return ColumnarGapEventMap.from_arrays(
        np.asarray(pids, dtype=np.int64),
        _csr_offsets(np.asarray(counts, dtype=np.int64)),
        joined(starts, np.float64), joined(ends, np.float64),
        joined(codes, np.uint8), joined(changes, np.uint8),
        joined(outages, np.float64))
