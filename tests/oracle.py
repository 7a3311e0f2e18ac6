"""The frozen record-kernel oracle for the columnar stage kernels.

These are the per-record implementations of the four hot stages
(``filter``, ``spans``, ``reboots``, ``gaps``) the analysis ran before the
vectorized kernels of :mod:`repro.core.colkernels` replaced them.  They
walk the record containers one ``ConnectionLogEntry`` at a time and are
deliberately simple, so they serve as the reference the production
kernels are pinned bit-identical to: the differential suites compare
verdicts, spans, reboots, gap events and whole-run digests.  The record
versions of the stage ``stats`` tally, the Figure 6 ``reboots_per_day``
count and the churn extension's ``daily_active_addresses`` live here too.
So do the whole-dataset reboot scan (:func:`detect_all_reboots`), the
per-gap classifier (:func:`classify_gap`, :func:`associate_probe_gaps`)
and :func:`canonical_payload`, the recursive record-by-record rendering
the production ``results_digest`` must reproduce byte for byte.

The ingest section holds the line-by-line connection-log, SOS-uptime and
pfx2as readers the vectorized readers replaced: the same per-line parsers
(``_parse_line``), driven one line at a time, with the per-record REPAIR
assembly, building the containers through ``add``.  It also holds the
k-root loader the streaming one replaced: ``json.loads`` of the whole
file, then one ``IntervalSet`` per interval list
(:func:`load_kroot_states`).

The prefix section holds the binary radix trie that answered every
longest-prefix match before the pfx2as snapshots became sorted arrays
(:class:`PrefixTrie`), an IP-to-AS view that answers through tries built
from a dataset's snapshots (:class:`TrieIpToAs`), and the per-change
Table 7 and administrative-renumbering tallies the batched versions in
:mod:`repro.core.prefixes` and :mod:`repro.core.churn` replaced.

Nothing in ``src/`` imports this module.  Keep it frozen: a change here
changes what "correct" means for the production kernels.
"""

from __future__ import annotations

import enum
import json
from collections import defaultdict
from dataclasses import dataclass, fields, is_dataclass
from typing import Generic, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.atlas.archive import ProbeArchive
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootDataset
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ConnectionLogEntry
from repro.atlas.kroot import KRootSeries
from repro.core.association import (
    WINDOW_MARGIN,
    GapCause,
    GapEvent,
    _missing_rounds_around,
)
from repro.core.changes import (
    AddressChange,
    AddressSpan,
    extract_changes,
    extract_spans,
    known_durations,
    strip_testing_entry,
)
from repro.core.filtering import (
    MULTIHOMED_MIN_RUNS,
    FilterReport,
    ProbeCategory,
    ProbeVerdict,
    report_from_verdicts,
)
from repro.core.pipeline import (
    AnalysisResults,
    default_min_connected,
    stage_changes,
    stage_v3,
)
from repro.atlas.sosuptime import UPTIME_WRAP_MODULUS
from repro.atlas.types import UptimeRecord
from repro.core.conditional import ProbeOutageStats, probe_outage_stats
from repro.core.outages import detect_network_outages
from repro.core.reboots import (
    Reboot,
    detect_firmware_days,
    detect_reboots,
    firmware_filtered_reboots,
)
from repro.errors import DatasetError, ParseError
from repro.core.churn import AdministrativeRenumbering
from repro.core.prefixes import PrefixChangeRow
from repro.net.ipv4 import TESTING_ADDRESS, IPv4Address, IPv4Prefix
from repro.net.pfx2as import DATASET_NAME as PFX2AS
from repro.net.pfx2as import IpToAsDataset, Pfx2AsSnapshot
from repro.util.ingest import IngestReport, ReadPolicy, format_line_error
from repro.util.ordering import ordered
from repro.util.stats import fraction
from repro.util.fingerprint import hash_text
from repro.util.intervals import Interval, IntervalSet
from repro.util.timeutil import DAY, YEAR_2015_START, day_of_year


# -- stage ``filter`` ---------------------------------------------------------

def looks_multihomed(addresses: Sequence[IPv4Address],
                     min_runs: int = MULTIHOMED_MIN_RUNS) -> bool:
    """Heuristic from Section 3.2: one address recurs in many separate runs.

    A probe alternating between a fixed and a changing address produces a
    run of the fixed address between every pair of dynamic connections.
    """
    runs: dict[int, int] = {}
    previous: int | None = None
    for address in addresses:
        if address.value != previous:
            runs[address.value] = runs.get(address.value, 0) + 1
            previous = address.value
    return bool(runs) and max(runs.values()) >= min_runs


class ProbeFilter:
    """Runs the Table 2 classification over a connection log."""

    def __init__(self, connlog: ConnectionLog, archive: ProbeArchive,
                 ip2as: IpToAsDataset,
                 min_connected: float = 30 * DAY) -> None:
        self._connlog = connlog
        self._archive = archive
        self._ip2as = ip2as
        self._min_connected = min_connected

    def run(self) -> FilterReport:
        """Classify every probe in the log."""
        verdicts = {probe_id: self.classify(probe_id)
                    for probe_id in self._connlog.probe_ids()}
        return report_from_verdicts(verdicts)

    def classify(self, probe_id: int) -> ProbeVerdict:
        """Classify one probe, in the precedence of repro.core.filtering."""
        entries = self._connlog.entries(probe_id)
        if self._connlog.total_connected_time(probe_id) < self._min_connected:
            return ProbeVerdict(probe_id, ProbeCategory.SHORT_LIVED)

        has_v6 = any(e.is_ipv6 for e in entries)
        has_v4 = any(not e.is_ipv6 for e in entries)
        if has_v6 and not has_v4:
            return ProbeVerdict(probe_id, ProbeCategory.IPV6_ONLY)
        if has_v6:
            return ProbeVerdict(probe_id, ProbeCategory.DUAL_STACK)

        if (self._archive.has_probe(probe_id)
                and self._archive.get(probe_id).has_filtered_tag):
            return ProbeVerdict(probe_id, ProbeCategory.TAGGED)

        if looks_multihomed([e.address for e in entries]):
            return ProbeVerdict(probe_id, ProbeCategory.MULTIHOMED)

        entries, had_testing = strip_testing_entry(entries, TESTING_ADDRESS)
        changes = extract_changes(entries)
        if not changes:
            category = (ProbeCategory.TESTING_ONLY if had_testing
                        else ProbeCategory.NEVER_CHANGED)
            return ProbeVerdict(probe_id, category, entries=entries)

        within, multi_as, asn = self._split_by_as(changes, entries)
        return ProbeVerdict(
            probe_id, ProbeCategory.ANALYZABLE, entries=entries,
            changes=changes, within_as_changes=within, multi_as=multi_as,
            asn=asn)

    def _split_by_as(self, changes: list[AddressChange],
                     entries: list[ConnectionLogEntry]
                     ) -> tuple[list[AddressChange], bool, int | None]:
        """Partition changes into within-AS and cross-AS (Section 3.3)."""
        within: list[AddressChange] = []
        multi_as = False
        for change in changes:
            old_asn = self._ip2as.origin_asn(change.old_address, change.time)
            new_asn = self._ip2as.origin_asn(change.new_address, change.time)
            if old_asn is not None and new_asn is not None \
                    and old_asn != new_asn:
                multi_as = True
            else:
                within.append(change)
        asn: int | None = None
        if not multi_as:
            first_v4 = next((e for e in entries if not e.is_ipv6), None)
            if first_v4 is not None:
                asn = self._ip2as.origin_asn(first_v4.address, first_v4.start)
        return within, multi_as, asn


#: Categories whose verdicts carry entry lists; every other category
#: stores ``entries=[]`` by construction.
_ENTRY_CATEGORIES = (ProbeCategory.TESTING_ONLY, ProbeCategory.NEVER_CHANGED,
                     ProbeCategory.ANALYZABLE)


def restore_entries(report: FilterReport,
                    connlog: ConnectionLog) -> FilterReport:
    """Rebuild the entry lists a slim (entry-stripped) report dropped.

    A verdict's entries are always ``strip_testing_entry`` of the probe's
    connection-log entries, so a slim report plus the log reconstructs
    the fat report the record kernels read.  Mutates ``report`` in place
    and returns it.
    """
    for verdict in report.verdicts.values():
        if verdict.category in _ENTRY_CATEGORIES and not verdict.entries:
            verdict.entries, _ = strip_testing_entry(
                connlog.entries(verdict.probe_id), TESTING_ADDRESS)
    return report


def stage_filter(connlog: ConnectionLog, archive: ProbeArchive,
                 ip2as: IpToAsDataset,
                 min_connected: float = 30 * DAY) -> FilterReport:
    """Stage ``filter``: classify every probe (Table 2)."""
    return ProbeFilter(connlog, archive, ip2as,
                       min_connected=min_connected).run()


# -- stage ``spans`` ----------------------------------------------------------

def probe_spans(entries) -> tuple[list[AddressSpan], list[float]]:
    """Per-probe kernel for stage ``spans``: spans and known durations."""
    spans = extract_spans(entries)
    return spans, known_durations(spans)


def stage_spans(filter_report: FilterReport
                ) -> tuple[dict[int, list[AddressSpan]],
                           dict[int, list[float]]]:
    """Stage ``spans``: address spans/durations per geography probe."""
    spans_by_probe: dict[int, list[AddressSpan]] = {}
    durations_by_probe: dict[int, list[float]] = {}
    for probe_id in filter_report.analyzable_geo():
        spans, durations = probe_spans(filter_report.verdicts[probe_id].entries)
        spans_by_probe[probe_id] = spans
        if durations:
            durations_by_probe[probe_id] = durations
    return spans_by_probe, durations_by_probe


# -- stage ``reboots`` --------------------------------------------------------

def reboots_per_day(reboots_by_probe: Mapping[int, Sequence[Reboot]]
                    ) -> dict[int, int]:
    """Unique probes rebooting on each day of the year (Figure 6)."""
    probes_by_day: dict[int, set[int]] = defaultdict(set)
    for probe_id, reboots in reboots_by_probe.items():
        for reboot in reboots:
            probes_by_day[day_of_year(reboot.time)].add(probe_id)
    return {day: len(probes) for day, probes in sorted(probes_by_day.items())}


def aggregate_reboots(raw_reboots: Mapping[int, list]
                      ) -> tuple[dict[int, int], list[int], dict[int, list]]:
    """The reboot barrier over the record :func:`reboots_per_day`."""
    day_counts = reboots_per_day(raw_reboots)
    firmware_days = detect_firmware_days(day_counts)
    campaign_times = [YEAR_2015_START + (day - 1) * DAY
                      for day in firmware_days]
    filtered = firmware_filtered_reboots(raw_reboots, campaign_times)
    return day_counts, firmware_days, filtered


def detect_all_reboots(dataset: UptimeDataset) -> dict[int, list[Reboot]]:
    """Reboots per probe over the whole dataset."""
    return {probe_id: detect_reboots(dataset.records(probe_id))
            for probe_id in dataset.probe_ids()}


def stage_reboots(uptime: UptimeDataset
                  ) -> tuple[dict[int, int], list[int], dict[int, list]]:
    """Stage ``reboots``: day counts, firmware days, filtered reboots."""
    return aggregate_reboots(detect_all_reboots(uptime))


# -- stage ``gaps`` -----------------------------------------------------------

def classify_gap(previous: ConnectionLogEntry, current: ConnectionLogEntry,
                 series: KRootSeries,
                 reboots: Sequence[Reboot]) -> GapEvent:
    """Attribute one gap using the paper's priority order."""
    gap_start = previous.end
    gap_end = current.start
    address_changed = (not previous.is_ipv6 and not current.is_ipv6
                       and previous.address != current.address)

    records = series.records(gap_start - WINDOW_MARGIN,
                             gap_end + WINDOW_MARGIN)
    outages = detect_network_outages(records)
    for outage in outages:
        if outage.overlaps(gap_start, gap_end):
            return GapEvent(previous.probe_id, gap_start, gap_end,
                            GapCause.NETWORK, address_changed,
                            outage.duration)

    for reboot in reboots:
        if gap_start - WINDOW_MARGIN <= reboot.time <= gap_end:
            missing, duration = _missing_rounds_around(series, reboot.time)
            if missing:
                return GapEvent(previous.probe_id, gap_start, gap_end,
                                GapCause.POWER, address_changed, duration)

    return GapEvent(previous.probe_id, gap_start, gap_end, GapCause.NONE,
                    address_changed, 0.0)


def associate_probe_gaps(entries: Sequence[ConnectionLogEntry],
                         series: KRootSeries,
                         reboots: Sequence[Reboot]) -> list[GapEvent]:
    """Classify every gap in one probe's connection log.

    ``reboots`` should already be firmware-filtered (Section 5.2).
    Gaps bounded by IPv6 connections are classified, but their
    address-change flag is False since no IPv4 comparison exists.
    """
    events: list[GapEvent] = []
    ordered_reboots = sorted(reboots, key=lambda r: r.time)
    for previous, current in zip(entries, entries[1:]):
        events.append(classify_gap(previous, current, series,
                                   ordered_reboots))
    return events


def probe_gap_events(entries, series, reboots) -> list[GapEvent]:
    """Per-probe kernel for stage ``gaps``: classify one probe's gaps."""
    return associate_probe_gaps(entries, series, reboots)


def stage_gaps(filter_report: FilterReport, kroot: KRootDataset,
               filtered_reboots: Mapping[int, list]
               ) -> dict[int, list[GapEvent]]:
    """Stage ``gaps``: associate connection gaps with observed outages."""
    gap_events_by_probe: dict[int, list[GapEvent]] = {}
    for probe_id in ordered(filter_report.analyzable_as()):
        if not kroot.has_probe(probe_id):
            continue
        gap_events_by_probe[probe_id] = probe_gap_events(
            filter_report.verdicts[probe_id].entries, kroot.series(probe_id),
            filtered_reboots.get(probe_id, []))
    return gap_events_by_probe


# -- stage ``stats`` and the churn extension -----------------------------------

def stage_stats(gap_events_by_probe: Mapping[int, list[GapEvent]]
                ) -> dict[int, ProbeOutageStats]:
    """Stage ``stats``: per-probe conditional outage statistics."""
    return {probe_id: probe_outage_stats(probe_id, events)
            for probe_id, events in sorted(gap_events_by_probe.items())}


def daily_active_addresses(spans_by_probe: Mapping[int, Sequence[AddressSpan]],
                           start: float, end: float
                           ) -> dict[int, set[int]]:
    """Per-span reference for
    :func:`repro.core.churn.daily_active_addresses`."""
    total_days = int((end - start) // DAY) + 1
    active: dict[int, set[int]] = defaultdict(set)
    for spans in spans_by_probe.values():
        for span in spans:
            first = max(0, int((span.start - start) // DAY))
            last = min(total_days - 1, int((span.end - start) // DAY))
            for day in range(first, last + 1):
                active[day].add(span.address.value)
    return dict(active)


# -- whole runs ---------------------------------------------------------------

def oracle_results(bundle, min_connected: float | None = None
                   ) -> AnalysisResults:
    """The full analysis of a loaded bundle through the record kernels.

    The non-hot stages (``changes``, ``stats``, ``v3``) are shared with
    production: they have only one implementation.
    """
    if min_connected is None:
        min_connected = default_min_connected(bundle.start, bundle.end)
    filter_report = stage_filter(bundle.connlog, bundle.archive,
                                 bundle.ip2as, min_connected=min_connected)
    spans_by_probe, durations_by_probe = stage_spans(filter_report)
    changes_by_probe, asn_by_probe = stage_changes(filter_report)
    day_counts, firmware_days, filtered_reboots = stage_reboots(
        bundle.uptime)
    gap_events_by_probe = stage_gaps(filter_report, bundle.kroot,
                                     filtered_reboots)
    return AnalysisResults(
        filter_report=filter_report,
        archive=bundle.archive,
        ip2as=bundle.ip2as,
        as_names=dict(bundle.as_names),
        as_countries=dict(bundle.as_countries),
        spans_by_probe=spans_by_probe,
        durations_by_probe=durations_by_probe,
        changes_by_probe=changes_by_probe,
        asn_by_probe=asn_by_probe,
        gap_events_by_probe=gap_events_by_probe,
        stats_by_probe=stage_stats(gap_events_by_probe),
        reboot_day_counts=day_counts,
        firmware_days=firmware_days,
        _v3_probes=stage_v3(asn_by_probe, bundle.archive),
    )


#: Types rendered by ``repr`` (exact-type match, so subclasses such as
#: ``IntEnum`` members still reach the general path).
_SCALARS = frozenset({float, int, str, bool, type(None)})


def canon(value: object) -> str:
    """Deterministic, type-tagged rendering of one value, recursively.

    The whole-payload rendering ``results_digest`` hashed before it
    formatted rows from columns; the production digest must produce
    exactly these bytes.
    """
    kind = type(value)
    # repr() of float is the shortest exact round-trip representation, so
    # any bit-level numeric divergence changes the digest.
    if kind in _SCALARS:
        return repr(value)
    if kind is list or kind is tuple:
        return "[%s]" % ",".join([canon(item) for item in value])
    if is_dataclass(value):
        return "%s(%s)" % (kind.__name__, ",".join(
            ["%s=%s" % (item.name, canon(getattr(value, item.name)))
             for item in fields(value)]))
    if isinstance(value, Mapping):
        return "{%s}" % ",".join(["%s:%s" % (canon(key), canon(value[key]))
                                  for key in sorted(value)])
    if isinstance(value, enum.Enum):
        return "%s.%s" % (kind.__name__, value.name)
    if isinstance(value, (set, frozenset)):
        return "{%s}" % ",".join([canon(item) for item in sorted(value)])
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join([canon(item) for item in value])
    return repr(value)


def canonical_payload(results: AnalysisResults) -> str:
    """The canonical text ``results_digest`` hashes, rendered record by
    record from any results object (record dicts or columnar maps)."""
    return canon({
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


def oracle_digest(bundle) -> str:
    """The digest of :func:`oracle_results`, rendered by :func:`canon`."""
    return hash_text(canonical_payload(oracle_results(bundle)))


# -- ingest -------------------------------------------------------------------

def read_connlog_lines(stream, policy: ReadPolicy = ReadPolicy.STRICT,
                       report: IngestReport | None = None,
                       source: str | None = None) -> ConnectionLog:
    """Line-by-line reference for :meth:`ConnectionLog.read`."""
    source = source or getattr(stream, "name", "<connlog>")
    report = report if report is not None else IngestReport()
    rows: list[tuple[int, ConnectionLogEntry]] = []
    for line_number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            rows.append((line_number, ConnectionLog._parse_line(text)))
        except ParseError as error:
            if policy is ReadPolicy.STRICT:
                raise ParseError(
                    format_line_error(source, line_number, error)
                ) from None
            report.quarantined("connlog", source, line_number, str(error))
    if policy is ReadPolicy.STRICT:
        log = ConnectionLog()
        for line_number, entry in rows:
            try:
                log.add(entry)
            except DatasetError as error:
                raise DatasetError(
                    format_line_error(source, line_number, error)
                ) from None
            report.parsed("connlog")
        return log
    by_probe: dict[int, list[tuple[int, ConnectionLogEntry]]] = {}
    for line_number, entry in rows:
        by_probe.setdefault(entry.probe_id, []).append((line_number, entry))
    log = ConnectionLog()
    for probe_id in sorted(by_probe):
        items = by_probe[probe_id]
        ordered_items = sorted(items, key=lambda item: (item[1].start,
                                                        item[1].end))
        # A record is displaced when sorting moved it; compare the
        # original file order with the sorted order positionally.
        displaced = {ordered_items[i][0] for i in range(len(items))
                     if ordered_items[i][0] != items[i][0]}
        last_end = float("-inf")
        for line_number, entry in ordered_items:
            if entry.start < last_end:
                report.quarantined(
                    "connlog", source, line_number,
                    "probe %d: connection starting %s overlaps the "
                    "previous one" % (probe_id, entry.start))
                continue
            log.add(entry)
            last_end = entry.end
            if line_number in displaced:
                report.repaired(
                    "connlog", source, line_number,
                    "probe %d: out-of-order entry re-sorted" % probe_id)
            else:
                report.parsed("connlog")
    return log


def read_uptime_lines(stream, policy: ReadPolicy = ReadPolicy.STRICT,
                      report: IngestReport | None = None,
                      source: str | None = None) -> UptimeDataset:
    """Line-by-line reference for :meth:`UptimeDataset.read`."""
    source = source or getattr(stream, "name", "<uptime>")
    report = report if report is not None else IngestReport()
    rows: list[tuple[int, UptimeRecord]] = []
    for line_number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            record = UptimeDataset._parse_line(text)
        except ParseError as error:
            if policy is ReadPolicy.STRICT:
                raise ParseError(
                    format_line_error(source, line_number, error)
                ) from None
            report.quarantined("uptime", source, line_number, str(error))
            continue
        if record.uptime >= UPTIME_WRAP_MODULUS:
            if policy is ReadPolicy.STRICT:
                raise ParseError(format_line_error(
                    source, line_number,
                    "uptime counter %r beyond the 32-bit wrap"
                    % record.uptime))
            record = UptimeRecord(record.probe_id, record.timestamp,
                                  record.uptime % UPTIME_WRAP_MODULUS)
            report.repaired("uptime", source, line_number,
                            "wrapped uptime counter reduced modulo 2**32")
            rows.append((-line_number, record))
            continue
        rows.append((line_number, record))
    if policy is ReadPolicy.STRICT:
        dataset = UptimeDataset()
        for line_number, record in rows:
            try:
                dataset.add(record)
            except DatasetError as error:
                raise DatasetError(
                    format_line_error(source, line_number, error)
                ) from None
            report.parsed("uptime")
        return dataset
    by_probe: dict[int, list[tuple[int, UptimeRecord]]] = {}
    for line_number, record in rows:
        by_probe.setdefault(record.probe_id, []).append((line_number,
                                                         record))
    dataset = UptimeDataset()
    for probe_id in sorted(by_probe):
        items = by_probe[probe_id]
        ordered_items = sorted(items, key=lambda item: item[1].timestamp)
        displaced = {ordered_items[i][0] for i in range(len(items))
                     if ordered_items[i][0] != items[i][0]}
        for line_number, record in ordered_items:
            dataset.add(record)
            if line_number < 0:
                continue  # already accounted as a counter-wrap repair
            if line_number in displaced:
                report.repaired(
                    "uptime", source, line_number,
                    "probe %d: out-of-order record re-sorted" % probe_id)
            else:
                report.parsed("uptime")
    return dataset


def read_pfx2as_lines(stream, policy: ReadPolicy = ReadPolicy.STRICT,
                      report: IngestReport | None = None,
                      source: str | None = None) -> Pfx2AsSnapshot:
    """Line-by-line reference for :meth:`Pfx2AsSnapshot.read`."""
    source = source or getattr(stream, "name", "<pfx2as>")
    report = report if report is not None else IngestReport()
    snapshot = Pfx2AsSnapshot()
    for line_number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            snapshot.add(Pfx2AsSnapshot._parse_line(text))
        except ParseError as error:
            if policy is ReadPolicy.STRICT:
                raise ParseError(
                    format_line_error(source, line_number, error)
                ) from None
            report.quarantined(PFX2AS, source, line_number, str(error))
            continue
        report.parsed(PFX2AS)
    return snapshot


def _kroot_state(state, source: str, index: int) -> tuple:
    """One series state as ``(probe id, start, end, cadence, phase,
    power_off, network_down)`` with the interval lists as IntervalSets,
    raising as the loader did while building a ``KRootSeries``."""
    try:
        fields = (
            int(state["probe_id"]), float(state["start"]),
            float(state["end"]),
            IntervalSet(Interval(a, b) for a, b in state["power_off"]),
            IntervalSet(Interval(a, b) for a, b in state["network_down"]),
            float(state["cadence"]), float(state["phase"]))
    except (KeyError, TypeError, ValueError) as error:
        raise ParseError(format_line_error(
            source, index, "malformed k-root series state: %s" % error
        )) from None
    probe_id, start, end, power_off, network_down, cadence, phase = fields
    if end <= start:
        raise DatasetError("observation window is empty")
    if cadence <= 0:
        raise DatasetError("cadence must be positive")
    return probe_id, start, end, cadence, phase, power_off, network_down


def load_kroot_states(path, policy: ReadPolicy = ReadPolicy.STRICT,
                      report: IngestReport | None = None) -> dict:
    """Whole-text reference for ``repro.sim.io._load_kroot``.

    Returns the accepted states by probe id (see :func:`_kroot_state`).
    """
    report = report if report is not None else IngestReport()
    series: dict[int, tuple] = {}
    source = str(path)
    try:
        states = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        if policy is ReadPolicy.STRICT:
            raise DatasetError("%s: malformed JSON: %s"
                               % (source, error)) from None
        report.note("kroot", source,
                    "malformed JSON (%s); continuing with an empty "
                    "dataset" % error)
        return series
    if not isinstance(states, list):
        raise DatasetError("%s: expected a JSON array of series states"
                           % source)
    for index, state in enumerate(states, start=1):
        try:
            fields = _kroot_state(state, source, index)
            if fields[0] in series:
                raise DatasetError("probe %d already present" % fields[0])
        except (ParseError, DatasetError) as error:
            if policy is ReadPolicy.STRICT:
                raise
            report.quarantined("kroot", source, index, str(error))
            continue
        series[fields[0]] = fields[1:]
        report.parsed("kroot")
    return series


# -- longest-prefix match -----------------------------------------------------

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list["_Node[V] | None"] = [None, None]
        self.value: V | None = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Maps :class:`IPv4Prefix` keys to values with longest-prefix lookup.

    A binary radix trie: one node per prefix bit along inserted paths,
    so a lookup takes at most 32 steps.
    """

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert or replace the value for ``prefix``."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def exact(self, prefix: IPv4Prefix) -> V | None:
        """Return the value stored exactly at ``prefix``, or None."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node.value if node.has_value else None

    def longest_match(self, address: IPv4Address
                      ) -> tuple[IPv4Prefix, V] | None:
        """Return the most specific ``(prefix, value)`` covering ``address``."""
        node = self._root
        best: tuple[int, V] | None = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[arg-type]
        for depth in range(32):
            bit = (address.value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth + 1, node.value)  # type: ignore[arg-type]
        if best is None:
            return None
        length, value = best
        return IPv4Prefix.containing(address, length), value

    def lookup(self, address: IPv4Address) -> V | None:
        """Return the value of the longest matching prefix, or None."""
        match = self.longest_match(address)
        return None if match is None else match[1]

    def items(self) -> Iterator[tuple[IPv4Prefix, V]]:
        """Yield all ``(prefix, value)`` pairs in address order."""

        def walk(node: _Node[V], network: int, depth: int
                 ) -> Iterator[tuple[IPv4Prefix, V]]:
            if node.has_value:
                yield IPv4Prefix(network, depth), node.value  # type: ignore[misc]
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    child_network = network | (bit << (31 - depth))
                    yield from walk(child, child_network, depth + 1)

        yield from walk(self._root, 0, 0)


class TrieIpToAs:
    """An :class:`IpToAsDataset` answering through per-snapshot tries.

    Months resolve through the dataset's own ``snapshot_for`` (missing
    months and fallback included); the match itself is the trie's.
    """

    def __init__(self, ip2as: IpToAsDataset) -> None:
        self._ip2as = ip2as
        self._tries: dict[int, PrefixTrie[int]] = {}

    def _trie(self, timestamp: float) -> PrefixTrie[int]:
        snapshot = self._ip2as.snapshot_for(timestamp)
        trie = self._tries.get(id(snapshot))
        if trie is None:
            trie = self._tries[id(snapshot)] = PrefixTrie()
            for mapping in snapshot.mappings():
                trie.insert(mapping.prefix, mapping.asn)
        return trie

    def origin_asn(self, address: IPv4Address, timestamp: float) -> int | None:
        return self._trie(timestamp).lookup(address)

    def bgp_prefix(self, address: IPv4Address,
                   timestamp: float) -> IPv4Prefix | None:
        match = self._trie(timestamp).longest_match(address)
        return None if match is None else match[0]


# -- Table 7 and administrative renumbering, one change at a time --------------

@dataclass(frozen=True)
class PrefixComparison:
    """Prefix relationships between an old and new address."""

    change: AddressChange
    diff_bgp: bool | None  # None when either address is unrouted
    diff_slash16: bool
    diff_slash8: bool


def compare_change(change: AddressChange, ip2as) -> PrefixComparison:
    """Classify one change at BGP / /16 / /8 granularity."""
    old_prefix = ip2as.bgp_prefix(change.old_address, change.time)
    new_prefix = ip2as.bgp_prefix(change.new_address, change.time)
    diff_bgp: bool | None
    if old_prefix is None or new_prefix is None:
        diff_bgp = None
    else:
        diff_bgp = old_prefix != new_prefix
    return PrefixComparison(
        change=change,
        diff_bgp=diff_bgp,
        diff_slash16=change.old_address.slash16() != change.new_address.slash16(),
        diff_slash8=change.old_address.slash8() != change.new_address.slash8(),
    )


def _tally(name: str, asn: int | None, country: str,
           comparisons: Sequence[PrefixComparison]) -> PrefixChangeRow:
    return PrefixChangeRow(
        as_name=name, asn=asn, country=country,
        total_changes=len(comparisons),
        diff_bgp=sum(1 for c in comparisons if c.diff_bgp),
        diff_slash16=sum(1 for c in comparisons if c.diff_slash16),
        diff_slash8=sum(1 for c in comparisons if c.diff_slash8),
    )


def prefix_change_table(changes_by_probe: Mapping[int, Iterable[AddressChange]],
                        asn_by_probe: Mapping[int, int], ip2as,
                        as_names: Mapping[int, str],
                        as_countries: Mapping[int, str] | None = None,
                        top: int | None = None
                        ) -> tuple[PrefixChangeRow, list[PrefixChangeRow]]:
    """Per-change reference for :func:`repro.core.prefixes.prefix_change_table`."""
    all_comparisons: list[PrefixComparison] = []
    by_asn: dict[int, list[PrefixComparison]] = defaultdict(list)
    probes_by_asn: dict[int, set[int]] = defaultdict(set)
    for probe_id, changes in changes_by_probe.items():
        asn = asn_by_probe[probe_id]
        for change in changes:
            comparison = compare_change(change, ip2as)
            all_comparisons.append(comparison)
            by_asn[asn].append(comparison)
            probes_by_asn[asn].add(probe_id)

    overall = _tally("All", None, "", all_comparisons)
    rows = [
        _tally(as_names.get(asn, "AS%d" % asn), asn,
               (as_countries or {}).get(asn, ""), comparisons)
        for asn, comparisons in by_asn.items()
    ]
    rows.sort(key=lambda row: -len(probes_by_asn[row.asn]))
    if top is not None:
        rows = rows[:top]
    return overall, rows


def detect_administrative_renumbering(
        changes_by_probe: Mapping[int, Sequence[AddressChange]],
        asn_by_probe: Mapping[int, int], ip2as, start: float,
        min_probes: int = 5, change_fraction: float = 0.6,
        novelty_fraction: float = 0.8,
        warmup_days: int = 30) -> list[AdministrativeRenumbering]:
    """Per-change reference for
    :func:`repro.core.churn.detect_administrative_renumbering`."""
    by_asn: dict[int, list[AddressChange]] = defaultdict(list)
    probes_by_asn: dict[int, set[int]] = defaultdict(set)
    for probe_id, changes in changes_by_probe.items():
        asn = asn_by_probe.get(probe_id)
        if asn is None or not changes:
            continue
        probes_by_asn[asn].add(probe_id)
        by_asn[asn].extend(changes)

    events: list[AdministrativeRenumbering] = []
    for asn, changes in by_asn.items():
        if len(probes_by_asn[asn]) < min_probes:
            continue
        changes.sort(key=lambda change: change.time)
        seen_prefixes: set[IPv4Prefix] = set()
        by_day: dict[int, list[tuple[int, IPv4Prefix | None,
                                     IPv4Prefix | None]]] = defaultdict(list)
        for change in changes:
            day = int((change.time - start) // DAY)
            new_prefix = ip2as.bgp_prefix(change.new_address, change.time)
            old_prefix = ip2as.bgp_prefix(change.old_address, change.time)
            by_day[day].append((change.probe_id, new_prefix, old_prefix))
        for day in sorted(by_day):
            entries = by_day[day]
            day_probes = {probe_id for probe_id, _, _ in entries}
            day_prefixes = [p for _, p, _ in entries if p is not None]
            seen_prefixes.update(
                p for _, _, p in entries if p is not None)
            novel = [p for p in day_prefixes if p not in seen_prefixes]
            changed_share = fraction(len(day_probes),
                                     len(probes_by_asn[asn]))
            novelty = fraction(len(novel), len(day_prefixes))
            if (day >= warmup_days
                    and changed_share >= change_fraction
                    and day_prefixes
                    and novelty >= novelty_fraction):
                events.append(AdministrativeRenumbering(
                    asn=asn, day_index=day,
                    probes_changed=len(day_probes),
                    probes_total=len(probes_by_asn[asn]),
                    novel_prefixes=tuple(sorted(set(novel))),
                ))
            seen_prefixes.update(day_prefixes)
    events.sort(key=lambda event: (event.day_index, event.asn))
    return events
