"""The columnar stage outputs against their record references.

The ``spans`` and ``gaps`` stages return the columnar maps of
:mod:`repro.core.colartifact` in every execution mode, so the readers
that used to walk records now read columns: ``stage_stats``, the churn
extension's ``daily_active_addresses``, Figure 6's ``reboots_per_day``
and ``results_digest`` itself.  Each is pinned here to its record
version in ``tests/oracle.py``, including probes with no spans and no
gaps and timestamps on day, year and leap-year boundaries.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.core import colkernels, pipeline
from repro.core.association import GapCause, GapEvent
from repro.core.changes import AddressSpan
from repro.core.churn import daily_active_addresses
from repro.core.colartifact import (
    ColumnarFilterArtifact,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarSpanMap,
)
from repro.core.filtering import report_from_verdicts
from repro.core.reboots import Reboot, reboots_per_day
from repro.experiments.scenarios import small_world
from repro.net.ipv4 import IPv4Address
from repro.runtime.digest import results_digest
from repro.runtime.executor import RuntimeConfig, runner_for_world
from repro.util import timeutil
from repro.util.fingerprint import hash_text
from repro.util.timeutil import DAY, YEAR_2015_START, epoch
from tests import oracle

MIN_CONNECTED = 4 * timeutil.DAY


@pytest.fixture(scope="module")
def world():
    return small_world(seed=23, days=40)


@pytest.fixture(scope="module")
def results(world):
    return runner_for_world(world, RuntimeConfig()).run()


def _span(pid, value, start, end):
    return AddressSpan(pid, IPv4Address(value), start, end, True, True)


def _gap(pid, cause, changed, start=0.0):
    return GapEvent(pid, start, start + 60.0, cause, changed,
                    60.0 if cause is not GapCause.NONE else 0.0)


class TestMappingBehaviour:
    SPANS = {9: [_span(9, 5, 0.0, 1.0), _span(9, 6, 1.0, 2.0)],
             2: [],
             4: [_span(4, 5, 3.0, 4.0)]}

    def test_lookup_decodes_once_and_memoizes(self):
        spans = ColumnarSpanMap.from_map(self.SPANS)
        assert spans[9] == self.SPANS[9]
        assert spans[9] is spans[9]
        assert spans[2] == []

    def test_iteration_follows_stored_order(self):
        spans = ColumnarSpanMap.from_map(self.SPANS)
        assert list(spans) == [9, 2, 4]
        assert list(spans.items()) == list(self.SPANS.items())
        assert len(spans) == 3 and 4 in spans and 5 not in spans
        assert spans.get(5) is None
        with pytest.raises(KeyError):
            spans[5]

    def test_pickle_ships_columns_not_decoded_records(self):
        spans = ColumnarSpanMap.from_map(self.SPANS)
        before = pickle.dumps(spans)
        spans.to_map()
        assert pickle.dumps(spans) == before
        assert pickle.loads(before) == self.SPANS

    def test_concat_joins_shards_in_order(self):
        first = {1: [_span(1, 7, 0.0, 1.0)], 2: []}
        second = {3: [_span(3, 8, 2.0, 5.0), _span(3, 9, 5.0, 6.0)]}
        joined = ColumnarSpanMap.concat([ColumnarSpanMap.from_map(first),
                                         ColumnarSpanMap.from_map({}),
                                         ColumnarSpanMap.from_map(second)])
        assert joined == {**first, **second}
        assert list(joined) == [1, 2, 3]
        assert ColumnarFloatMap.concat([]) == {}

    def test_concat_refuses_mismatched_meta(self):
        events = ColumnarGapEventMap.from_map(
            {1: [_gap(1, GapCause.NONE, False)]})
        renamed = ColumnarGapEventMap(
            {"causes": list(reversed(events.meta["causes"]))},
            events.columns)
        with pytest.raises(ValueError, match="meta"):
            ColumnarGapEventMap.concat([events, renamed])

    def test_filter_artifact_concat_sums_totals(self, world):
        col = ColumnarConnlog.from_connlog(world.connlog)
        report = pipeline.stage_filter_col(col, world.archive, world.ip2as,
                                           min_connected=MIN_CONNECTED)
        pids = list(report.verdicts)
        middle = len(pids) // 2
        parts = [ColumnarFilterArtifact.from_report(
            report_from_verdicts(
                {pid: report.verdicts[pid] for pid in chunk}))
            for chunk in (pids[:middle], pids[middle:])]
        joined = ColumnarFilterArtifact.concat(parts).to_report()
        assert joined.total == report.total
        assert list(joined.verdicts) == pids
        assert all(joined.verdicts[pid].changes == verdict.changes
                   for pid, verdict in report.verdicts.items())


class TestKernelsOnEmptyInput:
    def test_spans_kernel_on_no_probes(self, world):
        col = ColumnarConnlog.from_connlog(world.connlog)
        spans, durations = colkernels.probe_spans_col(col, [])
        assert spans == {} and durations == {}

    def test_gaps_kernel_on_no_probes(self, world):
        col = ColumnarConnlog.from_connlog(world.connlog)
        assert colkernels.gap_events_col(col, world.kroot, []) == {}


class TestOutages:
    def test_outages_are_the_non_none_gap_events(self, results):
        gaps = results.gap_events_by_probe
        outages = gaps.outages()
        assert list(outages) == list(gaps)
        assert outages == {
            pid: [event for event in events
                  if event.cause is not GapCause.NONE]
            for pid, events in gaps.to_map().items()}
        assert any(outages.values())

    def test_probes_without_outages_keep_their_key(self):
        events = {4: [], 2: [_gap(2, GapCause.NONE, True)],
                  6: [_gap(6, GapCause.NONE, False),
                      _gap(6, GapCause.POWER, True, 90.0)]}
        outages = ColumnarGapEventMap.from_map(events).outages()
        assert outages == {4: [], 2: [], 6: [events[6][1]]}


class TestStageStats:
    def test_matches_record_tally_on_a_world(self, results):
        gaps = results.gap_events_by_probe
        assert pipeline.stage_stats(gaps) == oracle.stage_stats(gaps.to_map())

    def test_probes_without_gaps_and_every_cause(self):
        events = {
            5: [],
            3: [_gap(3, GapCause.NETWORK, True),
                _gap(3, GapCause.NETWORK, False, 100.0),
                _gap(3, GapCause.POWER, True, 200.0),
                _gap(3, GapCause.NONE, True, 300.0)],
            7: [],
            8: [_gap(8, GapCause.POWER, False)],
            9: [],
        }
        stats = pipeline.stage_stats(ColumnarGapEventMap.from_map(events))
        assert stats == oracle.stage_stats(events)
        assert list(stats) == [3, 5, 7, 8, 9]
        assert all(type(value) is int for row in stats.values()
                   for value in (row.network_outages, row.power_changes))

    def test_no_probes_at_all(self):
        assert pipeline.stage_stats(ColumnarGapEventMap.from_map({})) == {}


class TestDailyActiveAddresses:
    def test_matches_record_version_on_a_world(self, results):
        spans = results.spans_by_probe
        start, end = YEAR_2015_START, YEAR_2015_START + 60 * DAY
        assert (daily_active_addresses(spans, start, end)
                == oracle.daily_active_addresses(spans.to_map(), start, end))

    def test_window_edges_and_probes_without_spans(self):
        start = YEAR_2015_START
        spans = {
            1: [_span(1, 10, start - 3 * DAY, start + 0.5 * DAY),
                _span(1, 11, start + 0.5 * DAY, start + 2 * DAY)],
            2: [],
            3: [_span(3, 10, start + 4 * DAY - 1.0, start + 9 * DAY)],
            4: [_span(4, 12, start - 9 * DAY, start - 2 * DAY)],
            5: [_span(5, 13, start + 20 * DAY, start + 21 * DAY)],
        }
        end = start + 6 * DAY
        got = daily_active_addresses(ColumnarSpanMap.from_map(spans),
                                     start, end)
        assert got == oracle.daily_active_addresses(spans, start, end)
        assert list(got) == sorted(got)


class TestRebootsPerDay:
    def test_matches_record_version_on_a_world(self, world):
        raw = colkernels.detect_reboots_col(
            ColumnarUptime.from_uptime(world.uptime))
        assert raw and any(raw.values())
        assert reboots_per_day(raw) == oracle.reboots_per_day(raw)

    @pytest.mark.parametrize("base", [
        0.0,
        YEAR_2015_START,
        epoch(2015, 12, 31),
        epoch(2016, 1, 1),
        epoch(2016, 2, 28),
        epoch(2016, 2, 29),
        epoch(2016, 3, 1),
        epoch(2016, 12, 31),
    ])
    def test_day_year_and_leap_year_boundaries(self, base):
        # Offsets straddle midnight, including ones that datetime rounds
        # across it at microsecond resolution.
        offsets = [0.0, -1.0, 1.0, -0.4, 0.5, -1e-7, 1e-7, -4e-7, -5e-7,
                   -6e-7, -5e-7 - 1e-6, 1e-9, -1e-9, DAY - 1e-7]
        reboots = {pid: [Reboot(pid, base + offset, base + offset)
                         for offset in offsets[pid::3]]
                   for pid in range(3)}
        assert reboots_per_day(reboots) == oracle.reboots_per_day(reboots)

    def test_random_timestamps(self):
        rng = random.Random(5)
        for _ in range(50):
            reboots = {pid: [Reboot(pid, time, time) for time in (
                YEAR_2015_START + rng.uniform(-5, 400) * DAY
                for _ in range(rng.randrange(4)))]
                for pid in range(rng.randrange(1, 12))}
            assert reboots_per_day(reboots) == oracle.reboots_per_day(reboots)

    def test_empty(self):
        assert reboots_per_day({}) == {}
        assert reboots_per_day({1: [], 2: []}) == {}


class TestDigestRendering:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_row_formatting_matches_the_recursive_rendering(self, seed):
        results = runner_for_world(small_world(seed=seed, days=40)).run()
        assert results.gap_events_by_probe and results.spans_by_probe
        assert results_digest(results) == hash_text(
            oracle.canonical_payload(results))

    def test_maps_stored_out_of_order_are_refused(self, results):
        keys = list(results.spans_by_probe)
        random.Random(3).shuffle(keys)
        reordered = pipeline.AnalysisResults(**{
            **vars(results),
            "spans_by_probe": ColumnarSpanMap.from_map(
                {key: results.spans_by_probe[key] for key in keys})})
        with pytest.raises(ValueError, match="ascending"):
            results_digest(reordered)
