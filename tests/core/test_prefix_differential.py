"""Differential tests: batched Table 7 and admin renumbering vs the oracle.

:func:`repro.core.prefixes.prefix_change_table` and
:func:`repro.core.churn.detect_administrative_renumbering` look every
address up in one batch through the pfx2as stab tables.  The per-change
versions in ``tests/oracle.py`` look each change up on its own, through
tries built from the same snapshots.  Both must produce equal rows and
events on small worlds (also with half their prefixes withdrawn, so that
many changes have an unrouted end), on a REPAIR-loaded bundle whose
missing month falls back to its neighbour, and on empty input.
"""

from __future__ import annotations

import pytest

from repro.core.churn import detect_administrative_renumbering
from repro.core.pipeline import pipeline_for_bundle, pipeline_for_world
from repro.core.prefixes import prefix_change_table
from repro.errors import DatasetError
from repro.experiments.scenarios import small_world
from repro.net.pfx2as import IpToAsDataset, Pfx2AsSnapshot
from repro.sim.io import load_bundle, write_world
from repro.util import timeutil
from repro.util.ingest import IngestReport, ReadPolicy
from tests import oracle

#: Thresholds that flag nearly every change day, so the event path runs.
PERMISSIVE = dict(min_probes=1, change_fraction=0.0, novelty_fraction=0.0,
                  warmup_days=0)


def assert_batched_matches_oracle(results, ip2as, start: float) -> None:
    tries = oracle.TrieIpToAs(ip2as)
    args = (results.changes_by_probe, results.asn_by_probe)
    labels = (results.as_names, results.as_countries)
    assert (prefix_change_table(*args, ip2as, *labels)
            == oracle.prefix_change_table(*args, tries, *labels))
    for params in ({}, PERMISSIVE):
        assert (detect_administrative_renumbering(*args, ip2as, start,
                                                  **params)
                == oracle.detect_administrative_renumbering(
                    *args, tries, start, **params))


@pytest.fixture(scope="module", params=[1, 2, 3])
def world(request):
    return small_world(seed=request.param, days=40)


class TestSmallWorlds:
    def test_table7_and_admin_events_match(self, world):
        results = pipeline_for_world(world).run()
        overall, _ = results.table7()
        assert overall.total_changes > 0 and overall.diff_bgp > 0
        assert detect_administrative_renumbering(
            results.changes_by_probe, results.asn_by_probe, world.ip2as,
            world.config.start, **PERMISSIVE)
        assert_batched_matches_oracle(results, world.ip2as,
                                      world.config.start)

    def test_unrouted_addresses_match(self, world):
        """Half of every month's prefixes withdrawn: many changes now
        have an unrouted end, which never counts as crossing BGP
        prefixes and never makes a prefix novel."""
        results = pipeline_for_world(world).run()
        sparse = IpToAsDataset()
        for year, month in world.ip2as.months():
            mappings = world.ip2as.snapshot_for(
                timeutil.epoch(year, month, 1)).mappings()
            sparse.add_snapshot(year, month,
                                Pfx2AsSnapshot(list(mappings)[::2]))
        tries = oracle.TrieIpToAs(sparse)
        assert any(tries.bgp_prefix(change.new_address, change.time) is None
                   for changes in results.changes_by_probe.values()
                   for change in changes)
        assert_batched_matches_oracle(results, sparse, world.config.start)

    def test_missing_month_under_strict_raises(self, world):
        results = pipeline_for_world(world).run()
        gappy = IpToAsDataset()
        kept = world.ip2as.months()[1:]
        for year, month in kept:
            gappy.add_snapshot(year, month, world.ip2as.snapshot_for(
                timeutil.epoch(year, month, 1)))
        args = (results.changes_by_probe, results.asn_by_probe, gappy)
        with pytest.raises(DatasetError, match="no pfx2as snapshot"):
            prefix_change_table(*args, results.as_names)
        with pytest.raises(DatasetError, match="no pfx2as snapshot"):
            detect_administrative_renumbering(*args, world.config.start,
                                              **PERMISSIVE)


class TestRepairFallback:
    def test_dropped_month_falls_back_identically(self, tmp_path):
        world = small_world(seed=2, days=70)
        root = write_world(world, tmp_path / "bundle")
        (root / "pfx2as" / "2015-02.txt").unlink()
        bundle = load_bundle(root, policy=ReadPolicy.REPAIR,
                             report=IngestReport())
        assert bundle.ip2as.fallback
        assert (2015, 2) not in bundle.ip2as.months()
        results = pipeline_for_bundle(bundle).run()
        assert any(timeutil.month_of(change.time) == (2015, 2)
                   for changes in results.changes_by_probe.values()
                   for change in changes)
        assert_batched_matches_oracle(results, bundle.ip2as, bundle.start)


class TestEmptyInput:
    @pytest.mark.parametrize("changes, asns", [
        ({}, {}),
        ({7: []}, {7: 64496}),
    ])
    def test_all_row_with_zero_counts(self, changes, asns):
        overall, rows = prefix_change_table(changes, asns, IpToAsDataset(),
                                            {})
        assert (overall.as_name, overall.total_changes, overall.diff_bgp,
                overall.diff_slash16, overall.diff_slash8) == ("All", 0, 0,
                                                               0, 0)
        assert rows == []
        assert detect_administrative_renumbering(
            changes, asns, IpToAsDataset(), 0.0, **PERMISSIVE) == []
