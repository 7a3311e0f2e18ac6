"""Differential digest suite: the production kernels vs the record oracle.

The columnar kernels (DESIGN.md §16) are the only production path; the
frozen record kernels in ``tests/oracle.py`` define what they must
compute.  Every execution mode — serial, sharded, distributed loopback,
warm cache, REPAIR-degraded bundles and full paper-scale scenarios —
must print the oracle's canonical digest.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
from repro.dist.loopback import run_loopback
from repro.faults.plan import FaultPlan
from repro.runtime import RuntimeConfig, results_digest, runner_for_bundle
from repro.runtime.workers import WorkerContext
from repro.sim.io import load_bundle, write_world
from repro.util.ingest import IngestReport, ReadPolicy
from tests.oracle import oracle_digest

pytestmark = pytest.mark.runtime

#: Canonical digest of the paper scenario at scale 0.5, seed 2015 —
#: the number BENCH_runtime.json and the CI bench smoke job pin.
PAPER_HALF_SCALE_DIGEST = (
    "e3de573a12a2dacfff392c19b4c38512fe0c137ee65b54b1e0b0599606d2ee0c")


def run_digest(bundle, **config) -> str:
    runner = runner_for_bundle(bundle, RuntimeConfig(**config))
    return results_digest(runner.run())


def loopback_digest(bundle, workers: int = 2) -> str:
    runner = dist_runner_for_bundle(bundle, DistConfig(workers=workers))
    context = WorkerContext(
        connlog=bundle.connlog, archive=bundle.archive, ip2as=bundle.ip2as,
        kroot=bundle.kroot, uptime=bundle.uptime,
        min_connected=runner._min_connected)
    run = run_loopback(runner, context, worker_count=workers)
    assert not run.worker_errors
    return run.digest


@pytest.fixture(scope="module")
def legacy_digest(bundle):
    return oracle_digest(bundle)


class TestKernelModesAgree:
    def test_columnar_serial_matches_legacy(self, bundle, legacy_digest):
        assert run_digest(bundle) == legacy_digest

    def test_columnar_sharded_matches_legacy_serial(self, bundle,
                                                    legacy_digest):
        assert run_digest(bundle, jobs=2) == legacy_digest

    def test_columnar_loopback_matches_legacy(self, bundle, legacy_digest):
        assert loopback_digest(bundle) == legacy_digest


class TestCrossModeCache:
    """Warm runs over the cache: the column-backed outputs pickle into
    the entries as their arrays, and a damaged entry heals into a
    recompute without moving the digest."""

    @staticmethod
    def _largest_entry(cache_dir):
        return max(sorted(cache_dir.rglob("*.pkl")),
                   key=lambda path: path.stat().st_size)

    def test_truncated_entry_heals_and_rewarms(self, bundle, legacy_digest,
                                               tmp_path):
        cache_dir = tmp_path / "cache"
        runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir)).run()
        assert not list(cache_dir.rglob("*.col"))
        victim = self._largest_entry(cache_dir)
        victim.write_bytes(victim.read_bytes()[:victim.stat().st_size // 2])

        warm = runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir))
        assert results_digest(warm.run()) == legacy_digest
        # The truncated entry healed into a miss and was recomputed.
        assert warm.cache.stats.healed >= 1
        assert warm.cache.stats.misses >= 1

        # The re-store repaired the entry: next run is fully warm.
        rewarm = runner_for_bundle(bundle,
                                   RuntimeConfig(cache_dir=cache_dir))
        assert results_digest(rewarm.run()) == legacy_digest
        assert rewarm.cache.stats.misses == 0

    def test_garbled_entry_heals_like_truncated(self, bundle, legacy_digest,
                                                tmp_path):
        cache_dir = tmp_path / "cache"
        runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir)).run()
        victim = self._largest_entry(cache_dir)
        victim.write_bytes(b"\x80\x05garbage" + victim.read_bytes()[13:])

        warm = runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir))
        assert results_digest(warm.run()) == legacy_digest
        assert warm.cache.stats.healed >= 1


class TestRepairedBundleDifferential:
    def test_kernels_agree_on_degraded_bundle(self, world, tmp_path):
        root = write_world(world, tmp_path / "degraded")
        FaultPlan.uniform(seed=13, rate=0.05).apply(root)
        report = IngestReport()
        bundle = load_bundle(root, policy=ReadPolicy.REPAIR, report=report)
        assert not report.clean  # faults were really injected
        legacy = oracle_digest(bundle)
        assert run_digest(bundle) == legacy
        assert run_digest(bundle, jobs=2) == legacy
        assert loopback_digest(bundle) == legacy


@pytest.mark.slow
class TestPaperScaleDifferential:
    """Seeded paper-scenario worlds: production and oracle, one digest.

    Scale 0.5 additionally pins the canonical digest the benchmark and
    the CI bench smoke job gate on.  Scale 2 (~770k connlog entries,
    minutes of wall time) only runs when ``REPRO_SLOW_SCALE2`` is set —
    it is the weekly-deep-check tier, not the per-commit one.
    """

    @staticmethod
    def _paper_bundle(scale, tmp_path):
        from repro.sim.scenario import paper_scenario
        from repro.sim.world import build_world
        world = build_world(paper_scenario(scale=scale, seed=2015))
        root = write_world(world, tmp_path / "bundle")
        try:
            return load_bundle(root)
        finally:
            del world

    def test_half_scale_digest_pinned_in_both_modes(self, tmp_path):
        bundle = self._paper_bundle(0.5, tmp_path)
        assert run_digest(bundle) == PAPER_HALF_SCALE_DIGEST
        assert oracle_digest(bundle) == PAPER_HALF_SCALE_DIGEST
        # Spawned workers unpickle the column-backed datasets.
        assert run_digest(bundle, jobs=2, start_method="spawn") \
            == PAPER_HALF_SCALE_DIGEST

    @pytest.mark.skipif(not os.environ.get("REPRO_SLOW_SCALE2"),
                        reason="set REPRO_SLOW_SCALE2=1 for the scale-2 "
                               "differential (several minutes)")
    def test_double_scale_modes_agree(self, tmp_path):
        bundle = self._paper_bundle(2, tmp_path)
        assert run_digest(bundle) == oracle_digest(bundle)
        shutil.rmtree(tmp_path / "bundle", ignore_errors=True)
