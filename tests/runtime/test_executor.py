"""Executor equivalence and cache behavior over a real bundle.

The contract under test: ``jobs=1``, ``jobs=4`` and a warm-cache run all
produce *identical* analysis results (same canonical digest, same
rendered tables and figures), a warm re-run computes nothing, and
mutating one connlog line changes the bundle fingerprint so every stage
re-runs.
"""

from __future__ import annotations

import shutil

import pytest

from repro.experiments.registry import get_experiment
from repro.runtime import (
    RuntimeConfig,
    ShardedRunner,
    results_digest,
    runner_for_bundle,
    runner_for_world,
)
from repro.runtime.stages import cacheable_stages
from repro.runtime.workers import WorkerContext
from repro.sim.io import load_bundle

pytestmark = pytest.mark.runtime

#: Renderings compared byte-for-byte across execution modes.
RENDERED_EXPERIMENTS = ("table2", "table5", "figure1", "figure6")


def _render_all(results) -> dict[str, str]:
    return {name: get_experiment(name)(results).text
            for name in RENDERED_EXPERIMENTS}


@pytest.fixture(scope="module")
def serial_results(bundle):
    return runner_for_bundle(bundle, RuntimeConfig(jobs=1)).run()


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_results_identical_to_serial(bundle, serial_results, jobs):
    parallel = runner_for_bundle(bundle, RuntimeConfig(jobs=jobs)).run()
    assert results_digest(parallel) == results_digest(serial_results)
    assert _render_all(parallel) == _render_all(serial_results)


def test_warm_cache_run_identical_and_computes_nothing(
        bundle, serial_results, tmp_path):
    config = RuntimeConfig(jobs=4, cache_dir=tmp_path / "cache")
    cold = runner_for_bundle(bundle, config)
    cold_results = cold.run()
    # One store per cacheable stage artifact, plus the supervisor's
    # per-shard checkpoints and manifests for the fan-out stages.
    assert cold.cache.stats.stores >= len(cacheable_stages())
    assert cold.report.cached_stages == []

    warm = runner_for_bundle(bundle, RuntimeConfig(
        jobs=1, cache_dir=tmp_path / "cache"))
    warm_results = warm.run()
    # Every cacheable stage served from cache; the uncacheable ones
    # (cheap projections) recompute by design.
    assert warm.report.cached_stages == [
        spec.name for spec in cacheable_stages()]
    assert warm.cache.stats.misses == 0
    assert results_digest(warm_results) == results_digest(serial_results)
    assert results_digest(cold_results) == results_digest(serial_results)
    assert _render_all(warm_results) == _render_all(serial_results)


def test_mutated_connlog_changes_fingerprint_and_reruns_stages(
        bundle_dir, bundle, tmp_path):
    cache_dir = tmp_path / "cache"
    primer = runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir))
    primer.run()
    assert primer.cache.stats.stores == len(cacheable_stages())

    mutated_dir = tmp_path / "mutated"
    shutil.copytree(bundle_dir, mutated_dir)
    connlog = mutated_dir / "connlog.tsv"
    lines = connlog.read_text().splitlines()
    probe, start, end, address = lines[0].split("\t")
    # Nudge one connection's end time: still well-formed, different bytes.
    lines[0] = "\t".join([probe, start, str(int(float(end)) + 1), address])
    connlog.write_text("\n".join(lines) + "\n")

    mutated = load_bundle(mutated_dir)
    assert mutated.fingerprint != bundle.fingerprint

    rerun = runner_for_bundle(mutated, RuntimeConfig(cache_dir=cache_dir))
    rerun.run()
    # Nothing under the old fingerprint applies: every stage recomputes.
    assert rerun.report.cached_stages == []
    assert rerun.cache.stats.misses == len(cacheable_stages())

    # The untouched bundle still warm-hits the original artifacts.
    unchanged = runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir))
    unchanged.run()
    assert unchanged.report.cached_stages == [
        spec.name for spec in cacheable_stages()]


def test_world_runner_parallel_matches_serial(world):
    # (World vs bundle digests legitimately differ: bundle serialization
    # rounds connlog timestamps to whole seconds.)
    from_world_parallel = runner_for_world(world, RuntimeConfig(jobs=2))
    from_world_serial = runner_for_world(world, RuntimeConfig(jobs=1))
    assert (results_digest(from_world_parallel.run())
            == results_digest(from_world_serial.run()))
    assert from_world_parallel.fingerprint == from_world_serial.fingerprint
    assert from_world_parallel.fingerprint != ""


def test_synthetic_bundle_without_fingerprint_never_caches(
        bundle, tmp_path):
    runner = ShardedRunner(
        bundle.connlog, bundle.archive, bundle.kroot, bundle.uptime,
        bundle.ip2as, fingerprint="",
        config=RuntimeConfig(cache_dir=tmp_path / "cache"))
    runner.run()
    assert runner.cache.stats.stores == 0


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="jobs"):
        RuntimeConfig(jobs=0)
    with pytest.raises(ValueError, match="shards"):
        RuntimeConfig(shards=0)


def test_worker_context_rejects_record_kernels(bundle):
    with pytest.raises(ValueError, match="columnar"):
        WorkerContext(connlog=bundle.connlog, archive=bundle.archive,
                      ip2as=bundle.ip2as, kroot=bundle.kroot,
                      uptime=bundle.uptime, min_connected=0.0,
                      columnar=False)
