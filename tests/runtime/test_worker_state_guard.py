"""Worker processes keep no per-task state (DESIGN §10.2).

A ``jobs=2`` run under fork and under spawn carries a
:class:`guards.WorkerStatePlan`: after a worker's first shard task
starts, no ``repro`` module global outside ``repro.obs`` may be bound,
rebound or changed in place.  A change fails the shard, and with no
retries its probes are quarantined, so a clean run is not degraded.
"""

from __future__ import annotations

import pytest

from repro.runtime import (
    RuntimeConfig,
    results_digest,
    runner_for_world,
    workers,
)
from tests.runtime import guards

pytestmark = pytest.mark.runtime


@pytest.fixture(scope="module")
def serial_digest(world):
    return results_digest(
        runner_for_world(world, RuntimeConfig(jobs=1)).run())


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_globals_unchanged_across_shard_tasks(world, serial_digest,
                                                     start_method):
    runner = runner_for_world(world, RuntimeConfig(
        jobs=2, shards=4, start_method=start_method, max_retries=0,
        fault_plan=guards.WorkerStatePlan()))
    results = runner.run()
    assert not runner.report.degraded, runner.report.render()
    assert results_digest(results) == serial_digest


def test_plan_fails_a_change_after_its_baseline():
    plan = guards.WorkerStatePlan()
    assert plan.fault_at("filter", 0, 0) is None
    assert plan.fault_at("filter", 0, 0) is None
    workers.SHARD_TASKS["probe"] = None
    try:
        with pytest.raises(RuntimeError, match="SHARD_TASKS changed"):
            plan.fault_at("filter", 1, 0)
    finally:
        del workers.SHARD_TASKS["probe"]
