"""Supervised fault-tolerant execution suite.

The contract under test (DESIGN §13): a supervised ``jobs=N`` run under
injected worker crashes, hangs, corrupt result envelopes and slow shards
produces a results digest *bit-identical* to the unfaulted serial run;
when retries are exhausted the run still completes, with exact
``analyzed + quarantined == total`` accounting and a DEGRADED report;
and a killed run resumed with ``--resume`` restarts from the last
completed shard checkpoint and matches the uninterrupted digest.
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injectors import FaultKind
from repro.faults.process import ProcessFaultPlan, reconcile
from repro.runtime import (
    RuntimeConfig,
    results_digest,
    runner_for_world,
)
from repro.runtime.board import LeaseBoard
from repro.runtime.supervisor import SupervisionPolicy, partition_digest
from repro.runtime.workers import ShardResult

pytestmark = pytest.mark.runtime

#: Fast-retry knobs shared by the fault-matrix runs: enough retries that
#: transient faults always recover, no real backoff sleeps, and a
#: deadline short enough that injected hangs resolve in test time but
#: long enough that a loaded CI worker never trips it spuriously.
FAST = dict(jobs=2, max_retries=6, backoff_base_s=0.0)
HANG_DEADLINE_S = 3.0


@pytest.fixture(scope="module")
def serial_digest(world):
    return results_digest(
        runner_for_world(world, RuntimeConfig(jobs=1)).run())


def _faulted_run(world, plan, **overrides):
    options = dict(FAST)
    options.update(overrides)
    runner = runner_for_world(
        world, RuntimeConfig(fault_plan=plan, **options))
    results = runner.run()
    return runner, results


# -- fault matrix: recovery keeps the digest bit-identical -------------------

@pytest.mark.parametrize("kind,rate", [
    ("worker_crash", 0.2),
    ("worker_crash", 0.5),
    ("envelope_corrupt", 0.25),
    ("envelope_corrupt", 0.75),
    ("worker_slow", 0.3),
    ("worker_slow", 1.0),
])
def test_recovered_faults_keep_digest_identical(world, serial_digest,
                                                kind, rate):
    plan = ProcessFaultPlan(seed=13, slow_delay_s=0.01, **{kind: rate})
    runner, results = _faulted_run(world, plan)
    assert results_digest(results) == serial_digest
    assert not runner.report.degraded
    report = reconcile(plan, runner.report.resilience)
    assert report.reconciled
    assert report.total(report.abandoned) == 0


@pytest.mark.parametrize("rate", [0.2, 0.5])
def test_recovered_hangs_keep_digest_identical(world, serial_digest, rate):
    plan = ProcessFaultPlan(seed=17, worker_hang=rate)
    runner, results = _faulted_run(world, plan,
                                   shard_deadline_s=HANG_DEADLINE_S)
    assert results_digest(results) == serial_digest
    assert not runner.report.degraded
    report = reconcile(plan, runner.report.resilience)
    assert report.reconciled
    assert report.total(report.abandoned) == 0


def test_a_deadline_passing_mid_turn_still_wakes_the_supervisor(
        world, monkeypatch):
    """Shard 3 hangs on its first attempt while the other worker finishes
    every other shard and goes idle.  In the turn that folds the last
    result, ``wakeup_at`` is slowed until the hung lease's deadline has
    passed.  The supervisor must still wake for that deadline: asking
    the clock again there would skip it as past, and the stage would
    block for good on two silent pipes."""
    plan = ProcessFaultPlan(seed=11, worker_hang=0.25)
    assert plan.placements("filter", 4) == {3: FaultKind.WORKER_HANG}
    wakeup_at = LeaseBoard.wakeup_at
    paused = []

    def slow_wakeup_at(board, *args):
        if not paused and board.active \
                and len(board.resolved) == len(board.shards) - 1:
            paused.append(True)
            deadline = max(lease.deadline for lease in board.active.values())
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.1)
        return wakeup_at(board, *args)

    monkeypatch.setattr(LeaseBoard, "wakeup_at", slow_wakeup_at)
    runner = runner_for_world(world, RuntimeConfig(
        fault_plan=plan, jobs=2, shards=4, max_retries=2,
        backoff_base_s=0.0, shard_deadline_s=1.0))
    supervisor = runner._ensure_supervisor()
    shards = runner._shards_of(runner._connlog.probe_ids())
    outcomes = []
    stage = threading.Thread(
        target=lambda: outcomes.append(
            supervisor.run_stage("filter", "filter", shards)),
        daemon=True)
    stage.start()
    stage.join(timeout=30.0)
    try:
        assert not stage.is_alive(), "the stage blocked past its deadline"
    finally:
        if not stage.is_alive():
            supervisor.shutdown()
    assert paused == [True]
    [outcome] = outcomes
    row = outcome.resilience
    assert [(failure.shard_index, failure.cause)
            for failure in row.failures] == [(3, "hang")]
    assert not row.abandoned
    assert row.analyzed_items == row.total_items


def test_slow_workers_are_not_failures(world, serial_digest):
    plan = ProcessFaultPlan(seed=19, worker_slow=1.0, slow_delay_s=0.01)
    runner, results = _faulted_run(world, plan)
    assert results_digest(results) == serial_digest
    for row in runner.report.resilience:
        assert row.failures == ()
        assert row.retries == 0


def test_queued_shards_are_not_falsely_hung(world, serial_digest):
    """Only in-flight shards carry deadlines.  Eight slow shards over
    two workers run ~1.6s per worker chain — well past the 1.2s
    deadline — but each individual shard finishes comfortably inside
    it, so a deadline that measured time-in-queue (instead of
    execution) would falsely declare the tail shards hung."""
    plan = ProcessFaultPlan(seed=31, worker_slow=1.0, slow_delay_s=0.4)
    runner, results = _faulted_run(world, plan, shards=8,
                                   shard_deadline_s=1.2)
    assert results_digest(results) == serial_digest
    for row in runner.report.resilience:
        assert row.failures == ()
        assert row.retries == 0


def test_mixed_faults_keep_digest_identical(world, serial_digest):
    plan = ProcessFaultPlan(seed=23, worker_crash=0.25,
                            envelope_corrupt=0.25, worker_slow=0.25,
                            slow_delay_s=0.01)
    runner, results = _faulted_run(world, plan)
    assert results_digest(results) == serial_digest
    assert reconcile(plan, runner.report.resilience).reconciled


def test_pool_break_with_zero_retries_spares_unattributed_shards(world):
    """Each worker holds one lease, so a worker death is charged to the
    one shard it was running and never to the shards on other workers.
    At --max-retries 0 a crash therefore abandons exactly the shard that
    crashed: every abandoned shard is one the plan placed a crash on."""
    plan = ProcessFaultPlan(seed=13, worker_crash=0.2)
    runner, _ = _faulted_run(world, plan, max_retries=0)
    report = reconcile(plan, runner.report.resilience)
    assert report.reconciled
    assert report.total(report.injected) > 0
    for row in runner.report.resilience:
        placed = plan.placements(row.stage, row.shards)
        for index in row.abandoned:
            assert placed.get(index) == FaultKind.WORKER_CRASH


def test_persistent_crash_quarantines_only_the_crashing_shards(world):
    """Blast-radius charging must never abandon an innocent co-in-flight
    shard: with zero retries and a *persistent* crasher, every abandoned
    shard is one the plan actually placed a crash on."""
    plan = ProcessFaultPlan(seed=13, worker_crash=0.2, persistent=True)
    runner, _ = _faulted_run(world, plan, max_retries=0)
    report = runner.report
    assert report.degraded
    assert reconcile(plan, report.resilience).reconciled
    for row in report.resilience:
        placed = plan.placements(row.stage, row.shards)
        for index in row.abandoned:
            assert placed.get(index) == FaultKind.WORKER_CRASH


# -- retries exhausted: graceful degradation, exact accounting ---------------

def test_persistent_corruption_degrades_with_exact_accounting(world):
    plan = ProcessFaultPlan(seed=5, envelope_corrupt=0.25, persistent=True)
    runner, results = _faulted_run(world, plan, max_retries=1)
    report = runner.report
    assert report.degraded
    for row in report.resilience:
        assert row.analyzed_items + row.quarantined_items == row.total_items
        for index in row.abandoned:
            assert all(failure.cause == "corrupt"
                       for failure in row.failures
                       if failure.shard_index == index)
    fault_report = reconcile(plan, report.resilience)
    assert fault_report.reconciled
    assert fault_report.total(fault_report.abandoned) == sum(
        len(row.abandoned) for row in report.resilience)
    rendered = report.render()
    assert "DEGRADED" in rendered
    assert "corrupt" in rendered
    # The run *completed*: quarantined probes are absent, not wrong.
    assert report.quarantined_probes
    (filter_row,) = [row for row in report.resilience
                     if row.stage == "filter"]
    verdicts = results.filter_report.verdicts
    assert len(verdicts) == filter_row.analyzed_items
    assert set(filter_row.quarantined_probes).isdisjoint(verdicts)


def test_exhausted_hangs_quarantine_without_retries(world):
    plan = ProcessFaultPlan(seed=29, worker_hang=1.0, persistent=True)
    runner, results = _faulted_run(world, plan, max_retries=0,
                                   shard_deadline_s=1.0)
    report = runner.report
    assert report.degraded
    for row in report.resilience:
        assert row.retries == 0
        assert len(row.abandoned) == row.shards
        assert row.analyzed_items == 0
        assert row.quarantined_items == row.total_items
    assert results.filter_report.verdicts == {}


def test_degraded_stage_artifact_is_not_cached(world, tmp_path):
    plan = ProcessFaultPlan(seed=5, envelope_corrupt=0.25, persistent=True)
    runner, _ = _faulted_run(world, plan, max_retries=0,
                             cache_dir=tmp_path / "cache")
    assert runner.report.degraded
    degraded = {row.stage for row in runner.report.resilience
                if row.degraded}
    # A clean warm run must recompute every degraded stage rather than
    # inherit its quarantine through the artifact cache.
    warm = runner_for_world(world, RuntimeConfig(
        jobs=1, cache_dir=tmp_path / "cache"))
    warm.run()
    assert degraded <= set(warm.report.computed_stages)


def test_stages_downstream_of_degradation_are_not_cached(
        world, serial_digest, tmp_path):
    """Degradation poisons everything computed after it: a stage fed a
    degraded artifact runs clean yet produces incomplete outputs, so
    neither its artifact nor its shard checkpoints may be stored under
    keys a non-degraded run would hit."""
    plan = ProcessFaultPlan(seed=5, envelope_corrupt=0.25, persistent=True)
    runner, _ = _faulted_run(world, plan, max_retries=0,
                             cache_dir=tmp_path / "cache")
    report = runner.report
    assert report.degraded
    order = [timing.name for timing in report.timings]
    first = min(order.index(row.stage) for row in report.resilience
                if row.degraded)
    for row in report.resilience:
        if order.index(row.stage) > first:
            assert row.checkpoints_stored == 0
    # The warm run may inherit only artifacts computed *before* the
    # first degradation, and must end bit-identical to a clean run.
    warm = runner_for_world(world, RuntimeConfig(
        jobs=1, cache_dir=tmp_path / "cache"))
    results = warm.run()
    assert set(warm.report.cached_stages) <= set(order[:first])
    assert results_digest(results) == serial_digest


def test_cacheless_runs_store_no_checkpoints(world):
    runner = runner_for_world(world, RuntimeConfig(jobs=2))
    runner.run()
    rows = runner.report.resilience
    assert rows
    assert all(row.checkpoints_stored == 0 for row in rows)
    assert all(row.checkpoints_loaded == 0 for row in rows)


# -- checkpoint / resume -----------------------------------------------------

class _KilledMidRun(KeyboardInterrupt):
    """Simulates the operator killing the driver process mid-stage."""


def _kill_after_stores(cache, limit: int):
    original = cache.store
    seen = {"count": 0}

    def store(key, value):
        original(key, value)
        seen["count"] += 1
        if seen["count"] >= limit:
            raise _KilledMidRun()

    cache.store = store


def test_resume_after_kill_matches_uninterrupted_digest(
        world, serial_digest, tmp_path):
    interrupted = runner_for_world(world, RuntimeConfig(
        jobs=2, cache_dir=tmp_path / "cache"))
    _kill_after_stores(interrupted.cache, 4)
    with pytest.raises(KeyboardInterrupt):
        interrupted.run()

    resumed = runner_for_world(world, RuntimeConfig(
        jobs=2, cache_dir=tmp_path / "cache", resume=True))
    results = resumed.run()
    assert results_digest(results) == serial_digest
    loaded = sum(row.checkpoints_loaded
                 for row in resumed.report.resilience)
    assert loaded > 0
    # Resumed shards are visible as cache hits, not recomputation.
    assert resumed.cache.stats.hits >= loaded


def test_resume_without_checkpoints_is_a_clean_cold_run(
        world, serial_digest, tmp_path):
    runner = runner_for_world(world, RuntimeConfig(
        jobs=2, cache_dir=tmp_path / "cache", resume=True))
    assert results_digest(runner.run()) == serial_digest
    assert all(row.checkpoints_loaded == 0
               for row in runner.report.resilience)


# -- policy knobs ------------------------------------------------------------

def test_backoff_is_deterministic_and_exponential():
    policy = SupervisionPolicy(backoff_base_s=0.05)
    assert policy.backoff_s(0) == 0.0
    assert policy.backoff_s(1) == pytest.approx(0.05)
    assert policy.backoff_s(2) == pytest.approx(0.10)
    assert policy.backoff_s(3) == pytest.approx(0.20)
    assert policy.backoff_s(999) == 60.0  # capped
    assert SupervisionPolicy(backoff_base_s=0.0).backoff_s(5) == 0.0


@pytest.mark.parametrize("kwargs", [
    {"max_retries": -1},
    {"shard_deadline_s": 0},
    {"backoff_base_s": -0.1},
])
def test_policy_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        SupervisionPolicy(**kwargs)


def test_partition_digest_pins_the_cut():
    shards = [[1, 2], [3, 4], [5]]
    assert partition_digest("filter", shards) == partition_digest(
        "filter", [[9, 9], [9, 9], [9]])  # sizes, not contents
    assert partition_digest("filter", shards) != partition_digest(
        "spans", shards)
    assert partition_digest("filter", shards) != partition_digest(
        "filter", [[1, 2, 3], [4], [5]])


# -- merge-order property ----------------------------------------------------

def _corrupted(envelope: ShardResult) -> ShardResult:
    blob = envelope.payload_pickle
    return ShardResult(
        shard_index=envelope.shard_index, attempt=envelope.attempt + 1,
        payload_pickle=blob[:-1] + bytes([blob[-1] ^ 0xFF]),
        seal=envelope.seal)


@settings(max_examples=50, deadline=None)
@given(data=st.data(),
       shard_count=st.integers(min_value=1, max_value=8))
def test_retry_order_never_perturbs_the_ordered_merge(data, shard_count):
    """Whatever order envelopes reach the lease board in — including
    corrupt attempts interleaved from retries — the per-index payloads
    are identical."""
    good = [ShardResult.sealed({index: "payload-%d" % index},
                               shard_index=index)
            for index in range(shard_count)]
    corrupt = [
        _corrupted(good[index])
        for index in data.draw(st.lists(
            st.integers(min_value=0, max_value=shard_count - 1),
            max_size=2 * shard_count))
    ]
    arrival = data.draw(st.permutations(good + corrupt))
    board = LeaseBoard("filter", [[index] for index in range(shard_count)],
                       SupervisionPolicy(backoff_base_s=0.0))
    leases = {}
    for _ in range(shard_count):
        record = board.lease("w0")
        leases[record.shard_index] = record.lease_id
    for envelope in arrival:
        board.submit(leases[envelope.shard_index], envelope)
    assert board.done and not board.abandoned
    payloads = board.finish(lambda item: item).payloads
    assert payloads == [
        pickle.loads(envelope.payload_pickle) for envelope in good]
