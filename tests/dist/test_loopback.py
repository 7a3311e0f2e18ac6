"""End-to-end loopback runs: the bit-identity and resilience gates.

Every test here drives the complete stage graph through real sockets
(coordinator plus worker threads on 127.0.0.1) and holds the distributed
``results_digest`` to the ``jobs=1`` reference — the tentpole contract.
"""

import dataclasses
import pickle
import threading
import time

import pytest

from repro.faults.network import NetworkFaultPlan, reconcile_network
from repro.runtime import executor, protocol
from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
from repro.runtime.client import LeaseClient
from repro.errors import DistError
from repro.runtime import workers
from repro.runtime.cache import ArtifactCache, code_version
from repro.runtime.stages import topological_order
from repro.util import fingerprint as fp

pytestmark = [pytest.mark.dist, pytest.mark.slow]


def test_loopback_two_workers_matches_serial_digest(dist_run,
                                                    serial_digest):
    run, runner = dist_run(worker_count=2)
    assert run.worker_errors == {}
    assert run.digest == serial_digest
    assert not runner.report.degraded
    served = sum(summary.leases_served
                 for summary in run.summaries.values())
    assert served > 0
    # Every fan-out stage went over the wire and left an account.
    assert {row.stage for row in runner.report.resilience} \
        == {"filter", "spans", "reboots", "gaps"}
    for row in runner.report.resilience:
        assert row.analyzed_items == row.total_items


def test_worker_count_does_not_change_the_digest(dist_run,
                                                 serial_digest):
    run, _ = dist_run(worker_count=3)
    assert run.worker_errors == {}
    assert run.digest == serial_digest


def test_kernel_failures_quarantine_and_degrade(dist_run, serial_digest,
                                                monkeypatch):
    """A stage kernel that always raises exhausts the retry budget:
    its shards are quarantined, the run completes DEGRADED, and the
    accounting stays exact — no hang, no crash, no silent loss."""
    original = workers.SHARD_TASKS["reboots"]

    def exploding(items):
        raise RuntimeError("injected kernel failure")

    monkeypatch.setitem(workers.SHARD_TASKS, "reboots", exploding)
    config = DistConfig(workers=2, max_retries=1, backoff_base_s=0.0)
    run, runner = dist_run(worker_count=2, config=config)
    monkeypatch.setitem(workers.SHARD_TASKS, "reboots", original)
    assert run.worker_errors == {}
    assert runner.report.degraded
    reboots = [row for row in runner.report.resilience
               if row.stage == "reboots"][0]
    assert reboots.quarantined_items == reboots.total_items
    assert reboots.analyzed_items + reboots.quarantined_items \
        == reboots.total_items
    assert len(reboots.abandoned) == reboots.shards
    # Degradation is honest: the digest must NOT match the clean run.
    assert run.digest != serial_digest


def _delete_stage_artifacts(cache_dir, runner):
    """Evict the whole-stage artifacts, keeping shard checkpoints."""
    cache = ArtifactCache(cache_dir)
    params = fp.combine("min_connected", repr(runner._min_connected))
    removed = 0
    for spec in topological_order():
        key = ArtifactCache.key(runner.fingerprint, spec.name,
                                code_version(), params)
        path = cache._path(key)
        if path.exists():
            path.unlink()
            removed += 1
    assert removed, "no stage artifacts found to delete"


def test_workers_short_circuit_from_shared_cache(tmp_path, bundle,
                                                 dist_run,
                                                 serial_digest):
    """Second run with stage artifacts evicted but shard checkpoints
    kept: leases carry cache keys and workers answer from the shared
    store without recomputing (``cache_hit``)."""
    cache_dir = tmp_path / "cache"
    config = DistConfig(workers=2, cache_dir=cache_dir)
    cold, cold_runner = dist_run(worker_count=2, config=config)
    assert cold.digest == serial_digest
    _delete_stage_artifacts(cache_dir, cold_runner)
    warm, warm_runner = dist_run(worker_count=2, config=config)
    assert warm.digest == serial_digest
    hits = sum(summary.cache_hits
               for summary in warm.summaries.values())
    served = sum(summary.leases_served
                 for summary in warm.summaries.values())
    assert hits == served > 0, "every lease should be a cache hit"


def test_resume_preloads_checkpoints_before_serving(tmp_path, dist_run,
                                                    serial_digest):
    """``--resume``: the coordinator resolves every checkpointed shard
    before granting a single lease, interoperating with the checkpoint
    keys the pool supervisor writes."""
    cache_dir = tmp_path / "cache"
    cold_config = DistConfig(workers=2, cache_dir=cache_dir)
    cold, cold_runner = dist_run(worker_count=2, config=cold_config)
    _delete_stage_artifacts(cache_dir, cold_runner)
    resume_config = DistConfig(workers=2, cache_dir=cache_dir,
                               resume=True)
    warm, warm_runner = dist_run(worker_count=2, config=resume_config)
    assert warm.digest == serial_digest
    for row in warm_runner.report.resilience:
        assert row.checkpoints_loaded == row.shards
    served = sum(summary.leases_served
                 for summary in warm.summaries.values())
    assert served == 0, "resumed shards must never be re-leased"


def test_hello_rejects_a_worker_with_the_wrong_bundle(bundle):
    config = DistConfig(workers=1)
    runner = dist_runner_for_bundle(bundle, config)
    server = runner._server
    errors = []
    worker = LeaseClient(host=server.host, port=server.port,
                         worker_id="intruder",
                         fingerprint="not-the-same-bundle")

    def dial() -> None:
        try:
            worker.run()
        except DistError as error:
            errors.append(str(error))

    thread = threading.Thread(target=dial, daemon=True)
    thread.start()
    try:
        # The loop runs only inside the runner's calls: pump it here.
        server.finish(10.0, until=lambda: not thread.is_alive())
    finally:
        server.close()
    thread.join(timeout=10.0)
    [message] = errors
    assert "rejected" in message and "fingerprint" in message


def test_worker_cache_short_circuit_unit(tmp_path):
    """A verified cached envelope answers the lease without compute;
    a corrupt one falls through (and here surfaces the kernel error,
    since no worker context is installed)."""
    cache = ArtifactCache(tmp_path / "cache")
    blob = pickle.dumps({1: "payload"},
                        protocol=pickle.HIGHEST_PROTOCOL)
    good = workers.ShardResult(shard_index=2, attempt=0,
                               payload_pickle=blob,
                               seal=fp.hash_bytes(blob))
    cache.store("good-key", good)
    corrupt = workers.ShardResult(shard_index=2, attempt=0,
                                  payload_pickle=blob + b"x",
                                  seal=fp.hash_bytes(blob))
    cache.store("bad-key", corrupt)
    worker = LeaseClient(host="", port=0, worker_id="w0", cache=cache)
    lease = protocol.Lease(lease_id=1, stage="filter", shard_index=2,
                           attempt=0, items=(1,), cache_key="good-key")
    result = worker._compute(lease)
    assert result.cache_hit
    assert result.envelope.open_payload() == {1: "payload"}
    bad_lease = protocol.Lease(lease_id=2, stage="filter", shard_index=2,
                               attempt=0, items=(1,),
                               cache_key="bad-key")
    fallthrough = worker._compute(bad_lease)
    assert not fallthrough.cache_hit
    assert "worker context" in fallthrough.error


def test_workers_idle_past_their_socket_timeout_between_stages(
        dist_run, serial_digest, monkeypatch):
    """Nothing reads the worker sockets while the coordinator runs an
    inline stage.  One slowed past the workers' socket timeout makes
    their parked pulls time out; they redial, serve the later stages,
    and the run keeps the serial digest and an exact account."""
    stall_s = 1.5
    ordered = executor.topological_order()

    def slowed(spec):
        def func(*inputs):
            time.sleep(stall_s)
            return spec.func(*inputs)
        return dataclasses.replace(spec, func=func)

    monkeypatch.setattr(executor, "topological_order", lambda: tuple(
        slowed(spec) if spec.name == "changes" else spec
        for spec in ordered))
    outcome: dict = {}

    def run() -> None:
        outcome["run"] = dist_run(worker_count=2, socket_timeout_s=0.5)

    deadline_s = 60.0
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=deadline_s)
    assert not thread.is_alive(), "loopback run outlived %.0f s" % deadline_s
    run, runner = outcome["run"]
    assert run.worker_errors == {}
    # The stall outlasted the timeout: some pull timed out and redialed.
    assert sum(s.reconnects for s in run.summaries.values()) > 0
    assert run.digest == serial_digest
    report = reconcile_network(
        NetworkFaultPlan(), [s.injected for s in run.summaries.values()],
        runner.report.resilience)
    assert report.accounted and not report.degraded
    assert report.total_items > 0
