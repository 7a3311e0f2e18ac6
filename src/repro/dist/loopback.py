"""Loopback mode: coordinator plus N in-process worker threads.

One process, real sockets: the coordinator's lease server listens on
``127.0.0.1`` and ``N`` worker threads dial it over the loopback
interface, exercising the entire wire protocol — framing, handshake,
leases, sealed envelopes, drain — with none of the multi-process
orchestration.  This is what the benchmark harness, the CI smoke job
and most of the dist test suite run.  The lease loop itself runs in the
caller's thread, inside :meth:`ShardedRunner.run` and then
:meth:`LeaseServer.finish`.

The worker threads share the coordinator's process, which has two
consequences this module owns:

* the dataset context is installed once (``fork``-style) via
  :func:`repro.runtime.workers.init_worker` and shared by every thread
  — the kernels' per-probe memoization is pure, so concurrent threads
  at worst recompute a verdict they would have shared;
* the obs span collector is process-global, so loopback workers seal
  their envelopes with ``ship_obs=False``: their spans and metrics are
  recorded where the trace is written, not drained into envelopes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.runtime import workers
from repro.runtime.cache import ArtifactCache
from repro.runtime.client import LeaseClient, WorkerSummary
from repro.runtime.digest import results_digest
from repro.runtime.executor import ShardedRunner
from repro.util import timeutil


@dataclass
class LoopbackRun:
    """Everything a loopback run produced."""

    results: object
    report: object
    digest: str
    summaries: dict[str, WorkerSummary]
    #: worker_id -> stringified exception, for workers that died.
    worker_errors: dict[str, str]


def run_loopback(runner: ShardedRunner, context: workers.WorkerContext,
                 worker_count: int = 2,
                 fault_plans: dict[str, object] | None = None,
                 socket_timeout_s: float = timeutil.DIST_SOCKET_TIMEOUT_S,
                 join_timeout_s: float = timeutil.DIST_DRAIN_GRACE_S
                 ) -> LoopbackRun:
    """Run the full pipeline through the wire with in-process workers.

    ``runner`` is a coordinator runner (:func:`repro.dist.coordinator.
    dist_runner_for_bundle`); its server is finished and closed here.
    ``fault_plans`` maps worker ids (``"w0"``, ``"w1"``, ...) to network
    fault plans for the workers that should run over a faulty channel.
    Worker ids are fixed and ordinal so fault seeding is deterministic.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1, got %r"
                         % (worker_count,))
    server = runner._server
    workers.init_worker(context)
    summaries: dict[str, WorkerSummary] = {}
    errors: dict[str, str] = {}
    threads: list[threading.Thread] = []
    try:
        for ordinal in range(worker_count):
            worker_id = "w%d" % ordinal
            cache = None
            if runner.config.cache_dir is not None:
                # Each worker thread gets its own cache *handle* over the
                # shared directory: writes are atomic, but one shared
                # stats object across threads would not be.
                cache = ArtifactCache(
                    runner.config.cache_dir,
                    max_bytes=runner.config.max_cache_bytes)
            worker = LeaseClient(
                server.host, server.port, worker_id,
                fingerprint=runner.fingerprint, cache=cache,
                fault_plan=(fault_plans or {}).get(worker_id),
                ship_obs=False, socket_timeout_s=socket_timeout_s)

            def serve(worker: LeaseClient = worker,
                      worker_id: str = worker_id) -> None:
                try:
                    summaries[worker_id] = worker.run()
                # A dead worker is a *finding* for the caller (the run
                # may still complete degraded), never a silent loss.
                except Exception as error:  # repro: noqa[RPR004]
                    summaries[worker_id] = worker.summary
                    errors[worker_id] = "%s: %s" % (
                        type(error).__name__, error)

            thread = threading.Thread(
                target=serve, daemon=True,
                name="repro-dist-%s" % worker_id)
            threads.append(thread)
            thread.start()
        results = runner.run()
    finally:

        def drained() -> bool:
            # With no worker connected, give the threads a moment to
            # end; one that redials after a fault connects meanwhile and
            # is served on the next turn.
            if server.connections:
                return False
            for thread in threads:
                thread.join(timeout=timeutil.DIST_POLL_S)
            return not any(thread.is_alive() for thread in threads)

        server.finish(join_timeout_s, until=drained)
        server.close()
        for thread in threads:
            thread.join(timeout=join_timeout_s)
        workers.reset_worker()
    return LoopbackRun(
        results=results, report=runner.report,
        digest=results_digest(results), summaries=summaries,
        worker_errors=errors)
