"""Socket-distributed execution of the analysis stage graph.

A coordinator (:mod:`repro.dist.coordinator`) partitions each fan-out
stage into the same sorted-contiguous-balanced shards the local
executor uses and serves them as *leases* to pull-based workers
(:mod:`repro.dist.worker`) over a framed, versioned, integrity-checked
protocol (:mod:`repro.dist.protocol`).  Workers run the existing shard
kernels and ship back the existing sealed envelopes, so the ordered
merge — and therefore the results digest — is bit-identical to
``repro-run --jobs 1``, including under injected worker crashes and
network faults (:mod:`repro.faults.network`).

Supervision is the runtime's own lease board
(:mod:`repro.runtime.board`), the scheduler local runs use too: leases
carry hard deadlines, failures are charged per shard with deterministic
backoff, lost workers get their shards reassigned, and exhausted retry
budgets quarantine probes into the same resilience accounting
``repro-run`` reports.  The artifact cache doubles as the shared store — leases carry
checkpoint keys workers can short-circuit from, and the coordinator's
checkpoints interoperate with ``repro-run --resume``.

Entry points: ``repro-dist coordinator`` / ``repro-dist worker``
(:mod:`repro.dist.cli`), or in-process via
:func:`repro.dist.loopback.run_loopback`.
"""

from repro.dist.coordinator import (
    DistConfig,
    DistRunner,
    LeaseServer,
    dist_runner_for_bundle,
    dist_runner_for_world,
)
from repro.dist.loopback import LoopbackRun, run_loopback
from repro.dist.worker import DistWorker, WorkerSummary
from repro.runtime.board import LeaseBoard

__all__ = [
    "DistConfig",
    "DistRunner",
    "DistWorker",
    "LeaseBoard",
    "LeaseServer",
    "LoopbackRun",
    "WorkerSummary",
    "dist_runner_for_bundle",
    "dist_runner_for_world",
    "run_loopback",
]
