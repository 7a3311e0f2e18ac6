"""Socket-distributed execution of the analysis stage graph.

A coordinator (:mod:`repro.dist.coordinator`) is the executor's own
runner whose lease server (:mod:`repro.runtime.server`) also listens on
TCP: it partitions each fan-out stage into the same
sorted-contiguous-balanced shards a local run uses and serves them as
*leases* to pull-based workers (:mod:`repro.runtime.client`) over a
framed, versioned, integrity-checked protocol
(:mod:`repro.runtime.protocol`).  Workers run the existing shard kernels
and ship back the existing sealed envelopes, so the ordered merge — and
therefore the results digest — is bit-identical to ``repro-run --jobs
1``, including under injected worker crashes and network faults
(:mod:`repro.faults.network`).

Local ``--jobs N`` workers speak the same protocol over socketpairs, so
supervision is one loop and one lease board (:mod:`repro.runtime.board`)
for both: leases carry hard deadlines, failures are charged per shard
with deterministic backoff, lost workers get their shards reassigned,
and exhausted retry budgets quarantine probes into the same resilience
accounting ``repro-run`` reports.  The artifact cache doubles as the
shared store — leases carry checkpoint keys workers can short-circuit
from, and the coordinator's checkpoints interoperate with ``repro-run
--resume``.

Entry points: ``repro-dist coordinator`` / ``repro-dist worker``
(:mod:`repro.dist.cli`), or in-process via
:func:`repro.dist.loopback.run_loopback`.
"""

from repro.dist.coordinator import (
    DistConfig,
    dist_runner_for_bundle,
    dist_runner_for_world,
)
from repro.dist.loopback import LoopbackRun, run_loopback

__all__ = [
    "DistConfig",
    "LoopbackRun",
    "dist_runner_for_bundle",
    "dist_runner_for_world",
    "run_loopback",
]
