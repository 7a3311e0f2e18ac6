"""The coordinator: a lease server that also listens on TCP.

A distributed run is a :class:`~repro.runtime.executor.ShardedRunner`
whose :class:`~repro.runtime.server.LeaseServer` listens on a TCP port,
so its fan-out stages are leased to socket workers instead of local
worker processes.  Nothing else differs: the cache handling,
degraded-run rules, per-stage merge logic and result assembly are the
single implementation every run shares, and the lease loop, board,
checkpoints and stage accounting are the ones ``repro-run --jobs N``
uses.  That is the bit-identity argument: the distributed run computes
the same shards with the same kernels and merges them through the same
``ordered_merge`` calls, so its ``results_digest`` matches
``repro-run --jobs 1`` by construction, and the dist test suite pins it
by measurement.

Checkpoints go through the shared artifact cache under the *same* keys
a local run uses (:class:`repro.runtime.supervisor.StageCheckpoints`),
so a distributed run can resume a killed local run's shards and vice
versa, and workers can short-circuit compute via the ``cache_key``
their lease carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.runtime.cache import DEFAULT_MAX_BYTES
from repro.runtime.executor import (
    RuntimeConfig,
    ShardedRunner,
    runner_for_bundle,
    runner_for_world,
)
from repro.runtime.server import LeaseServer
from repro.util import timeutil


@dataclass(frozen=True)
class DistConfig:
    """Coordinator knobs, orthogonal to what is computed."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``LeaseServer.port``).
    port: int = 0
    #: Expected worker count — a shard-count hint, exactly like the local
    #: path's ``jobs`` (outputs are identical for every value).
    workers: int = 2
    #: Explicit shard count; default ``workers * OVERSHARD`` per stage.
    shards: int | None = None
    #: Shared artifact cache; also the checkpoint/short-circuit store.
    cache_dir: str | Path | None = None
    max_cache_bytes: int = DEFAULT_MAX_BYTES
    #: Reload completed shard checkpoints before serving a stage.
    resume: bool = False
    max_retries: int = timeutil.MAX_SHARD_RETRIES
    #: Execution budget per lease; the clock starts at grant.
    lease_deadline_s: float = timeutil.LEASE_DEADLINE_S
    backoff_base_s: float = timeutil.BACKOFF_BASE_S
    #: Longest the coordinator loop sleeps when nothing is due, and the
    #: retry-after hint handed to empty-handed workers.
    poll_s: float = timeutil.DIST_POLL_S

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1, got %r"
                             % (self.workers,))
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0, got %r"
                             % (self.max_retries,))
        if self.lease_deadline_s <= 0:
            raise ValueError("lease_deadline_s must be positive, got %r"
                             % (self.lease_deadline_s,))
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0, got %r"
                             % (self.backoff_base_s,))
        if self.poll_s <= 0:
            raise ValueError("poll_s must be positive, got %r"
                             % (self.poll_s,))

    def server(self) -> LeaseServer:
        """A lease server listening on ``host:port``."""
        return LeaseServer(self.runtime_config().policy(),
                           poll_s=self.poll_s,
                           listen=(self.host, self.port))

    def runtime_config(self) -> RuntimeConfig:
        """The executor config a coordinator runner runs under.

        ``jobs`` must exceed 1 for the executor to take the sharded
        path at all; the runner then serves every fan-out stage through
        the listening lease server instead of local worker processes.
        """
        return RuntimeConfig(
            jobs=max(2, self.workers), shards=self.shards,
            cache_dir=self.cache_dir,
            max_cache_bytes=self.max_cache_bytes,
            resume=self.resume,
            max_retries=self.max_retries,
            shard_deadline_s=self.lease_deadline_s,
            backoff_base_s=self.backoff_base_s)


def dist_runner_for_bundle(bundle, config: DistConfig,
                           server: LeaseServer | None = None,
                           min_connected: float | None = None
                           ) -> ShardedRunner:
    """Coordinator runner over a loaded bundle (see
    :func:`repro.runtime.executor.runner_for_bundle`)."""
    return runner_for_bundle(bundle, config.runtime_config(),
                             min_connected=min_connected,
                             server=server or config.server())


def dist_runner_for_world(world, config: DistConfig,
                          server: LeaseServer | None = None,
                          min_connected: float | None = None
                          ) -> ShardedRunner:
    """Coordinator runner over an in-memory simulated world (see
    :func:`repro.runtime.executor.runner_for_world`)."""
    return runner_for_world(world, config.runtime_config(),
                            min_connected=min_connected,
                            server=server or config.server())
