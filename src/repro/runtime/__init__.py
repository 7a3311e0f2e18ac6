"""repro.runtime — sharded parallel execution with artifact caching.

The analysis pipeline (:mod:`repro.core.pipeline`) is a chain of pure
stage functions, embarrassingly parallel per probe and fully deterministic.
This package exploits both properties:

* :mod:`repro.runtime.stages` declares the pipeline as an explicit stage
  graph — named stages with declared inputs and outputs, validated as a
  DAG;
* :mod:`repro.runtime.executor` partitions probes into deterministic
  shards and fans the per-probe stages out over worker processes, merging
  shard results in canonical order so ``jobs=N`` output is bit-identical
  to ``jobs=1``;
* :mod:`repro.runtime.cache` stores stage outputs content-addressed on
  the bundle fingerprint, stage name, code version and parameters, so
  warm re-runs skip every unchanged stage;
* :mod:`repro.runtime.supervisor` wraps the fan-out in fault tolerance —
  worker crash/hang detection and per-shard checkpoints for ``--resume``
  — over :mod:`repro.runtime.board`, the lease board that owns bounded
  retry with deterministic backoff and quarantine-with-exact-accounting
  when retries are exhausted (the run degrades, never dies).  The
  distributed coordinator drives the same board.

``repro-run`` (:mod:`repro.runtime.cli`) drives the graph from the shell;
``repro-experiment`` threads ``--jobs/--cache-dir/--no-cache`` through to
the same executor.
"""

from repro.runtime.cache import ArtifactCache, CacheStats, code_version
from repro.runtime.digest import results_digest
from repro.runtime.executor import (
    RunReport,
    RuntimeConfig,
    ShardedRunner,
    StageTiming,
    resolve_start_method,
    runner_for_bundle,
    runner_for_world,
    world_fingerprint,
)
from repro.runtime.sharding import partition, shard_count
from repro.runtime.stages import STAGES, StageSpec, topological_order
from repro.runtime.board import (
    ShardFailure,
    StageResilience,
    SupervisionPolicy,
)
from repro.runtime.supervisor import CheckpointManifest, ShardSupervisor

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CheckpointManifest",
    "RunReport",
    "RuntimeConfig",
    "ShardFailure",
    "ShardSupervisor",
    "ShardedRunner",
    "STAGES",
    "StageResilience",
    "StageSpec",
    "StageTiming",
    "SupervisionPolicy",
    "code_version",
    "partition",
    "resolve_start_method",
    "results_digest",
    "runner_for_bundle",
    "runner_for_world",
    "shard_count",
    "topological_order",
    "world_fingerprint",
]
