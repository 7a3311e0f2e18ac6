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
* :mod:`repro.runtime.server` serves every fan-out stage through one
  lease loop — to local worker processes over socketpairs, or to socket
  workers over TCP — with worker crash/hang detection and per-shard
  checkpoints for ``--resume`` (:mod:`repro.runtime.supervisor`), over
  :mod:`repro.runtime.board`, the lease board that owns bounded retry
  with deterministic backoff and quarantine-with-exact-accounting when
  retries are exhausted (the run degrades, never dies).  Workers run the
  lease client in :mod:`repro.runtime.client`.

``repro-run`` (:mod:`repro.runtime.cli`) drives the graph from the shell;
``repro-experiment`` threads ``--jobs/--cache-dir/--no-cache`` through to
the same executor.

The names below resolve on first use (PEP 562 ``__getattr__``), so
``import repro.runtime.digest`` loads the digest alone, not the executor,
the lease board, the lease server, the cache and the workers.
"""

from __future__ import annotations

import importlib

#: Each exported name and the submodule that defines it.
_EXPORTS = {
    "ArtifactCache": "cache",
    "CacheStats": "cache",
    "CheckpointManifest": "supervisor",
    "RunReport": "executor",
    "RuntimeConfig": "executor",
    "ShardFailure": "board",
    "ShardedRunner": "executor",
    "STAGES": "stages",
    "StageResilience": "board",
    "StageSpec": "stages",
    "StageTiming": "executor",
    "SupervisionPolicy": "board",
    "code_version": "cache",
    "partition": "sharding",
    "resolve_start_method": "executor",
    "results_digest": "digest",
    "runner_for_bundle": "executor",
    "runner_for_world": "executor",
    "shard_count": "sharding",
    "topological_order": "stages",
    "world_fingerprint": "executor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("repro.runtime." + submodule),
                    name)
    globals()[name] = value
    return value
