"""Shard checkpoints and stage closing for the lease loop.

Every fan-out stage — served to local worker processes or to socket
workers, through the one loop in :mod:`repro.runtime.server` — opens
its checkpoints here and is closed here, so the two kinds of run resume
each other's checkpoints and report identically.

Completed envelopes are **checkpointed** through the content-addressed
artifact cache (:class:`StageCheckpoints`; key: fingerprint,
``shard:<stage>``, code version, params + partition digest), so
``repro-run --resume`` after a mid-run kill re-dispatches only the
shards that never completed; the :class:`CheckpointManifest` pins the
partition the checkpoints belong to.  Stages running downstream of a
degraded stage are *tainted* — their shard inputs differ from a clean
run's in ways the size-only partition digest cannot distinguish — so
checkpointing is disabled for them entirely (the executor applies the
same rule to stage artifacts).

Determinism note: payloads are collected into a per-index map and merged
in shard-index order after the stage drains, so neither completion order
nor the retry schedule can perturb the ordered merge (pinned by a
hypothesis property test).  :func:`finish_stage` absorbs worker
spans/metrics in the same index order, keeping even the merged trace
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.errors import EnvelopeCorruptError, SupervisionError
from repro.runtime import workers
from repro.runtime.board import LeaseBoard, StageOutcome
from repro.runtime.cache import ArtifactCache
from repro.util import fingerprint as fp


@dataclass(frozen=True)
class CheckpointManifest:
    """Identity of one stage's shard checkpoints in the artifact cache.

    Persisted through the cache itself and re-validated on ``--resume``;
    it crosses a persistence boundary, so its layout is a wire contract
    (RPR010).
    """

    __wire_contract__ = "checkpoint-manifest"

    stage: str
    shard_count: int
    partition_digest: str
    keys: tuple[str, ...]


def partition_digest(stage: str, shards: list[list]) -> str:
    """Fingerprint of a stage's shard partition (count + sizes).

    Shard *contents* are already pinned by the cache key's bundle
    fingerprint / code version / params; what the checkpoint key must
    additionally capture is how the work was cut, so a rerun with a
    different ``--shards`` cannot resume half a foreign partition.
    """
    return fp.combine("partition", stage, str(len(shards)),
                      *[str(len(shard)) for shard in shards])


def validate_manifest(manifest: object, stage: str, partition: str,
                      shard_count: int) -> None:
    """Reject a manifest recorded for a differently-cut partition.

    The content-addressed keys already embed the partition digest, so
    foreign checkpoints can never silently match — this check exists to
    *surface* the mismatch instead of quietly recomputing everything.
    """
    if isinstance(manifest, CheckpointManifest) and (
            manifest.partition_digest != partition
            or manifest.shard_count != shard_count):
        raise SupervisionError(
            "checkpoint manifest for stage %r does not match the "
            "current shard partition; clear the cache or rerun "
            "without --resume" % (stage,))


@dataclass(frozen=True)
class StageCheckpoints:
    """One stage's shard checkpoints in the artifact cache.

    Local and socket runs derive keys here from the same identity, which
    is what lets ``repro-run --resume`` pick up checkpoints a distributed
    run stored and vice versa.  ``cache`` is ``None`` when checkpointing
    is off for the stage.
    """

    cache: ArtifactCache | None
    fingerprint: str
    stage: str
    version: str
    params: str
    partition: str

    @classmethod
    def for_stage(cls, cache: ArtifactCache | None, fingerprint: str,
                  stage: str, shards: list[list], version: str,
                  params: str, tainted: bool) -> "StageCheckpoints":
        # A tainted stage (downstream of a degraded one) must neither
        # store nor load checkpoints: its shard inputs differ from a
        # clean run's — e.g. ``gaps`` items carry ``[]`` where reboots
        # were quarantined — with the same shard *sizes*, which is all
        # the partition digest in the checkpoint key can see.
        enabled = cache is not None and bool(fingerprint) and not tainted
        return cls(cache=cache if enabled else None,
                   fingerprint=fingerprint, stage=stage, version=version,
                   params=params,
                   partition=partition_digest(stage, shards))

    @property
    def enabled(self) -> bool:
        return self.cache is not None

    def shard_key(self, index: int) -> str:
        """Cache key of one shard's checkpointed envelope."""
        return ArtifactCache.key(
            self.fingerprint, "shard:%s:%d" % (self.stage, index),
            self.version, fp.combine(self.params, self.partition))

    def _manifest_key(self) -> str:
        return ArtifactCache.key(
            self.fingerprint, "manifest:%s" % self.stage, self.version,
            fp.combine(self.params, self.partition))

    def begin(self, shard_count: int, resume: bool) -> dict[int, object]:
        """Open the stage: resume its checkpoints, then pin its manifest.

        With ``resume``, returns the verified payload of every
        checkpointed shard.  Loads go through the normal cache API, so
        resumed shards are visible as cache *hits*; a corrupt checkpoint
        is a miss and its shard is recomputed.  A manifest from a
        different partition raises (see :func:`validate_manifest`).
        When shards remain to compute, the manifest is stored first.
        """
        if self.cache is None:
            return {}
        resolved: dict[int, object] = {}
        if resume:
            hit, manifest = self.cache.load(
                self._manifest_key(), stage="manifest:%s" % self.stage)
            if hit:
                validate_manifest(manifest, self.stage, self.partition,
                                  shard_count)
            for index in range(shard_count):
                hit, envelope = self.cache.load(
                    self.shard_key(index), stage="shard:%s" % self.stage)
                if not hit or not isinstance(envelope, workers.ShardResult):
                    continue
                try:
                    resolved[index] = envelope.open_payload()
                except EnvelopeCorruptError:
                    continue
        if len(resolved) < shard_count:
            self.cache.store(self._manifest_key(), CheckpointManifest(
                stage=self.stage, shard_count=shard_count,
                partition_digest=self.partition,
                keys=tuple(self.shard_key(index)
                           for index in range(shard_count))))
        return resolved

    def store(self, envelope: workers.ShardResult) -> bool:
        """Persist one verified envelope; True only if it was written."""
        if self.cache is None:
            return False
        self.cache.store(self.shard_key(envelope.shard_index), envelope)
        return True


def finish_stage(board: LeaseBoard, probe_of: Callable[[object], int],
                 checkpoints_loaded: int,
                 checkpoints_stored: int) -> StageOutcome:
    """Close one drained board: its outcome, worker obs and counters.

    Worker spans and metrics are absorbed in shard-index order, so the
    merged trace is deterministic whatever order the envelopes arrived
    in.  The supervision counters are emitted here, once, from the
    finished row — the same names for local and socket runs.
    """
    outcome = board.finish(probe_of, checkpoints_loaded=checkpoints_loaded,
                           checkpoints_stored=checkpoints_stored)
    for index in sorted(board.envelopes):
        envelope = board.envelopes[index]
        obs.absorb_spans(span.with_attrs(shard=index)
                         for span in envelope.spans)
        obs.metrics().absorb(envelope.metrics)
    row = outcome.resilience
    counts = {"runtime.retries": row.retries,
              "runtime.reassignments": row.reassignments,
              "runtime.quarantined_shards": len(row.abandoned),
              "runtime.checkpoints.loaded": row.checkpoints_loaded,
              "runtime.checkpoints.stored": row.checkpoints_stored}
    for failure in row.failures:
        name = "runtime.shard.failures.%s" % failure.cause
        counts[name] = counts.get(name, 0) + 1
    for name, value in counts.items():
        if value:
            obs.count(name, value)
    return outcome
