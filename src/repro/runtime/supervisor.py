"""Supervised fault-tolerant shard execution on local worker processes.

:class:`ShardSupervisor` sits between :class:`~repro.runtime.executor.
ShardedRunner` and ``jobs`` worker processes and makes one guarantee: a
worker dying, hanging, or returning a corrupted result envelope does not
abort the run, and when recovery succeeds the merged stage outputs are
*bit-identical* to the serial pipeline's.

It is a transport adapter over :class:`~repro.runtime.board.LeaseBoard`,
the same scheduler the distributed coordinator drives.  Each worker is
a plain :mod:`multiprocessing` process with its own pipe and holds at
most one lease, so every failure names its shard by construction:

* a result envelope arrives → ``board.submit`` (a seal mismatch is a
  ``corrupt`` charge, never a poisoned merge);
* the kernel raises → the worker reports the error and keeps serving →
  ``board.fail_lease`` (``crash``);
* the worker dies holding a lease (its pipe hits EOF or its process
  sentinel fires) → ``board.fail_lease(lost=True)`` (``crash``), and
  only that worker is respawned;
* ``board.expire()`` returns a lease past its deadline → only the worker
  holding it is killed and respawned (``hang``).

A worker is leased work only after it reports ready, so the deadline
measures execution — never spawn start-up, never time spent waiting for
a free worker.  The loop blocks on every pipe and process sentinel at
once (:func:`multiprocessing.connection.wait`) with the board's next
deadline or backoff instant as its timeout, so backoff is a not-before
time on the board, never a sleep in the parent.

Completed envelopes are also **checkpointed** through the
content-addressed artifact cache (:class:`StageCheckpoints`; key:
fingerprint, ``shard:<stage>``, code version, params + partition
digest), so ``repro-run --resume`` after a mid-run kill re-dispatches
only the shards that never completed; the :class:`CheckpointManifest`
pins the partition the checkpoints belong to.  Stages running
downstream of a degraded stage are *tainted* — their shard inputs differ
from a clean run's in ways the size-only partition digest cannot
distinguish — so checkpointing is disabled for them entirely (the
executor applies the same rule to stage artifacts).  The distributed
coordinator uses the same checkpoint and stage-closing functions, so the
two schedulers interoperate on resume and report identically.

Determinism note: payloads are collected into a per-index map and merged
in shard-index order after the stage drains, so neither completion order
nor the retry schedule can perturb the ordered merge (pinned by a
hypothesis property test).  Worker spans/metrics are absorbed in the same
index order, keeping even the merged trace deterministic.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Callable

from repro import obs
from repro.errors import EnvelopeCorruptError, SupervisionError
from repro.runtime import workers
# The failure causes stay importable from here: reports and tests name
# them as the supervisor's vocabulary.
from repro.runtime.board import (
    CAUSE_CORRUPT,
    CAUSE_CRASH,
    CAUSE_HANG,
    SUBMIT_LATE,
    SUBMIT_RESOLVED,
    LeaseBoard,
    LeaseRecord,
    StageOutcome,
    SupervisionPolicy,
)
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

    Both schedulers derive keys here from the same identity, which is
    what lets ``repro-run --resume`` pick up checkpoints a distributed
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
    finished row — the same names for both schedulers.
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


@dataclass
class _Worker:
    """One local leaseholder: a worker process and the parent's pipe end."""

    slot: int
    process: multiprocessing.process.BaseProcess
    conn: Connection
    ready: bool = False
    lease: LeaseRecord | None = None


class ShardSupervisor:
    """Leases shard tasks to local worker processes through a board.

    One supervisor serves every fan-out stage of one run; it owns the
    worker processes (started on the first fan-out, replaced one at a
    time after a crash or hang) and shares nothing with them but the
    dataset context and one pipe each.
    """

    def __init__(self, context: workers.WorkerContext, jobs: int,
                 start_method: str,
                 policy: SupervisionPolicy | None = None,
                 cache: ArtifactCache | None = None,
                 fingerprint: str = "", version: str = "",
                 params: str = "", resume: bool = False) -> None:
        self.jobs = jobs
        self.start_method = start_method
        self.policy = policy or SupervisionPolicy()
        self.cache = cache
        self.fingerprint = fingerprint
        self.version = version
        self.params = params
        self.resume = resume
        self._context = context
        self._installed = False
        self._workers: list[_Worker] = []

    # -- worker processes ---------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        """Start one worker process under the resolved start method.

        Fork installs the context parent-side (once) for copy-on-write
        inheritance; spawn ships it to each new process as an argument.
        """
        mp_context = multiprocessing.get_context(self.start_method)
        conn, child = mp_context.Pipe()
        if self.start_method == "fork":
            if not self._installed:
                workers.init_worker(self._context)
                self._installed = True
            # The child inherits every parent-side pipe end and closes
            # them, so it sees EOF if this process dies.
            inherited = tuple(worker.conn for worker in self._workers
                              if not worker.conn.closed)
            args: tuple = (child, None, (conn, *inherited))
        else:
            args = (child, self._context)
        process = mp_context.Process(
            target=workers.serve, args=args,
            name="repro-shard-worker-%d" % slot, daemon=True)
        process.start()
        child.close()
        return _Worker(slot=slot, process=process, conn=conn)

    @staticmethod
    def _stop(worker: _Worker) -> int | None:
        """Kill and reap one worker; returns its exit code."""
        worker.process.kill()
        worker.process.join()
        code = worker.process.exitcode
        worker.process.close()
        worker.conn.close()
        return code

    def _replace(self, worker: _Worker) -> int | None:
        code = self._stop(worker)
        self._workers[worker.slot] = self._spawn(worker.slot)
        obs.count("runtime.pool.respawns")
        return code

    def shutdown(self) -> None:
        """Stop every worker process and drop the worker context."""
        for worker in self._workers:
            self._stop(worker)
        self._workers = []
        self._installed = False
        workers.reset_worker()

    # -- the supervision loop -----------------------------------------------

    def run_stage(self, stage: str, task_name: str,
                  shards: list[list],
                  probe_of: Callable[[object], int] = lambda item: item,
                  tainted: bool = False) -> StageOutcome:
        """Run one fan-out stage under supervision.

        ``probe_of`` extracts the probe id from one shard item (identity
        for probe-id shards, first element for the ``gaps`` stage's
        ``(probe_id, reboots)`` tuples) — it is only used to account
        quarantined probes for abandoned shards.

        ``tainted`` marks a stage computed downstream of a degraded one:
        its inputs are missing quarantined work, so its checkpoints are
        neither stored nor loaded (see :meth:`StageCheckpoints.for_stage`).
        """
        checkpoints = StageCheckpoints.for_stage(
            self.cache, self.fingerprint, stage, shards, self.version,
            self.params, tainted)
        with obs.span("supervise:%s" % stage, category="supervisor",
                      stage=stage, shards=len(shards)) as handle:
            resolved = checkpoints.begin(len(shards), self.resume)
            board = LeaseBoard(stage, shards, self.policy,
                               resolved=resolved)
            stored = self._drive(board, task_name, checkpoints)
            outcome = finish_stage(board, probe_of, len(resolved), stored)
            row = outcome.resilience
            handle.set(retries=row.retries,
                       reassignments=row.reassignments,
                       abandoned=len(row.abandoned),
                       checkpoints_loaded=row.checkpoints_loaded,
                       checkpoints_stored=row.checkpoints_stored)
        return outcome

    def _drive(self, board: LeaseBoard, task_name: str,
               checkpoints: StageCheckpoints) -> int:
        """Lease shards to idle workers until the board is done.

        Returns the number of checkpoints stored.
        """
        stored = 0
        if not board.done and not self._workers:
            for slot in range(self.jobs):
                self._workers.append(self._spawn(slot))
        while not board.done:
            # One clock reading per turn (see the board's module doc).
            now = board.clock()
            for record in board.expire(now):
                for worker in self._workers:
                    if worker.lease is not None \
                            and worker.lease.lease_id == record.lease_id:
                        worker.lease = None
                        self._replace(worker)
                        break
            for worker in self._workers:
                if not worker.ready or worker.lease is not None:
                    continue
                record = board.lease("local-%d" % worker.slot, now)
                if record is None:
                    break
                worker.lease = record
                try:
                    worker.conn.send((task_name,
                                      board.shards[record.shard_index],
                                      record.shard_index, record.attempt))
                except OSError:
                    pass  # the worker is dead; its sentinel says so below
            at = board.wakeup_at(now)
            timeout = None if at is None else max(0.0, at - board.clock())
            watched: list = [worker.conn for worker in self._workers]
            watched += [worker.process.sentinel for worker in self._workers]
            ready = wait(watched, timeout)
            for worker in list(self._workers):
                alive = True
                if worker.conn in ready:
                    alive, count = self._receive(worker, board,
                                                 checkpoints)
                    stored += count
                if not alive or worker.process.sentinel in ready:
                    self._lost(worker, board)
        return stored

    @staticmethod
    def _receive(worker: _Worker, board: LeaseBoard,
                 checkpoints: StageCheckpoints) -> tuple[bool, int]:
        """Fold every message waiting on one worker's pipe.

        Returns ``(alive, checkpoints stored)``; ``alive`` is False once
        the pipe reports EOF (the worker died).
        """
        stored = 0
        try:
            while worker.conn.poll():
                message = worker.conn.recv()
                if isinstance(message, int):
                    worker.ready = True  # the worker's pid: it is ready
                    continue
                # Any other message answers the task this worker leased.
                record, worker.lease = worker.lease, None
                if isinstance(message, str):
                    board.fail_lease(record.lease_id, message)
                elif board.submit(record.lease_id, message) in (
                        SUBMIT_RESOLVED, SUBMIT_LATE) \
                        and checkpoints.store(message):
                    stored += 1
        except (EOFError, OSError):
            return False, stored
        return True, stored

    def _lost(self, worker: _Worker, board: LeaseBoard) -> None:
        """A worker died: charge its lease (if any) and replace it."""
        record, worker.lease = worker.lease, None
        was_ready = worker.ready
        code = self._replace(worker)
        if not was_ready:
            raise SupervisionError(
                "shard worker %d exited with code %s before it was ready"
                % (worker.slot, code))
        if record is not None:
            board.fail_lease(record.lease_id,
                             "worker exited with code %s" % code, lost=True)
