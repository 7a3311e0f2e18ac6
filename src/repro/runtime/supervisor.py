"""Supervised fault-tolerant shard execution.

:class:`ShardSupervisor` sits between :class:`~repro.runtime.executor.
ShardedRunner` and the worker pool and makes one guarantee: a worker
process dying, hanging, or returning a corrupted result envelope does not
abort the run, and when recovery succeeds the merged stage outputs are
*bit-identical* to the serial pipeline's.  It does this with four
mechanisms:

* **crash recovery** — a dead worker breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`
  (``BrokenProcessPool``); the supervisor respawns a fresh pool and
  re-dispatches every unfinished shard.  At most ``jobs`` shards are in
  flight at a time (the rest wait in a ready queue), so a break can only
  implicate the in-flight set: each in-flight shard is charged a failed
  attempt (the culprit is necessarily among them) and re-dispatched.
  Because the break does not say *which* shard killed the worker, such
  an ambiguous charge never quarantines by itself — a shard over its
  retry budget without any individually-attributable failure gets one
  more attempt *in isolation*, where a repeat failure is unambiguous.
* **hang detection** — each dispatched shard carries a deadline
  (:data:`repro.util.timeutil.SHARD_DEADLINE_S` by default).  Bounded
  dispatch means dispatch == execution start, so the deadline measures
  execution, never time spent queued behind other shards.  A shard past
  its deadline is declared hung, but the pool is only torn down — every
  worker ``SIGKILL``\\ ed via the heartbeat-spool registry plus the
  pool's own process table — once *no* pending shard is healthy:
  killing a hung worker breaks the whole pool, so deferring the
  teardown lets live workers keep completing shards and batches co-hung
  shards into one recovery wave instead of one teardown each.
* **envelope verification** — every :class:`~repro.runtime.workers.
  ShardResult` is sealed worker-side with the SHA-256 of its payload
  pickle; a seal mismatch on the parent side is a failed attempt, never
  a poisoned merge.
* **bounded retry with deterministic backoff** — attempt ``n`` waits
  ``backoff_base_s * 2**(n-1)`` (a pure function of the attempt number,
  so reruns behave identically); a shard whose failed attempts exceed
  ``max_retries`` is *abandoned* and its probes quarantined with exact
  accounting (``analyzed + quarantined == total``), which degrades the
  run instead of killing it.

Completed envelopes are also **checkpointed** through the
content-addressed artifact cache (key: fingerprint, ``shard:<stage>``,
code version, params + partition digest), so ``repro-run --resume`` after
a mid-run kill re-dispatches only the shards that never completed; the
:class:`CheckpointManifest` pins the partition the checkpoints belong to.
Stages running downstream of a degraded stage are *tainted* — their
shard inputs differ from a clean run's in ways the size-only partition
digest cannot distinguish — so checkpointing is disabled for them
entirely (the executor applies the same rule to stage artifacts).

Determinism note: payloads are collected into a per-index map and merged
in shard-index order after the stage drains, so neither completion order
nor the retry schedule can perturb the ordered merge (pinned by a
hypothesis property test).  Worker spans/metrics are absorbed in the same
index order, keeping even the merged trace deterministic.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro import obs
from repro.errors import EnvelopeCorruptError, SupervisionError
from repro.runtime import workers
from repro.runtime.cache import ArtifactCache
from repro.util import fingerprint as fp
from repro.util import timeutil

#: Failure causes recorded per failed shard attempt.
CAUSE_CRASH = "crash"
CAUSE_HANG = "hang"
CAUSE_CORRUPT = "corrupt"

#: Ceiling on one backoff sleep, whatever the attempt number says.
_BACKOFF_CAP_S = timeutil.MINUTE

#: How long the wait loop sleeps when no deadline is nearer.
_POLL_S = 0.05


@dataclass(frozen=True)
class SupervisionPolicy:
    """Retry/deadline knobs, all defaulting to the timeutil constants."""

    max_retries: int = timeutil.MAX_SHARD_RETRIES
    shard_deadline_s: float = timeutil.SHARD_DEADLINE_S
    backoff_base_s: float = timeutil.BACKOFF_BASE_S

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0, got %r"
                             % (self.max_retries,))
        if self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive, got %r"
                             % (self.shard_deadline_s,))
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0, got %r"
                             % (self.backoff_base_s,))

    def backoff_s(self, attempt: int) -> float:
        """Deterministic exponential backoff before attempt ``attempt``."""
        if attempt <= 0 or self.backoff_base_s == 0:
            return 0.0
        return min(self.backoff_base_s * 2 ** (attempt - 1), _BACKOFF_CAP_S)


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, as observed by the supervisor."""

    stage: str
    shard_index: int
    attempt: int
    cause: str  # crash | hang | corrupt
    detail: str = ""


@dataclass
class StageResilience:
    """Supervision account of one stage's shard fan-out.

    The quarantine invariant holds by construction and is re-asserted by
    the fault-matrix tests: ``analyzed + quarantined == total`` where the
    totals count the stage's work items (probes).
    """

    stage: str
    shards: int
    total_items: int
    analyzed_items: int
    quarantined_items: int
    retries: int = 0
    reassignments: int = 0
    abandoned: tuple[int, ...] = ()
    quarantined_probes: tuple[int, ...] = ()
    failures: tuple[ShardFailure, ...] = ()
    checkpoints_loaded: int = 0
    checkpoints_stored: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.abandoned)


@dataclass
class StageOutcome:
    """What :meth:`ShardSupervisor.run_stage` hands back to the executor."""

    #: Payloads in shard-index order; abandoned shards are ``None``.
    payloads: list
    resilience: StageResilience


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


def shard_checkpoint_key(fingerprint: str, stage: str, index: int,
                         version: str, params: str, partition: str) -> str:
    """Cache key of one shard's checkpointed envelope.

    Module-level so every executor that checkpoints shards — the pool
    supervisor here and the dist coordinator — derives the *same* key
    from the same identity, which is what lets ``repro-run --resume``
    pick up checkpoints a distributed run stored and vice versa.
    """
    return ArtifactCache.key(
        fingerprint, "shard:%s:%d" % (stage, index), version,
        fp.combine(params, partition))


def manifest_checkpoint_key(fingerprint: str, stage: str,
                            version: str, params: str,
                            partition: str) -> str:
    """Cache key of one stage's :class:`CheckpointManifest`."""
    return ArtifactCache.key(
        fingerprint, "manifest:%s" % stage, version,
        fp.combine(params, partition))


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


def resolve_envelopes(envelopes: Iterable[workers.ShardResult]
                      ) -> dict[int, object]:
    """First verified payload per shard index, whatever the arrival order.

    The pure core of the supervisor's merge discipline: envelopes may
    arrive in any completion order and include corrupt duplicates from
    retried attempts; the first envelope per index that passes its seal
    wins, corrupt ones are skipped.  Exercised directly by a hypothesis
    property test (retry order never perturbs the merge).
    """
    resolved: dict[int, object] = {}
    for envelope in envelopes:
        if envelope.shard_index in resolved:
            continue
        try:
            resolved[envelope.shard_index] = envelope.open_payload()
        except EnvelopeCorruptError:
            continue
    return resolved


def payloads_in_order(resolved: Mapping[int, object],
                      shard_count: int) -> list:
    """Payloads in shard-index order, ``None`` where a shard is missing."""
    return [resolved.get(index) for index in range(shard_count)]


@dataclass
class _Pending:
    """Book-keeping for one dispatched shard."""

    shard_index: int
    attempt: int  # failed attempts so far == attempt number being run
    deadline: float  # monotonic instant after which the shard is hung
    seq: int  # dispatch order; earliest-dispatched == first picked up


class ShardSupervisor:
    """Dispatches shard tasks with crash/hang/corruption recovery.

    One supervisor serves every fan-out stage of one run; it owns the
    worker pool (created lazily, respawned after crashes and hang
    teardowns) and the heartbeat spool directory the workers register in.
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
        #: Injectable for tests: deterministic backoff without real sleeps.
        self.sleep: Callable[[float], None] = time.sleep
        self._context = context
        self._pool: ProcessPoolExecutor | None = None
        self._spool: Path | None = None
        self._generation = 0
        self._respawns = 0
        #: Set per stage by :meth:`run_stage`: True when the stage runs
        #: downstream of a degraded one, which disables checkpointing.
        self._tainted = False

    # -- pool lifecycle -----------------------------------------------------

    def _heartbeat_dir(self) -> Path:
        if self._spool is None:
            self._spool = Path(tempfile.mkdtemp(prefix="repro-supervise-"))
        directory = self._spool / ("gen-%d" % self._generation)
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def _start_pool(self) -> None:
        """Create a worker pool generation under the resolved start method.

        Fork installs the context parent-side for copy-on-write
        inheritance; spawn ships it once per worker via the initializer.
        Each generation gets a fresh heartbeat spool directory.
        """
        self._generation += 1
        context = replace(self._context,
                          heartbeat_dir=str(self._heartbeat_dir()))
        mp_context = multiprocessing.get_context(self.start_method)
        if self.start_method == "fork":
            workers.init_worker(context)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=mp_context)
        else:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=mp_context,
                initializer=workers.init_worker, initargs=(context,))

    def _registered_pids(self) -> list[int]:
        """Worker pids that registered a heartbeat this pool generation."""
        if self._spool is None:
            return []
        directory = self._spool / ("gen-%d" % self._generation)
        pids = []
        for path in sorted(directory.glob("hb-*.json")):
            try:
                pids.append(workers.Heartbeat.from_json(
                    path.read_text()).pid)
            except (OSError, ValueError, KeyError):
                continue
        return pids

    def _teardown_pool(self) -> None:
        if self._pool is None:
            return
        # The pool is being discarded on every teardown path (respawn
        # after a break, hang recovery, end of run), so its workers are
        # never worth a graceful join: SIGKILL them all first.  This is
        # load-bearing for the crash path — ``terminate_broken`` only
        # SIGTERMs workers it knows about, and a spawn worker still in
        # interpreter bootstrap can miss that entirely (observed blocked
        # forever on its startup pipe), which would wedge the
        # ``wait=True`` join below.  It is equally load-bearing for hang
        # recovery: ``shutdown(cancel_futures=True)`` cannot stop a task
        # that is already running.
        #
        # The heartbeat spool (workers register on their first task) is
        # the primary pid source; ``_processes`` is the pool's own
        # process table — a private CPython attribute, so it is read
        # through ``getattr`` and covers workers that never served a
        # task.  ``test_pool_process_table_assumption`` pins the
        # attribute so an interpreter upgrade that drops it fails
        # loudly instead of silently weakening this path.  Only
        # processes this supervisor spawned are ever signalled.
        pids = set(self._registered_pids())
        pids.update(getattr(self._pool, "_processes", None) or {})
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
        try:
            # wait=True is load-bearing too: the dying pool's management
            # thread closes its queue/pipe fds during shutdown, and
            # spawning the replacement pool while that close is in
            # flight races on reused fd numbers ("bad value(s) in
            # fds_to_keep" from fork_exec under spawn).  With every
            # worker SIGKILLed above, the join is prompt.
            self._pool.shutdown(wait=True, cancel_futures=True)
        except (OSError, RuntimeError):
            # Shutting down an already-broken pool is best-effort;
            # the replacement pool does not depend on it succeeding.
            pass
        self._pool = None

    def _respawn(self) -> None:
        self._respawns += 1
        self._teardown_pool()
        self._start_pool()
        obs.count("runtime.pool.respawns")

    def shutdown(self) -> None:
        """Release the pool, the worker context, and the heartbeat spool."""
        self._teardown_pool()
        workers.reset_worker()
        if self._spool is not None:
            shutil.rmtree(self._spool, ignore_errors=True)
            self._spool = None

    # -- checkpoints --------------------------------------------------------

    def _checkpointing(self) -> bool:
        # A tainted stage (downstream of a degraded one) must neither
        # store nor load checkpoints: its shard inputs differ from a
        # clean run's — e.g. ``gaps`` items carry ``[]`` where reboots
        # were quarantined — with the same shard *sizes*, which is all
        # the partition digest in the checkpoint key can see.
        return (self.cache is not None and bool(self.fingerprint)
                and not self._tainted)

    def _shard_key(self, stage: str, index: int, partition: str) -> str:
        return shard_checkpoint_key(self.fingerprint, stage, index,
                                    self.version, self.params, partition)

    def _manifest_key(self, stage: str, partition: str) -> str:
        return manifest_checkpoint_key(self.fingerprint, stage,
                                       self.version, self.params, partition)

    def _load_checkpoints(self, stage: str, partition: str,
                          shard_count: int) -> dict[int, object]:
        """Resume: verified payloads for every checkpointed shard.

        Loads go through the normal cache API, so the resumed shards are
        visible as cache *hits* (the counters the resume test gates on).
        A manifest from a different partition means the checkpoints
        belong to a differently-cut run; the content-addressed keys
        already embed the partition digest, so such entries simply never
        match — the manifest check exists to surface the situation.
        """
        if not (self.resume and self._checkpointing()):
            return {}
        hit, manifest = self.cache.load(
            self._manifest_key(stage, partition),
            stage="manifest:%s" % stage)
        if hit:
            validate_manifest(manifest, stage, partition, shard_count)
        resolved: dict[int, object] = {}
        for index in range(shard_count):
            hit, envelope = self.cache.load(
                self._shard_key(stage, index, partition),
                stage="shard:%s" % stage)
            if not hit or not isinstance(envelope, workers.ShardResult):
                continue
            try:
                resolved[index] = envelope.open_payload()
            except EnvelopeCorruptError:
                continue
        return resolved

    def _store_manifest(self, stage: str, partition: str,
                        shard_count: int) -> None:
        if not self._checkpointing():
            return
        keys = tuple(self._shard_key(stage, index, partition)
                     for index in range(shard_count))
        self.cache.store(
            self._manifest_key(stage, partition),
            CheckpointManifest(stage=stage, shard_count=shard_count,
                               partition_digest=partition, keys=keys))

    def _store_checkpoint(self, stage: str, partition: str,
                          envelope: workers.ShardResult) -> bool:
        """Persist one verified envelope; True only if it was written."""
        if not self._checkpointing():
            return False
        self.cache.store(
            self._shard_key(stage, envelope.shard_index, partition),
            envelope)
        return True

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
        neither stored nor loaded (see :meth:`_checkpointing`).
        """
        self._tainted = bool(tainted)
        partition = partition_digest(stage, shards)
        row = StageResilience(
            stage=stage, shards=len(shards),
            total_items=sum(len(shard) for shard in shards),
            analyzed_items=0, quarantined_items=0)

        with obs.span("supervise:%s" % stage, category="supervisor",
                      stage=stage, shards=len(shards)) as handle:
            resolved = self._load_checkpoints(stage, partition, len(shards))
            row.checkpoints_loaded = len(resolved)
            if len(resolved) < len(shards):
                self._store_manifest(stage, partition, len(shards))
                envelopes = self._supervise(stage, task_name, shards,
                                            resolved, partition, row)
                for index in sorted(envelopes):
                    envelope = envelopes[index]
                    obs.absorb_spans(span.with_attrs(shard=index)
                                     for span in envelope.spans)
                    obs.metrics().absorb(envelope.metrics)
            abandoned = tuple(index for index in range(len(shards))
                              if index not in resolved)
            row.abandoned = abandoned
            row.quarantined_probes = tuple(
                probe_of(item) for index in abandoned
                for item in shards[index])
            row.quarantined_items = len(row.quarantined_probes)
            row.analyzed_items = row.total_items - row.quarantined_items
            handle.set(retries=row.retries,
                       reassignments=row.reassignments,
                       abandoned=len(abandoned),
                       checkpoints_loaded=row.checkpoints_loaded,
                       checkpoints_stored=row.checkpoints_stored)
            if row.checkpoints_loaded:
                obs.count("runtime.checkpoints.loaded",
                          row.checkpoints_loaded)
            if row.checkpoints_stored:
                obs.count("runtime.checkpoints.stored",
                          row.checkpoints_stored)

        return StageOutcome(
            payloads=payloads_in_order(resolved, len(shards)),
            resilience=row)

    def _supervise(self, stage: str, task_name: str, shards: list[list],
                   resolved: dict[int, object], partition: str,
                   row: StageResilience
                   ) -> dict[int, workers.ShardResult]:
        """Dispatch-and-recover until every shard resolves or abandons.

        At most ``jobs`` shards are in flight at once; the rest wait in
        a ready queue.  The pool has no backlog to hide tasks in, so a
        dispatch-time deadline measures *execution* (a shard queued
        behind slow siblings can never be declared hung without having
        run), and a pool break can only implicate the in-flight set.

        Returns the verified envelopes (for deterministic span/metric
        absorption in index order); payloads land in ``resolved``.
        """
        failures: list[ShardFailure] = []
        envelopes: dict[int, workers.ShardResult] = {}
        abandoned: set[int] = set()
        #: Shards with at least one individually-attributable failure:
        #: a hang, a corrupt envelope, a kernel exception, or a pool
        #: break while they were the only shard in flight.
        solo_failed: set[int] = set()
        attempts = {index: 0 for index in range(len(shards))
                    if index not in resolved}
        pending: dict[Future, _Pending] = {}
        ready: deque[int] = deque(sorted(attempts))
        #: Shards over their retry budget on ambiguous (blast-radius)
        #: charges alone.  Each gets one more attempt *in isolation* —
        #: dispatched only into an otherwise-empty pool — so its next
        #: failure, if any, is individually attributable.
        suspects: deque[int] = deque()
        dispatched = 0

        def dispatch(index: int) -> None:
            nonlocal dispatched
            delay = self.policy.backoff_s(attempts[index])
            if delay:
                self.sleep(delay)
            if self._pool is None:
                self._start_pool()
            try:
                future = self._pool.submit(
                    workers.run_shard, task_name, shards[index], index,
                    attempts[index])
            except BrokenProcessPool as error:
                # A sibling crashed while we were still submitting: park
                # the failure on a pre-failed future so the wait loop's
                # broken-pool branch handles it like every other one.
                future = Future()
                future.set_exception(error)
            except (OSError, ValueError):
                # Spawning a worker tripped over fds the previous pool
                # generation was still releasing.  The pool is unusable
                # but no worker ran anything, so treat it exactly like a
                # broken pool: the recovery branch respawns and charges
                # the in-flight shards.
                future = Future()
                future.set_exception(BrokenProcessPool(
                    "worker spawn failed; pool replaced"))
            pending[future] = _Pending(
                shard_index=index, attempt=attempts[index],
                deadline=time.monotonic() + self.policy.shard_deadline_s,
                seq=dispatched)
            dispatched += 1

        def fail(entry: _Pending, cause: str, detail: str = "",
                 ambiguous: bool = False) -> None:
            failures.append(ShardFailure(
                stage=stage, shard_index=entry.shard_index,
                attempt=entry.attempt, cause=cause, detail=detail))
            obs.count("runtime.shard.failures.%s" % cause)
            attempts[entry.shard_index] += 1
            if not ambiguous:
                solo_failed.add(entry.shard_index)
            if (attempts[entry.shard_index] > self.policy.max_retries
                    and entry.shard_index in solo_failed):
                # Quarantine requires both an exhausted budget and at
                # least one failure that is provably the shard's own —
                # a blast-radius charge alone never abandons a shard
                # that may simply have shared a pool with the culprit.
                abandoned.add(entry.shard_index)
                obs.count("runtime.quarantined_shards")
            else:
                row.retries += 1
                obs.count("runtime.retries")

        def requeue(index: int) -> None:
            """Queue a failed shard's next attempt (unless abandoned)."""
            if index in abandoned:
                return
            if attempts[index] > self.policy.max_retries:
                suspects.append(index)
            else:
                ready.append(index)

        def fill() -> None:
            while ready and len(pending) < self.jobs:
                dispatch(ready.popleft())
            if not pending and suspects:
                dispatch(suspects.popleft())

        while True:
            fill()
            if not pending:
                break
            now = time.monotonic()
            upcoming = [entry.deadline for entry in pending.values()
                        if entry.deadline > now]
            timeout = max(min(upcoming, default=now + _POLL_S) - now,
                          _POLL_S)
            done, _ = wait(set(pending), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            broken: list[_Pending] = []
            for future in done:
                entry = pending.pop(future)
                try:
                    envelope = future.result()
                    resolved[entry.shard_index] = envelope.open_payload()
                except EnvelopeCorruptError as error:
                    fail(entry, CAUSE_CORRUPT, str(error))
                    requeue(entry.shard_index)
                except BrokenProcessPool:
                    broken.append(entry)
                # The whole point of supervision is that NO task failure
                # — whatever type the kernel raised — may take the run
                # down; it becomes a charged attempt instead.
                except Exception as error:  # repro: noqa[RPR004]
                    fail(entry, CAUSE_CRASH,
                         "%s: %s" % (type(error).__name__, error))
                    requeue(entry.shard_index)
                else:
                    envelopes[entry.shard_index] = envelope
                    if self._store_checkpoint(stage, partition, envelope):
                        row.checkpoints_stored += 1

            if broken:
                # A dead worker breaks the whole pool: every in-flight
                # future resolves to BrokenProcessPool at once, and the
                # exception does not say which shard was actually running
                # on the dead process.  With dispatch bounded to ``jobs``
                # the in-flight set is exactly the suspect set: charge
                # them all (culprit necessarily among them), but mark the
                # charge ambiguous unless the set has one member — an
                # ambiguous charge can exhaust a budget, never quarantine
                # (see ``fail``/``suspects``).
                charged = sorted(broken + list(pending.values()),
                                 key=lambda entry: entry.seq)
                pending.clear()
                ambiguous = len(charged) > 1
                for entry in charged:
                    fail(entry, CAUSE_CRASH, "worker pool broke",
                         ambiguous=ambiguous)
                self._respawn()
                requeued = [entry for entry in charged
                            if entry.shard_index not in abandoned]
                if requeued:
                    # Re-dispatched onto the respawned pool generation.
                    row.reassignments += len(requeued)
                    obs.count("runtime.reassignments", len(requeued))
                for entry in requeued:
                    requeue(entry.shard_index)
                continue

            # A hung worker wedges its slot until SIGKILL, but killing
            # it costs the *whole* pool (any worker death breaks a
            # ProcessPoolExecutor), destroying every innocent in-flight
            # shard's work and restarting its deadline from zero.  So
            # teardown waits until NO pending shard is healthy: a shard
            # is declared hung only by individually exceeding its own
            # execution deadline (bounded dispatch: the clock never
            # covers queue time), healthy shards keep completing — and
            # new ones keep dispatching — on the remaining live workers
            # meanwhile, and co-hung shards batch into one wave, each
            # paying one deadline instead of one teardown apiece.
            moment = time.monotonic()
            if pending and all(moment >= entry.deadline
                               for entry in pending.values()):
                wave = sorted(pending.values(),
                              key=lambda entry: entry.seq)
                pending.clear()
                for entry in wave:
                    fail(entry, CAUSE_HANG,
                         "no result within %.1fs"
                         % self.policy.shard_deadline_s)
                self._respawn()
                requeued = [entry for entry in wave
                            if entry.shard_index not in abandoned]
                if requeued:
                    row.reassignments += len(requeued)
                    obs.count("runtime.reassignments", len(requeued))
                for entry in requeued:
                    requeue(entry.shard_index)

        row.failures = tuple(failures)
        return envelopes
