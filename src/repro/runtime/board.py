"""The lease board: one stage's shard state machine, for every scheduler.

A :class:`LeaseBoard` owns every shard of one fan-out stage from grant
to resolution.  Shards move through::

    ready ──lease()──> active ──submit(verified envelope)──> resolved
      ^                   │
      │   expire() / disconnect() / fail_lease() / corrupt submit
      └────── requeued with a failure charge ──────> (or abandoned
                                                      once attempts
                                                      exceed the
                                                      retry budget)

One scheduler drives it: the lease loop of :class:`~repro.runtime.
server.LeaseServer`, whose workers are local processes over socketpairs
or socket workers over TCP.  The loop turns socket events into board
calls; the board alone charges attempts, sets backoff, and abandons
shards.

The board does no I/O — no sockets, no pipes, no sleeps.  Time
enters only through the injectable ``clock`` (deadlines, deterministic
backoff as *not-before* timestamps instead of blocking sleeps), so the
hypothesis suite can drive any interleaving of out-of-order, duplicate,
and stale-retry envelopes against it and assert the merge discipline
directly:

* the first seal-verified envelope per shard index wins — whoever
  delivered it, under whatever lease, however late;
* duplicates and envelopes for abandoned shards are counted and
  dropped, never merged twice;
* every failure is individually attributable (a hang, a dead worker, a
  kernel error, a corrupt envelope — each names its shard), so charges
  exceed the retry budget honestly or not at all.

A board has one driver, the thread that runs the stage (the loop runs
in it), so it takes no lock (``tests/dist/test_confinement.py`` pins
this).

A scheduler's loop turn reads the clock once and passes that reading to
:meth:`LeaseBoard.expire`, :meth:`LeaseBoard.lease` and
:meth:`LeaseBoard.wakeup_at`.  Separate readings would lose every
deadline or backoff end that falls between them: ``expire`` would run
before it and ``wakeup_at`` would skip it as past, and the scheduler
would then wait on worker I/O that may never come.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import EnvelopeCorruptError
from repro.runtime import workers
from repro.util import timeutil

#: Failure causes recorded per failed shard attempt.
CAUSE_CRASH = "crash"
CAUSE_HANG = "hang"
CAUSE_CORRUPT = "corrupt"
#: Leases lost to a dropped socket connection (a local worker's is a crash).
CAUSE_DISCONNECT = "disconnect"

#: ``submit`` verdicts.
SUBMIT_RESOLVED = "resolved"
SUBMIT_LATE = "late"  # resolved, but the granting lease had expired
SUBMIT_DUPLICATE = "duplicate"
SUBMIT_CORRUPT = "corrupt"

#: Ceiling on one backoff delay, whatever the attempt number says.
_BACKOFF_CAP_S = timeutil.MINUTE


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
    """One failed shard attempt, as charged by the board."""

    stage: str
    shard_index: int
    attempt: int
    cause: str  # crash | hang | corrupt | disconnect
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
    """What a scheduler hands back to the executor for one stage."""

    #: Payloads in shard-index order; abandoned shards are ``None``.
    payloads: list
    resilience: StageResilience


@dataclass(frozen=True)
class LeaseRecord:
    """One granted lease, as the board tracks it."""

    lease_id: int
    worker_id: str
    stage: str
    shard_index: int
    attempt: int
    deadline: float  # clock instant after which the lease is hung


class LeaseBoard:
    """Grant, track, and account one stage's shard leases."""

    def __init__(self, stage: str, shards: list[list],
                 policy: SupervisionPolicy,
                 resolved: Mapping[int, object] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.stage = stage
        self.shards = shards
        self.policy = policy
        self.clock = clock
        #: index -> verified payload (checkpoint loads pre-fill this).
        self.resolved: dict[int, object] = dict(resolved or {})
        #: index -> the envelope that resolved it (absent for shards
        #: resumed from checkpoints, whose spans were absorbed when the
        #: checkpoint was stored).
        self.envelopes: dict[int, workers.ShardResult] = {}
        self.abandoned: set[int] = set()
        self.failures: list[ShardFailure] = []
        self.attempts = {index: 0 for index in range(len(shards))
                         if index not in self.resolved}
        #: Deterministic backoff as not-before instants: a charged shard
        #: is requeued immediately but not *grantable* until this time.
        self.next_ready_at = {index: 0.0 for index in self.attempts}
        self.ready: deque[int] = deque(sorted(self.attempts))
        self.active: dict[int, LeaseRecord] = {}
        self._active_by_shard: dict[int, int] = {}
        self._next_lease_id = 0
        self.leases_granted = 0
        self.retries = 0
        self.reassignments = 0
        self.duplicates = 0
        self.late = 0

    # -- grants --------------------------------------------------------------

    def lease(self, worker_id: str,
              now: float | None = None) -> LeaseRecord | None:
        """Grant the next shard grantable at ``now``, or ``None``.

        Grant order is queue order (sorted at init, requeues appended),
        skipping shards that resolved meanwhile, are mid-backoff, or
        already have an active lease.  ``now`` defaults to the clock.
        """
        if now is None:
            now = self.clock()
        picked: int | None = None
        keep: deque[int] = deque()
        while self.ready:
            index = self.ready.popleft()
            if index in self.resolved or index in self.abandoned:
                continue  # resolved by a late envelope while queued
            if (picked is None and index not in self._active_by_shard
                    and self.next_ready_at.get(index, 0.0) <= now):
                picked = index
                continue
            keep.append(index)
        self.ready = keep
        if picked is None:
            return None
        self._next_lease_id += 1
        record = LeaseRecord(
            lease_id=self._next_lease_id, worker_id=worker_id,
            stage=self.stage, shard_index=picked,
            attempt=self.attempts[picked],
            deadline=now + self.policy.shard_deadline_s)
        self.active[record.lease_id] = record
        self._active_by_shard[picked] = record.lease_id
        self.leases_granted += 1
        return record

    def _release(self, lease_id: int) -> LeaseRecord | None:
        record = self.active.pop(lease_id, None)
        if record is not None \
                and self._active_by_shard.get(record.shard_index) \
                == lease_id:
            del self._active_by_shard[record.shard_index]
        return record

    def wakeup_at(self, now: float) -> float | None:
        """The first instant after ``now`` a deadline or backoff ends.

        A scheduler that waits for worker I/O must wake by then: an
        active lease may expire, or a backed-off shard become grantable.
        ``now`` must be the reading the same loop turn passed to
        :meth:`expire` and :meth:`lease`, which handled every earlier
        instant.  ``None`` when nothing time-driven is pending.
        """
        instants = [record.deadline
                    for record in self.active.values()]
        instants.extend(self.next_ready_at.get(index, 0.0)
                        for index in self.ready)
        return min((at for at in instants if at > now), default=None)

    # -- results -------------------------------------------------------------

    def submit(self, lease_id: int, envelope: object) -> str:
        """Fold one RESULT envelope in; returns a ``SUBMIT_*`` verdict.

        Accepts any seal-verified :class:`~repro.runtime.workers.
        ShardResult` for a still-unresolved shard — even from an
        expired or unknown lease (``SUBMIT_LATE``): the payload is a
        pure function of the shard, so a stale retry's envelope is as
        good as the freshest one, and accepting it is what makes the
        merge idempotent under every interleaving.
        """
        record = self._release(lease_id)
        if not isinstance(envelope, workers.ShardResult):
            if record is not None \
                    and record.shard_index not in self.resolved:
                self._charge(record.shard_index, record.attempt,
                             CAUSE_CORRUPT,
                             "RESULT carried no envelope")
            return SUBMIT_CORRUPT
        index = envelope.shard_index
        if record is not None and record.shard_index != index \
                and record.shard_index not in self.resolved:
            # A confused worker answered lease N with another shard's
            # envelope: the envelope speaks for its own shard (below),
            # but the leased shard must not starve — requeue it.
            self.ready.append(record.shard_index)
        if index in self.resolved or index in self.abandoned:
            self.duplicates += 1
            return SUBMIT_DUPLICATE
        try:
            payload = envelope.open_payload()
        except EnvelopeCorruptError as error:
            self._charge(index, envelope.attempt, CAUSE_CORRUPT,
                         str(error))
            return SUBMIT_CORRUPT
        self.resolved[index] = payload
        self.envelopes[index] = envelope
        if record is None or record.shard_index != index:
            self.late += 1
            return SUBMIT_LATE
        return SUBMIT_RESOLVED

    def fail_lease(self, lease_id: int, detail: str,
                   lost: bool = False) -> bool:
        """Charge a crash against one lease: a kernel error, or (``lost``)
        the death of the worker that held it, which reassigns the shard."""
        record = self._release(lease_id)
        if record is None or record.shard_index in self.resolved:
            return False  # stale report; the shard's fate is settled
        if lost:
            self.reassignments += 1
        self._charge(record.shard_index, record.attempt, CAUSE_CRASH,
                     detail)
        return True

    # -- recovery ------------------------------------------------------------

    def expire(self, now: float | None = None) -> list[LeaseRecord]:
        """Charge and requeue every lease whose deadline is at or before
        ``now`` (default: the clock)."""
        if now is None:
            now = self.clock()
        expired = [record for record in self.active.values()
                   if now >= record.deadline]
        for record in expired:
            self._release(record.lease_id)
            if record.shard_index in self.resolved:
                continue  # a late envelope already settled it
            self.reassignments += 1
            self._charge(record.shard_index, record.attempt,
                         CAUSE_HANG, "no result within %.1fs lease"
                         % self.policy.shard_deadline_s)
        return expired

    def disconnect(self, worker_id: str) -> list[LeaseRecord]:
        """Charge and requeue every in-flight lease of a lost worker."""
        lost = [record for record in self.active.values()
                if record.worker_id == worker_id]
        for record in lost:
            self._release(record.lease_id)
            if record.shard_index in self.resolved:
                continue
            self.reassignments += 1
            self._charge(record.shard_index, record.attempt,
                         CAUSE_DISCONNECT,
                         "worker %s disconnected mid-lease" % worker_id)
        return lost

    def _charge(self, index: int, attempt: int, cause: str,
                detail: str) -> None:
        """One individually-attributable failed attempt for one shard."""
        self.failures.append(ShardFailure(
            stage=self.stage, shard_index=index, attempt=attempt,
            cause=cause, detail=detail))
        # Monotonic, not additive: a straggling charge for an attempt
        # the board already moved past must not burn extra budget.
        self.attempts[index] = max(self.attempts.get(index, 0),
                                   attempt + 1)
        if self.attempts[index] > self.policy.max_retries:
            self.abandoned.add(index)
            return
        self.retries += 1
        self.next_ready_at[index] = (
            self.clock() + self.policy.backoff_s(self.attempts[index]))
        if index not in self.ready:
            self.ready.append(index)

    # -- completion ----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Every shard resolved or abandoned (stale leases may linger)."""
        return (len(self.resolved) + len(self.abandoned)
                == len(self.shards))

    def finish(self, probe_of: Callable[[object], int],
               checkpoints_loaded: int = 0,
               checkpoints_stored: int = 0) -> StageOutcome:
        """The stage's payloads and supervision account, post-``done``."""
        abandoned = tuple(sorted(self.abandoned))
        quarantined = tuple(probe_of(item) for index in abandoned
                            for item in self.shards[index])
        total = sum(len(shard) for shard in self.shards)
        row = StageResilience(
            stage=self.stage, shards=len(self.shards),
            total_items=total,
            analyzed_items=total - len(quarantined),
            quarantined_items=len(quarantined),
            retries=self.retries, reassignments=self.reassignments,
            abandoned=abandoned, quarantined_probes=quarantined,
            failures=tuple(self.failures),
            checkpoints_loaded=checkpoints_loaded,
            checkpoints_stored=checkpoints_stored)
        return StageOutcome(
            payloads=[self.resolved.get(index)
                      for index in range(len(self.shards))],
            resilience=row)
