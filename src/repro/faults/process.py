"""Deterministic process-level fault plans for supervised runs.

Where :class:`repro.faults.plan.FaultPlan` corrupts bundle *data* before
ingestion, :class:`ProcessFaultPlan` sabotages the *execution*: worker
crashes (``SIGKILL``), hangs, corrupted result envelopes, and slow
shards, placed deterministically from a seed so every faulted run is
exactly reproducible and every injection exactly accountable.

The plan is inert by design.  It is carried into worker processes inside
:class:`repro.runtime.workers.WorkerContext` and consulted through one
duck-typed method — ``fault_at(stage, shard_index, attempt)`` returning
a :class:`~repro.faults.injectors.FaultKind` value string or ``None`` —
so this package never imports the runtime it sabotages and the runtime
never imports this package from its worker path (the layer DAG stays a
DAG, and RPR003 stays quiet).

Placement draws one uniform per fault kind from
``substream(seed, "procfaults", stage, shard_index)`` in a fixed kind
order, so whether one kind fires never perturbs another kind's draw and
editing one rate leaves the other kinds' placements untouched — the same
independence discipline the bundle corruptor uses for its disjoint
target sets.  By default a fault fires only on ``attempt == 0`` (the
natural transient-fault model: the retry succeeds); ``persistent=True``
makes it fire on *every* attempt, which is how the retries-exhausted /
quarantine path is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.faults.injectors import FaultKind
from repro.util.rng import substream

#: Process fault kinds in draw order (fixed forever: reordering would
#: silently move every seeded placement).
PROCESS_FAULT_KINDS = (
    FaultKind.WORKER_CRASH,
    FaultKind.WORKER_HANG,
    FaultKind.ENVELOPE_CORRUPT,
    FaultKind.WORKER_SLOW,
)

#: Supervisor failure cause recorded when each kind fires (``None`` for
#: kinds the supervisor recovers without observing a failure).
CAUSE_BY_KIND = {
    FaultKind.WORKER_CRASH: "crash",
    FaultKind.WORKER_HANG: "hang",
    FaultKind.ENVELOPE_CORRUPT: "corrupt",
    FaultKind.WORKER_SLOW: None,
}


@dataclass(frozen=True)
class ProcessFaultPlan:
    """How much execution sabotage to inject, per fault kind.

    Rates are per-(stage, shard) firing probabilities in ``[0, 1]``.
    The plan crosses the ``spawn`` pickle boundary inside the worker
    context, so its field layout is a wire contract (RPR010).
    """

    __wire_contract__ = "process-fault-plan"

    seed: int = 0
    worker_crash: float = 0.0
    worker_hang: float = 0.0
    envelope_corrupt: float = 0.0
    worker_slow: float = 0.0
    #: How long a ``worker-slow`` fault sleeps before computing.
    slow_delay_s: float = 0.05
    #: Fire on every attempt instead of only the first — the model for
    #: a deterministic (non-transient) failure, used to exhaust retries.
    persistent: bool = False

    def __post_init__(self) -> None:
        for name in ("worker_crash", "worker_hang", "envelope_corrupt",
                     "worker_slow"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError("%s rate must be in [0, 1], got %r"
                                 % (name, rate))
        if self.slow_delay_s < 0:
            raise ValueError("slow_delay_s must be >= 0, got %r"
                             % (self.slow_delay_s,))

    def _rate(self, kind: FaultKind) -> float:
        return {
            FaultKind.WORKER_CRASH: self.worker_crash,
            FaultKind.WORKER_HANG: self.worker_hang,
            FaultKind.ENVELOPE_CORRUPT: self.envelope_corrupt,
            FaultKind.WORKER_SLOW: self.worker_slow,
        }[kind]

    def fault_at(self, stage: str, shard_index: int,
                 attempt: int) -> str | None:
        """The fault-kind value string placed at one shard task, if any.

        This is the duck-typed hook the worker preflight calls.  At most
        one kind fires per (stage, shard) — the first in
        :data:`PROCESS_FAULT_KINDS` order whose draw lands under its
        rate — and a transient plan stops firing after attempt 0.
        """
        if attempt > 0 and not self.persistent:
            return None
        rng = substream(self.seed, "procfaults", stage, shard_index)
        placed: str | None = None
        for kind in PROCESS_FAULT_KINDS:
            draw = rng.random()  # one draw per kind, hit or not
            if placed is None and draw < self._rate(kind):
                placed = kind.value
        return placed

    def placements(self, stage: str, shard_count: int
                   ) -> dict[int, FaultKind]:
        """Every fault this plan places on one stage's first attempts.

        Pure accounting view of :meth:`fault_at` — what the tests and
        :func:`reconcile` use to know exactly what *should* have fired.
        """
        placed: dict[int, FaultKind] = {}
        for index in range(shard_count):
            value = self.fault_at(stage, index, 0)
            if value is not None:
                placed[index] = FaultKind(value)
        return placed

    def any_rate(self) -> bool:
        """True when the plan can fire at all."""
        return any(self._rate(kind) > 0 for kind in PROCESS_FAULT_KINDS)


@dataclass
class ProcessFaultReport:
    """Exact account of a faulted supervised run.

    The reconciliation invariant mirrors the bundle corruptor's: every
    injected fault is either *recovered* (its shard still resolved) or
    *abandoned* (its shard was quarantined) — ``injected == recovered +
    abandoned``, kind by kind, with nothing lost and nothing double
    counted.
    """

    seed: int
    injected: dict[str, int] = field(default_factory=dict)
    recovered: dict[str, int] = field(default_factory=dict)
    abandoned: dict[str, int] = field(default_factory=dict)

    def total(self, store: dict[str, int]) -> int:
        return sum(store.values())

    @property
    def reconciled(self) -> bool:
        """Does ``injected == recovered + abandoned`` for every kind?"""
        kinds = set(self.injected) | set(self.recovered) | set(self.abandoned)
        return all(
            self.injected.get(kind, 0)
            == self.recovered.get(kind, 0) + self.abandoned.get(kind, 0)
            for kind in kinds)

    def render(self) -> str:
        lines = ["process faults (seed %d): %d injected, %d recovered, "
                 "%d abandoned" % (self.seed, self.total(self.injected),
                                   self.total(self.recovered),
                                   self.total(self.abandoned))]
        for kind in sorted(self.injected):
            lines.append("  %-18s injected=%d recovered=%d abandoned=%d"
                         % (kind, self.injected.get(kind, 0),
                            self.recovered.get(kind, 0),
                            self.abandoned.get(kind, 0)))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "injected": dict(self.injected),
            "recovered": dict(self.recovered),
            "abandoned": dict(self.abandoned),
            "reconciled": self.reconciled,
        }


def reconcile(plan: ProcessFaultPlan,
              resilience: Iterable[object]) -> ProcessFaultReport:
    """Reconcile a plan against a run's supervision account.

    ``resilience`` rows are duck-typed
    :class:`repro.runtime.board.StageResilience` objects (``stage``,
    ``shards``, ``abandoned``) — duck-typed for the same layering reason
    the plan itself is inert.  Only first-attempt placements are
    counted: a persistent plan re-fires on retries, but those are the
    *same* injected fault still being survived, not new ones.
    """
    report = ProcessFaultReport(seed=plan.seed)
    for row in resilience:
        placed = plan.placements(row.stage, row.shards)
        lost = set(row.abandoned)
        for index, kind in placed.items():
            report.injected[kind.value] = (
                report.injected.get(kind.value, 0) + 1)
            store = (report.abandoned if index in lost
                     else report.recovered)
            store[kind.value] = store.get(kind.value, 0) + 1
    return report
