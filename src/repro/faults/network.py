"""Deterministic network-level fault plans for distributed runs.

Where :class:`repro.faults.plan.FaultPlan` corrupts bundle *data* and
:class:`repro.faults.process.ProcessFaultPlan` sabotages local *workers*,
:class:`NetworkFaultPlan` sabotages the *transport*: messages between a
dist worker and the coordinator are dropped, garbled, delayed, or the
connection is torn down mid-conversation.  The dist protocol must make
all of that survivable — a faulty transport may cost retries and
reassignments, never a wrong ``results_digest``.

The plan is inert by design, exactly like the process plan: it is
consulted by :class:`repro.dist.transport.FaultyChannel` through one
duck-typed method — ``fault_on(channel_id, direction, msg_type, seq)``
returning a :class:`~repro.faults.injectors.FaultKind` value string or
``None`` — so this package never imports the dist runtime it sabotages.

Placement draws one uniform per fault kind from
``substream(seed, "netfaults", channel_id, direction, seq)`` in a fixed
kind order (the same independence discipline the bundle and process
plans use), so editing one rate never perturbs another kind's
placements.  ``seq`` is the channel's per-direction message counter:
placement is a pure function of the message *sequence*, which makes any
single conversation exactly replayable even though the global
interleaving of a concurrent run is not.

Unlike data and process faults, network faults have no pre-computable
global placement account: which sequence numbers ever occur depends on
how the conversation unfolds (a dropped reply changes every later seq).
The exact-reconciliation contract therefore inverts: the *channel* logs
every injection it performs, :func:`reconcile_network` folds those logs
against the coordinator's supervision account, and the invariant is
``injected == observed`` per kind plus the usual
``analyzed + quarantined == total`` accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.faults.injectors import FaultKind
from repro.util.rng import substream

#: Network fault kinds in draw order (fixed forever: reordering would
#: silently move every seeded placement).
NETWORK_FAULT_KINDS = (
    FaultKind.MSG_DROP,
    FaultKind.MSG_GARBLE,
    FaultKind.MSG_DELAY,
    FaultKind.CONN_DISCONNECT,
)


@dataclass(frozen=True)
class NetworkFaultPlan:
    """How much transport sabotage to inject, per fault kind.

    Rates are per-message firing probabilities in ``[0, 1]``, applied on
    the send side of a :class:`~repro.dist.transport.FaultyChannel`.
    The plan travels into worker processes via CLI flags (never pickled
    across the dist socket itself — a faulty channel carrying its own
    fault plan would be unable to deliver it), so its field layout is a
    wire contract (RPR010).
    """

    __wire_contract__ = "network-fault-plan"

    seed: int = 0
    msg_drop: float = 0.0
    msg_garble: float = 0.0
    msg_delay: float = 0.0
    conn_disconnect: float = 0.0
    #: How long a ``msg-delay`` fault sleeps before sending.
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        for name in ("msg_drop", "msg_garble", "msg_delay",
                     "conn_disconnect"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError("%s rate must be in [0, 1], got %r"
                                 % (name, rate))
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0, got %r"
                             % (self.delay_s,))

    def _rate(self, kind: FaultKind) -> float:
        return {
            FaultKind.MSG_DROP: self.msg_drop,
            FaultKind.MSG_GARBLE: self.msg_garble,
            FaultKind.MSG_DELAY: self.msg_delay,
            FaultKind.CONN_DISCONNECT: self.conn_disconnect,
        }[kind]

    def fault_on(self, channel_id: str, direction: str,
                 msg_type: str, seq: int) -> str | None:
        """The fault-kind value string placed on one message, if any.

        This is the duck-typed hook the faulty channel calls before each
        send.  At most one kind fires per message — the first in
        :data:`NETWORK_FAULT_KINDS` order whose draw lands under its
        rate.  ``msg_type`` is accepted for the channel's logging but
        deliberately excluded from the draw key: placement by sequence
        position keeps a conversation's fault schedule independent of
        *what* happens to be said at each position.
        """
        rng = substream(self.seed, "netfaults", channel_id, direction, seq)
        placed: str | None = None
        for kind in NETWORK_FAULT_KINDS:
            draw = rng.random()  # one draw per kind, hit or not
            if placed is None and draw < self._rate(kind):
                placed = kind.value
        return placed

    def any_rate(self) -> bool:
        """True when the plan can fire at all."""
        return any(self._rate(kind) > 0 for kind in NETWORK_FAULT_KINDS)


@dataclass
class NetworkFaultReport:
    """Exact account of a network-faulted distributed run.

    ``injected`` counts what the faulty channels logged, kind by kind;
    ``disruptions`` counts the coordinator-side failure charges the run
    absorbed (hangs, disconnects, corrupt envelopes — each one a
    recovered or quarantined lease); ``analyzed``/``quarantined`` carry
    the stage accounting.  ``reconciled`` asserts nothing was silently
    lost: every stage's items are exactly analyzed + quarantined, and
    the channel logs agree with the summaries the workers returned.
    """

    seed: int
    injected: dict[str, int] = field(default_factory=dict)
    disruptions: dict[str, int] = field(default_factory=dict)
    total_items: int = 0
    analyzed_items: int = 0
    quarantined_items: int = 0

    @property
    def accounted(self) -> bool:
        """Does ``analyzed + quarantined == total`` hold overall?"""
        return (self.analyzed_items + self.quarantined_items
                == self.total_items)

    @property
    def degraded(self) -> bool:
        return self.quarantined_items > 0

    def total(self, store: Mapping[str, int]) -> int:
        return sum(store.values())

    def render(self) -> str:
        lines = ["network faults (seed %d): %d injected, %d disruption(s) "
                 "absorbed, %d/%d item(s) analyzed, %d quarantined"
                 % (self.seed, self.total(self.injected),
                    self.total(self.disruptions), self.analyzed_items,
                    self.total_items, self.quarantined_items)]
        for kind in sorted(self.injected):
            lines.append("  %-18s injected=%d"
                         % (kind, self.injected.get(kind, 0)))
        for cause in sorted(self.disruptions):
            lines.append("  %-18s absorbed=%d"
                         % (cause, self.disruptions.get(cause, 0)))
        if not self.accounted:
            lines.append("  UNRECONCILED: analyzed %d + quarantined %d "
                         "!= total %d" % (self.analyzed_items,
                                          self.quarantined_items,
                                          self.total_items))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "injected": dict(self.injected),
            "disruptions": dict(self.disruptions),
            "total_items": self.total_items,
            "analyzed_items": self.analyzed_items,
            "quarantined_items": self.quarantined_items,
            "accounted": self.accounted,
            "degraded": self.degraded,
        }


def reconcile_network(plan: NetworkFaultPlan,
                      injection_logs: Iterable[Mapping[str, int]],
                      resilience: Iterable[object]) -> NetworkFaultReport:
    """Fold channel injection logs and the run's supervision account.

    ``injection_logs`` are per-channel ``{kind: count}`` mappings (each
    :class:`~repro.dist.transport.FaultyChannel` keeps one);
    ``resilience`` rows are duck-typed
    :class:`repro.runtime.board.StageResilience` objects — the same
    inert-consumption discipline :func:`repro.faults.process.reconcile`
    uses, so this package still never imports the runtime.
    """
    report = NetworkFaultReport(seed=plan.seed)
    for log in injection_logs:
        for kind in sorted(log):
            report.injected[kind] = (report.injected.get(kind, 0)
                                     + int(log[kind]))
    for row in resilience:
        report.total_items += row.total_items
        report.analyzed_items += row.analyzed_items
        report.quarantined_items += row.quarantined_items
        for failure in row.failures:
            report.disruptions[failure.cause] = (
                report.disruptions.get(failure.cause, 0) + 1)
    return report
