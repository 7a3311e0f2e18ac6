"""Line-level corruption primitives for the bundle fault injector.

Each injector is a pure function over a list of text lines (or k-root
JSON series states): it mutates the list in place and returns one
:class:`InjectedFault` per corruption, so :class:`repro.faults.plan.FaultPlan`
can account exactly what it did.  All randomness comes from the
:class:`random.Random` handed in by the plan (derived via
:func:`repro.util.rng.substream`), keeping every corrupted bundle a pure
function of ``(bundle, seed)``.

The primitives are deliberately *destructive-by-construction*: a garbled
or truncated line can never accidentally still parse, so the ingest
accounting in the fault-injection suite reconciles exactly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass


class FaultKind(enum.Enum):
    """The DESIGN §6/§13 failure-injection matrix, one entry per fault.

    The ``CONNLOG_*`` .. ``BUNDLE_*`` kinds corrupt bundle *data* before
    ingestion; the ``WORKER_*``/``ENVELOPE_*`` kinds are *process*
    faults, acted on inside pool workers during a supervised run
    (:mod:`repro.faults.process`); the ``MSG_*``/``CONN_*`` kinds are
    *network* faults, acted on by the dist transport during a
    distributed run (:mod:`repro.faults.network`).  The values double as
    the wire-level strings the runtime matches on, so they must stay in
    sync with the ``FAULT_*`` constants in :mod:`repro.runtime.workers`
    and the ``FAULT_*`` constants in :mod:`repro.runtime.transport`.
    """

    CONNLOG_GARBLED = "connlog-garbled"
    CONNLOG_TRUNCATED = "connlog-truncated"
    CONNLOG_DUPLICATED = "connlog-duplicated"
    CONNLOG_OUT_OF_ORDER = "connlog-out-of-order"
    UPTIME_WRAP = "uptime-wrap"
    UPTIME_GARBAGE = "uptime-garbage"
    KROOT_MISSING_SERIES = "kroot-missing-series"
    KROOT_MALFORMED_SERIES = "kroot-malformed-series"
    PFX2AS_MISSING_MONTH = "pfx2as-missing-month"
    PFX2AS_BAD_LINE = "pfx2as-bad-line"
    BUNDLE_MISSING_FILE = "bundle-missing-file"
    WORKER_CRASH = "worker-crash"
    WORKER_HANG = "worker-hang"
    WORKER_SLOW = "worker-slow"
    ENVELOPE_CORRUPT = "envelope-corrupt"
    MSG_DROP = "msg-drop"
    MSG_GARBLE = "msg-garble"
    MSG_DELAY = "msg-delay"
    CONN_DISCONNECT = "conn-disconnect"


@dataclass(frozen=True)
class InjectedFault:
    """One corruption applied to a bundle.

    ``records_delta`` is the change in *record-line count* the fault
    causes (+1 for a duplicated line, negative for removed records,
    0 for in-place damage); summing it per dataset is what lets tests
    reconcile ``parsed + repaired + quarantined`` against what was
    written plus what was injected.
    """

    kind: FaultKind
    target: str
    line: int | None
    detail: str
    records_delta: int = 0


#: Counter modulus matching ``repro.atlas.sosuptime.UPTIME_WRAP_MODULUS``
#: (kept as a literal here: faults sits above atlas but must not depend
#: on it to corrupt a bundle the format of which is fixed on disk).
UPTIME_WRAP = 2 ** 32


def _garbage_text(rng: random.Random) -> str:
    """Deterministic junk: never blank, never a comment, never tabbed."""
    return "!corrupt-%06d" % rng.randrange(10 ** 6)


def garble_lines(lines: list[str], indices: list[int], rng: random.Random,
                 target: str, kind: FaultKind) -> list[InjectedFault]:
    """Replace whole lines with unparseable junk."""
    faults = []
    for index in indices:
        lines[index] = _garbage_text(rng)
        faults.append(InjectedFault(kind, target, index + 1,
                                    "line replaced with garbage"))
    return faults


def truncate_lines(lines: list[str], indices: list[int], rng: random.Random,
                   target: str, kind: FaultKind) -> list[InjectedFault]:
    """Cut lines mid-record, guaranteeing too few fields remain."""
    faults = []
    for index in indices:
        fields = lines[index].split("\t")
        keep = rng.randrange(1, len(fields)) if len(fields) > 1 else 1
        text = "\t".join(fields[:keep])
        # Chop the tail of the last surviving field too, as a real
        # truncated write would.
        cut = rng.randrange(1, len(text) + 1)
        lines[index] = text[:cut]
        faults.append(InjectedFault(kind, target, index + 1,
                                    "line truncated to %d bytes" % cut))
    return faults


def duplicate_lines(lines: list[str], indices: list[int],
                    target: str, kind: FaultKind) -> list[InjectedFault]:
    """Insert an exact copy of each chosen line immediately after it."""
    faults = []
    for index in sorted(indices, reverse=True):
        lines.insert(index + 1, lines[index])
        faults.append(InjectedFault(kind, target, index + 1,
                                    "line duplicated", records_delta=1))
    return faults


def swap_adjacent_pairs(lines: list[str], first_indices: list[int],
                        target: str, kind: FaultKind) -> list[InjectedFault]:
    """Swap each line with its successor, making records out of order."""
    faults = []
    for index in first_indices:
        lines[index], lines[index + 1] = lines[index + 1], lines[index]
        faults.append(InjectedFault(
            kind, target, index + 1,
            "swapped with line %d" % (index + 2)))
    return faults


def same_probe_adjacent_pairs(lines: list[str]) -> list[int]:
    """Indices ``i`` where lines ``i`` and ``i+1`` belong to one probe.

    Swapping such a pair disturbs the per-probe time order the dataset
    containers enforce; swapping lines of different probes would not.
    """
    pairs = []
    for index in range(len(lines) - 1):
        first = lines[index].split("\t", 1)[0]
        second = lines[index + 1].split("\t", 1)[0]
        if first and first == second:
            pairs.append(index)
    return pairs


def wrap_uptime_counters(lines: list[str], indices: list[int],
                         target: str) -> list[InjectedFault]:
    """Add 2**32 to the counter field, as a wrapped 32-bit read-out."""
    faults = []
    for index in indices:
        fields = lines[index].split("\t")
        fields[2] = "%.0f" % (float(fields[2]) + UPTIME_WRAP)
        lines[index] = "\t".join(fields)
        faults.append(InjectedFault(FaultKind.UPTIME_WRAP, target, index + 1,
                                    "uptime counter wrapped past 2**32"))
    return faults


def garble_uptime_values(lines: list[str], indices: list[int],
                         rng: random.Random,
                         target: str) -> list[InjectedFault]:
    """Replace the counter field with non-numeric junk."""
    faults = []
    for index in indices:
        fields = lines[index].split("\t")
        fields[2] = _garbage_text(rng)
        lines[index] = "\t".join(fields)
        faults.append(InjectedFault(FaultKind.UPTIME_GARBAGE, target,
                                    index + 1, "uptime counter garbled"))
    return faults


def drop_kroot_series(states: list[dict], indices: list[int],
                      target: str) -> list[InjectedFault]:
    """Delete whole series states (a probe missing from the dataset)."""
    faults = []
    for index in sorted(indices, reverse=True):
        state = states.pop(index)
        faults.append(InjectedFault(
            FaultKind.KROOT_MISSING_SERIES, target, index + 1,
            "series for probe %s removed" % state.get("probe_id"),
            records_delta=-1))
    return faults


def malform_kroot_series(states: list[dict], indices: list[int],
                         rng: random.Random,
                         target: str) -> list[InjectedFault]:
    """Strip one required key from each chosen series state."""
    faults = []
    for index in indices:
        keys = sorted(states[index])
        key = keys[rng.randrange(len(keys))]
        del states[index][key]
        faults.append(InjectedFault(
            FaultKind.KROOT_MALFORMED_SERIES, target, index + 1,
            "series state missing key %r" % key))
    return faults
