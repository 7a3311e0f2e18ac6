"""Worker side of the sharded executor.

A local worker is a plain :mod:`multiprocessing` process running
:func:`serve`: it receives the full dataset context once (inherited
through ``fork``, or as its one start-up argument under ``spawn``), then
serves shard tasks that are nothing but probe-id lists over its own
pipe, keeping per-task pickling traffic tiny.  The context's columnar
views are built once per process (once per run under fork), and every
shard runs the same vectorized kernels the serial path runs, so a
payload is exactly the slice of the serial result for its probes.  The
filter, spans and gaps payloads are CSR columns
(:mod:`repro.core.colartifact`), so shipping one pickles a few arrays
instead of a graph of records; reboot payloads are still records.  The
distributed worker (:mod:`repro.dist.worker`) runs the same
:func:`run_shard` behind a socket instead of a pipe.

Results cross the process boundary inside a *sealed* :class:`ShardResult`
envelope: the payload is pickled worker-side and stamped with its content
fingerprint, so the supervisor can detect a corrupted envelope before a
bad payload reaches the merge, and retry the shard instead of poisoning
the run.

Everything here must stay importable at module top level (spawned
workers import :func:`serve` by qualified name) and free of global
randomness; any future stochastic stage must draw from
:func:`repro.util.rng.substream` keyed on the scenario seed and probe id,
never from process-local state, or ``jobs=N`` output would diverge from
``jobs=1``.  Process-fault injection (``repro.faults.process``) arrives
as an inert plan object inside :class:`WorkerContext` — this module only
asks it *whether* to fail and interprets the answer, so the faults layer
never needs to import the runtime it sabotages.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

from repro import obs
from repro.atlas.archive import ProbeArchive
from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootDataset
from repro.atlas.sosuptime import UptimeDataset
from repro.core import colkernels
from repro.core.colartifact import (
    ColumnarFilterArtifact,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarSpanMap,
)
from repro.core.filtering import report_from_verdicts
from repro.core.reboots import Reboot
from repro.errors import EnvelopeCorruptError
from repro.net.pfx2as import IpToAsDataset
from repro.util import fingerprint as fp
from repro.util import timeutil

#: Fault-kind strings this module knows how to act on, mirroring the
#: ``repro.faults.injectors.FaultKind`` process values (kept as strings
#: so the plan object stays duck-typed and layer-inert).
FAULT_WORKER_CRASH = "worker-crash"
FAULT_WORKER_HANG = "worker-hang"
FAULT_WORKER_SLOW = "worker-slow"
FAULT_ENVELOPE_CORRUPT = "envelope-corrupt"


@dataclass
class WorkerContext:
    """Everything a worker needs, shipped once per process.

    ``fault_plan`` is a supervision extra: an inert process-fault plan
    (``fault_at(stage, shard_index, attempt)`` duck type) consulted once
    per shard task.  It defaults off, which is what dist workers run
    with.
    """

    __wire_contract__ = "worker-context"

    connlog: ConnectionLog
    archive: ProbeArchive
    ip2as: IpToAsDataset
    kroot: KRootDataset
    uptime: UptimeDataset
    min_connected: float
    fault_plan: object | None = None
    #: Always True: the columnar kernels are the only shard kernels.  The
    #: field stays because the end-to-end benchmark harness
    #: (``benchmarks/e2e``) passes ``columnar=``, and that harness is kept
    #: unchanged so its runs stay comparable across versions.
    columnar: bool = True

    def __post_init__(self) -> None:
        if not self.columnar:
            raise ValueError("columnar=False is not supported: the "
                             "record kernels were removed")


@dataclass
class ShardResult:
    """One shard task's sealed payload plus the observability it generated.

    Worker processes cannot write to the driver's span collector or
    metrics registry, so each task drains its process-local stores into
    this envelope; the executor absorbs them in shard order, which keeps
    the merged trace deterministic regardless of worker scheduling.

    The payload is shipped as pickle bytes stamped with their SHA-256
    ``seal``: :meth:`open_payload` re-hashes on the parent side and
    raises :class:`~repro.errors.EnvelopeCorruptError` on mismatch, so a
    corrupted envelope is detected *before* its payload reaches the
    ordered merge.  ``shard_index``/``attempt`` identify the task for
    supervision bookkeeping.  The payload itself stays exactly what the
    pure kernels computed — instrumentation and sealing wrap the
    kernels, they never reach inside them.
    """

    __wire_contract__ = "shard-result"

    shard_index: int
    attempt: int
    payload_pickle: bytes
    seal: str
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @classmethod
    def sealed(cls, payload: object, shard_index: int = 0,
               attempt: int = 0) -> "ShardResult":
        """Seal a payload with this task's spans and metrics."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(shard_index=shard_index, attempt=attempt,
                   payload_pickle=blob, seal=fp.hash_bytes(blob),
                   spans=obs.drain_spans(), metrics=obs.metrics().drain())

    def open_payload(self) -> object:
        """Verify the seal and unpickle the payload."""
        if fp.hash_bytes(self.payload_pickle) != self.seal:
            raise EnvelopeCorruptError(
                "shard %d attempt %d: result envelope failed its "
                "integrity seal" % (self.shard_index, self.attempt))
        return pickle.loads(self.payload_pickle)


_context: WorkerContext | None = None
_colconn: ColumnarConnlog | None = None
_colup: ColumnarUptime | None = None


def init_worker(context: WorkerContext) -> None:
    """Install the dataset context in this process.

    With a ``fork`` multiprocessing context the supervisor calls this in
    the *parent* before starting workers — children inherit the
    installed context through fork, skipping a per-worker pickle of the
    full datasets.  Under ``spawn`` each worker runs it in :func:`serve`.
    """
    global _context, _colconn, _colup
    _context = context
    # Build the columnar views eagerly: under fork this runs in the
    # parent, so every worker inherits the arrays by page sharing
    # instead of rebuilding them per process.
    _colconn = ColumnarConnlog.from_connlog(context.connlog)
    _colup = ColumnarUptime.from_uptime(context.uptime)


def reset_worker() -> None:
    """Drop the installed context (parent-side cleanup after a run)."""
    global _context, _colconn, _colup
    _context = None
    _colconn = None
    _colup = None


def _require_context() -> WorkerContext:
    if _context is None:
        raise RuntimeError(
            "worker context not initialized; shard tasks must run "
            "after init_worker (serve installs it under spawn)")
    return _context


# -- fault injection (supervised runs only) ----------------------------------

def _inject_preflight(stage: str, shard_index: int, attempt: int) -> None:
    """Act on a crash/hang/slow fault the installed plan placed here.

    Crash and hang are destructive-by-construction: ``SIGKILL`` cannot be
    caught and the hang outsleeps any sane deadline, so recovery can only
    come from the supervisor — exactly what the fault matrix must prove.
    """
    plan = _context.fault_plan if _context is not None else None
    if plan is None:
        return
    kind = plan.fault_at(stage, shard_index, attempt)
    if kind == FAULT_WORKER_CRASH:
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == FAULT_WORKER_HANG:
        time.sleep(timeutil.HOUR)
    elif kind == FAULT_WORKER_SLOW:
        time.sleep(float(getattr(plan, "slow_delay_s", 0.05)))


def _inject_envelope(envelope: ShardResult, stage: str, shard_index: int,
                     attempt: int) -> ShardResult:
    """Flip a payload byte if the plan corrupts this envelope.

    The seal is computed *before* the flip, so the parent-side
    :meth:`ShardResult.open_payload` check is guaranteed to fire — the
    corruption is detectable by construction, never silent.
    """
    plan = _context.fault_plan if _context is not None else None
    if plan is None or not envelope.payload_pickle:
        return envelope
    if plan.fault_at(stage, shard_index, attempt) != FAULT_ENVELOPE_CORRUPT:
        return envelope
    blob = envelope.payload_pickle
    envelope.payload_pickle = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    return envelope


# -- shard kernels (payload = exactly what the serial path computes) ---------

def _filter_payload(probe_ids: list[int]) -> ColumnarFilterArtifact:
    context = _require_context()
    return ColumnarFilterArtifact.from_report(report_from_verdicts(
        colkernels.classify_probes(
            _colconn, context.archive, context.ip2as, context.min_connected,
            probe_ids)))


def _spans_payload(probe_ids: list[int]
                   ) -> tuple[ColumnarSpanMap, ColumnarFloatMap]:
    _require_context()
    return colkernels.probe_spans_col(_colconn, probe_ids)


def _reboots_payload(probe_ids: list[int]) -> dict:
    _require_context()
    return colkernels.detect_reboots_col(_colup, probe_ids)


def _gaps_payload(items: list[tuple[int, list[Reboot]]]
                  ) -> ColumnarGapEventMap:
    """``items`` pairs each probe with its firmware-filtered reboots,
    computed by the parent after the global reboot barrier."""
    context = _require_context()
    return colkernels.gap_events_col(_colconn, context.kroot, items)


#: Task registry: the supervisor dispatches shards by stage name, so the
#: pickled task is ``(name, shard, index, attempt)`` instead of a
#: per-stage callable.
SHARD_TASKS = {
    "filter": _filter_payload,
    "spans": _spans_payload,
    "reboots": _reboots_payload,
    "gaps": _gaps_payload,
}


def run_shard(task_name: str, shard: list, shard_index: int = 0,
              attempt: int = 0) -> ShardResult:
    """Serve one shard task: (maybe) fault, compute, seal."""
    _require_context()
    _inject_preflight(task_name, shard_index, attempt)
    kernel = SHARD_TASKS[task_name]
    with obs.span("shard:%s" % task_name, category="shard",
                  stage=task_name, items=len(shard), attempt=attempt):
        payload = kernel(shard)
    obs.count("runtime.worker.tasks")
    envelope = ShardResult.sealed(payload, shard_index, attempt)
    return _inject_envelope(envelope, task_name, shard_index, attempt)


def serve(conn: Connection, context: WorkerContext | None = None,
          inherited: tuple[Connection, ...] = ()) -> None:
    """Local worker process body: serve shard tasks from one pipe.

    ``context`` is ``None`` under fork (the parent installed it before
    starting the process) and the dataset context under spawn.  A forked
    worker also inherits the parent's ends of every worker pipe, its own
    included; it closes those (``inherited``) first, so the parent's
    death reaches it as EOF on its pipe instead of leaving it blocked.

    The worker sends its pid — it is ready to take a lease — then
    answers each ``(task_name, shard, shard_index, attempt)`` task with
    a sealed :class:`ShardResult`, or with the error text when the
    kernel raises, until the parent closes the pipe, dies, or kills it.
    """
    for end in inherited:
        end.close()
    if context is not None:
        init_worker(context)
    try:
        conn.send(os.getpid())
        while True:
            task = conn.recv()
            try:
                reply: object = run_shard(*task)
            # A kernel exception is this shard's failure, not the
            # worker's: report it for the board to charge, keep serving.
            except Exception as error:  # repro: noqa[RPR004]
                reply = "%s: %s" % (type(error).__name__, error)
            conn.send(reply)
    except (EOFError, OSError):
        return  # the parent closed the pipe or died
