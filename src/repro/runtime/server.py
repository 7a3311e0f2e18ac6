"""The lease loop: one ``selectors`` loop serves every fan-out stage.

:class:`LeaseServer` answers pull-based lease clients
(:mod:`repro.runtime.client`) — HELLO handshake, LEASE grants from the
current stage's :class:`~repro.runtime.board.LeaseBoard`, RESULT
folding, DRAIN back-offs — whoever they are:

* **local worker processes** (``repro-run --jobs N``): the server starts
  ``jobs`` processes, hands each one end of a ``socket.socketpair()``
  and registers the other end as a connection;
* **socket workers** (``repro-dist``): the server also listens on TCP,
  and worker processes or loopback threads dial in.

The loop has no thread of its own.  :meth:`LeaseServer.serve_stage`
runs it in the caller's thread until the stage's board drains, and
:meth:`LeaseServer.finish` runs it until every worker has been told the
run is over.  Between those calls nothing reads the sockets: a pull
waits in the kernel's buffer until the next call.  So the server, each
board and the span and metrics stores are touched by one thread, and a
worker forked from that thread can never inherit a lock another thread
held.

A connection may hold its local worker process; three branches, and
only these, look at it:

* EOF from a local peer reaps the process, charges its lease ``crash``
  with the exit code, and starts a replacement (a socket peer's EOF is
  charged ``disconnect`` and the worker redials on its own);
* a lease past its deadline kills and replaces its local holder
  (``hang``; a socket peer's late result is still accepted);
* a local worker that exits before its HELLO is a broken environment,
  not a shard failure, and raises :class:`~repro.errors.
  SupervisionError` without starting a replacement.

Completed envelopes are checkpointed through
:class:`~repro.runtime.supervisor.StageCheckpoints`, and each stage is
closed by :func:`~repro.runtime.supervisor.finish_stage`, so local and
socket runs resume each other's checkpoints and report identically.
"""

from __future__ import annotations

import multiprocessing
import selectors
import socket
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro import obs
from repro.errors import SupervisionError, WireProtocolError
from repro.runtime import client, protocol, workers
from repro.runtime.board import (
    SUBMIT_LATE,
    SUBMIT_RESOLVED,
    LeaseBoard,
    StageOutcome,
    SupervisionPolicy,
)
from repro.runtime.cache import code_version
from repro.runtime.supervisor import StageCheckpoints, finish_stage
from repro.util import timeutil


@dataclass
class _WorkerState:
    """Per-worker bookkeeping, keyed by the worker's self-chosen id."""

    leases: int = 0
    results: int = 0
    cache_hits: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


@dataclass
class _StageServing:
    """One stage's board and checkpoints while it is being served."""

    board: LeaseBoard
    checkpoints: StageCheckpoints
    checkpoints_stored: int = 0


@dataclass
class _Connection:
    """One peer socket and the frame it is part-way through."""

    sock: socket.socket
    serial: int
    worker_id: str = ""
    #: ``(type code, length, digest)`` once the frame's header is in.
    header: tuple[int, int, bytes] | None = None
    #: The header or payload being read, and how much of it is in.
    buffer: bytearray = field(default_factory=bytearray)
    filled: int = 0
    closing: bool = False
    bytes_sent: int = 0
    bytes_received: int = 0
    #: The local worker process at the other end of a socketpair, and
    #: its slot; ``None`` for a socket peer.
    process: multiprocessing.process.BaseProcess | None = None
    slot: int = -1

    @property
    def holder(self) -> str:
        """Leases belong to the connection, not the worker id, so a
        reconnected worker's newer leases survive its old socket."""
        return "%s#%d" % (self.worker_id, self.serial)


class LeaseServer:
    """Serve shard leases to workers; fold their results back."""

    def __init__(self, policy: SupervisionPolicy,
                 poll_s: float = timeutil.DIST_POLL_S,
                 listen: tuple[str, int] | None = None) -> None:
        self.policy = policy
        #: Longest the loop sleeps when nothing is due, and the
        #: retry-after hint handed to empty-handed workers.
        self.poll_s = poll_s
        self._selector = selectors.DefaultSelector()
        self._listener: socket.socket | None = None
        self.host, self.port = "", 0
        if listen is not None:
            self._listener = socket.create_server(listen)
            self._listener.setblocking(False)
            self._selector.register(self._listener, selectors.EVENT_READ)
            self.host = listen[0]
            self.port = int(self._listener.getsockname()[1])
        #: ``(fingerprint, min_connected, code version)`` HELLOs answer.
        self._identity: tuple[str, float, str] | None = None
        self._serving: _StageServing | None = None
        self._finished = False
        self._closed = False
        self._accepted = 0
        self._workers: dict[str, _WorkerState] = {}
        #: Lease pulls no shard was ready for, in arrival order: connection
        #: serial -> (connection, when to give up and answer "not ready").
        self._parked: dict[int, tuple[_Connection, float]] = {}
        #: ``(context, jobs, start method)`` of the local workers, and
        #: whether they run yet (they start on the first stage with work).
        self._local: tuple[workers.WorkerContext, int, str] | None = None
        self._started = False

    def bind(self, fingerprint: str, min_connected: float) -> None:
        """Set the identity HELLO replies speak for.

        The code version is hashed here, before any worker dials, so
        loopback workers find the process-wide cache warm.
        """
        self._identity = (fingerprint, min_connected, code_version())

    def local_workers(self, context: workers.WorkerContext, jobs: int,
                      start_method: str) -> None:
        """Serve through ``jobs`` local worker processes, started on the
        first stage that has a shard to lease."""
        self._local = (context, jobs, start_method)

    @property
    def connections(self) -> int:
        """Open peer connections."""
        return sum(1 for key in self._selector.get_map().values()
                   if key.data is not None)

    def worker_summary(self) -> dict[str, dict[str, int]]:
        """Per-worker lease/byte accounting (bytes once disconnected)."""
        return {worker_id: asdict(state)
                for worker_id, state in self._workers.items()}

    # -- the runner's calls ---------------------------------------------------

    def serve_stage(self, stage: str, shards: list[list],
                    probe_of: Callable[[object], int] = lambda item: item,
                    checkpoints: StageCheckpoints | None = None,
                    resume: bool = False) -> StageOutcome:
        """Serve one fan-out stage until every shard is resolved or
        abandoned, running the loop in this thread.

        ``probe_of`` extracts the probe id from one shard item; it is
        only used to account quarantined probes for abandoned shards.
        """
        if checkpoints is None:
            checkpoints = StageCheckpoints.for_stage(
                None, "", stage, shards, "", "", tainted=False)
        with obs.span("supervise:%s" % stage, category="supervisor",
                      stage=stage, shards=len(shards)) as handle:
            resolved = checkpoints.begin(len(shards), resume)
            board = LeaseBoard(stage, shards, self.policy,
                               resolved=resolved)
            serving = _StageServing(board=board, checkpoints=checkpoints)
            if not board.done:
                self._start_local()
                self._serving = serving
                try:
                    self._pump(lambda: board.done)
                finally:
                    self._serving = None
            stored = serving.checkpoints_stored
            outcome = finish_stage(board, probe_of, len(resolved), stored)
            handle.set(leases=board.leases_granted, retries=board.retries,
                       reassignments=board.reassignments,
                       abandoned=len(board.abandoned),
                       duplicates=board.duplicates, late=board.late,
                       checkpoints_loaded=len(resolved),
                       checkpoints_stored=stored)
        for name, value in (("dist.results.duplicate", board.duplicates),
                            ("dist.results.late", board.late)):
            if value:
                obs.count(name, value)
        return outcome

    def finish(self, grace_s: float = timeutil.DIST_DRAIN_GRACE_S,
               until: Callable[[], bool] | None = None) -> None:
        """The run is over: answer every pull, parked ones included, with
        DRAIN(done), until ``until()`` holds (by default: until every
        connection has closed) or ``grace_s`` has passed."""
        self._finished = True
        self._pump(until or self._idle,
                   deadline=time.monotonic() + grace_s)

    def _idle(self) -> bool:
        return not self.connections

    def close(self) -> None:
        """Drop every connection and the listener; stop local workers."""
        if self._closed:
            return
        self._closed = True
        for key in list(self._selector.get_map().values()):
            if key.data is not None:
                self._forget(key.data)
                _reap(key.data)
        self._selector.close()
        if self._listener is not None:
            self._listener.close()
        if self._started:
            workers.reset_worker()

    # -- local worker processes ---------------------------------------------

    def _start_local(self) -> None:
        if self._local is None or self._started:
            return
        context, jobs, start_method = self._local
        if start_method == "fork":
            # Installed parent-side once, for copy-on-write inheritance;
            # spawn ships it to each new process as an argument instead.
            workers.init_worker(context)
        self._started = True
        for slot in range(jobs):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        context, _, start_method = self._local
        mp_context = multiprocessing.get_context(start_method)
        ours, theirs = socket.socketpair()
        if start_method == "fork":
            # The child inherits every parent-side end and closes them,
            # so it sees EOF if this process dies.
            inherited = tuple(key.data.sock for key
                              in self._selector.get_map().values()
                              if key.data is not None
                              and key.data.process is not None)
            args: tuple = (theirs, slot, None, (ours, *inherited))
        else:
            args = (theirs, slot, context)
        process = mp_context.Process(
            target=client.serve_local, args=args,
            name="repro-shard-worker-%d" % slot, daemon=True)
        try:
            process.start()
        # Cleanup-only handler: our end must not leak when the process
        # cannot start; the exception is re-raised untouched.
        except BaseException:  # repro: noqa[RPR004]
            ours.close()
            raise
        finally:
            theirs.close()
        ours.settimeout(timeutil.DIST_SOCKET_TIMEOUT_S)  # bounds sendall
        self._accepted += 1
        self._selector.register(ours, selectors.EVENT_READ, _Connection(
            sock=ours, serial=self._accepted, process=process, slot=slot))

    # -- the loop -------------------------------------------------------------

    def _pump(self, done: Callable[[], bool],
              deadline: float | None = None) -> None:
        """Run the loop until ``done()`` holds or ``deadline`` passes."""
        while True:
            # One clock reading for the board's expiry, the parked
            # grants and the next wakeup (see the board's module doc).
            now = time.monotonic()
            serving = self._serving
            if serving is not None:
                for record in serving.board.expire(now):
                    self._kill_hung(record.worker_id)
            if self._parked:
                self._answer_parked(now)
            # Sleep until traffic, the next lease deadline or backoff
            # end, a parked pull's due time, or the deadline; at most
            # poll_s.
            instants = [now + self.poll_s]
            if serving is not None:
                at = serving.board.wakeup_at(now)
                if at is not None:
                    instants.append(at)
            instants.extend(due for _, due in self._parked.values())
            if deadline is not None:
                instants.append(deadline)
            timeout = max(0.0, min(instants) - time.monotonic())
            for key, _ in self._selector.select(timeout):
                if key.data is None:
                    self._accept()
                else:
                    self._on_readable(key.data)
            if done() or (deadline is not None
                          and time.monotonic() >= deadline):
                return

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # the peer gave up before we got to it
        sock.settimeout(timeutil.DIST_SOCKET_TIMEOUT_S)  # bounds sendall
        self._accepted += 1
        self._selector.register(sock, selectors.EVENT_READ,
                                _Connection(sock=sock,
                                            serial=self._accepted))

    def _on_readable(self, connection: _Connection) -> None:
        try:
            message = self._read(connection)
            if message is None:
                return
            reply = self._dispatch(message, connection)
            if reply is not None:
                self._send(connection, reply)
        # A protocol violation (garbled frame) or socket error ends the
        # conversation; recovery happens through lease reassignment, so
        # dropping the connection is the whole remedy.
        except Exception:  # repro: noqa[RPR004]
            connection.closing = True
        if connection.closing:
            self._lost(connection)

    @staticmethod
    def _send(connection: _Connection, reply: object) -> None:
        frame = protocol.pack(reply)
        connection.sock.sendall(frame)
        connection.bytes_sent += len(frame)
        obs.count("dist.bytes.sent", len(frame))

    def _answer_parked(self, now: float) -> None:
        """Answer parked pulls, oldest first: a lease for each one a
        shard is ready for at ``now``, DRAIN(done) once the run
        finished, and DRAIN(not ready) for those parked too long."""
        for serial, (connection, due) in list(self._parked.items()):
            if self._finished:
                reply = protocol.Drain(done=True, reason="run complete")
            else:
                reply = self._grant(connection, now)
                if reply is None:
                    if now < due:
                        continue
                    reply = protocol.Drain(done=False, reason="not ready",
                                           retry_after_s=self.poll_s)
            del self._parked[serial]
            try:
                self._send(connection, reply)
            except OSError:
                self._lost(connection)

    @staticmethod
    def _read(connection: _Connection) -> object | None:
        """One ``recv_into`` toward the frame in flight; its message once
        whole.  The header is validated before the payload's buffer is
        allocated, at exactly the length the header names."""
        header = connection.header
        size = protocol.HEADER.size if header is None else header[1]
        if not connection.filled:
            connection.buffer = bytearray(size)
        got = connection.sock.recv_into(
            memoryview(connection.buffer)[connection.filled:])
        if not got:
            raise WireProtocolError("peer closed the connection")
        connection.filled += got
        if connection.filled < size:
            return None
        data, connection.buffer = connection.buffer, bytearray()
        connection.filled = 0
        connection.bytes_received += size
        obs.count("dist.bytes.received", size)
        if header is None:
            header = connection.header = protocol.unpack_header(data)
            if header[1]:
                return None
            data = bytearray()
        connection.header = None
        return protocol.unpack_payload(header[0], data, header[2])

    def _forget(self, connection: _Connection) -> None:
        """Unregister and close one connection; keep its byte counts."""
        self._selector.unregister(connection.sock)
        connection.sock.close()
        self._parked.pop(connection.serial, None)
        state = self._workers.get(connection.worker_id)
        if state is not None:
            state.bytes_sent += connection.bytes_sent
            state.bytes_received += connection.bytes_received

    def _lost(self, connection: _Connection) -> None:
        """A connection ended: charge the leases it held, and replace a
        local worker process."""
        self._forget(connection)
        board = self._serving.board if self._serving is not None else None
        if connection.process is None:
            if connection.worker_id and board is not None \
                    and board.disconnect(connection.holder):
                obs.count("dist.workers.disconnects")
            return
        code = _reap(connection)
        if not connection.worker_id:
            raise SupervisionError(
                "shard worker %d exited with code %s before it was ready"
                % (connection.slot, code))
        if board is not None:
            for record in list(board.active.values()):
                if record.worker_id == connection.holder:
                    board.fail_lease(record.lease_id,
                                     "worker exited with code %s" % code,
                                     lost=True)
        self._spawn(connection.slot)
        obs.count("runtime.pool.respawns")

    def _kill_hung(self, holder: str) -> None:
        """A lease expired (the board charged it ``hang``): kill its
        holder if that is a local worker, which is then replaced."""
        for key in list(self._selector.get_map().values()):
            connection = key.data
            if connection is not None and connection.holder == holder \
                    and connection.process is not None:
                self._lost(connection)
                return

    # -- messages -------------------------------------------------------------

    def _dispatch(self, message: object,
                  connection: _Connection) -> object | None:
        if isinstance(message, protocol.Hello):
            return self._on_hello(message, connection)
        if isinstance(message, protocol.Lease) and message.is_request:
            return self._on_lease_request(connection)
        if isinstance(message, protocol.Result):
            return self._on_result(message, connection)
        if isinstance(message, protocol.Heartbeat):
            return protocol.Heartbeat(worker_id="coordinator",
                                      lease_id=message.lease_id)
        connection.closing = True
        if isinstance(message, protocol.Drain):
            return protocol.Drain(done=True, reason="goodbye")
        return protocol.Drain(done=True,
                              reason="unexpected %s message"
                              % type(message).__name__)

    def _on_hello(self, hello: protocol.Hello,
                  connection: _Connection) -> object:
        if self._identity is None:
            return protocol.Drain(done=False, reason="not ready",
                                  retry_after_s=self.poll_s)
        fingerprint, min_connected, version = self._identity
        reject = ""
        if hello.protocol_version != protocol.PROTOCOL_VERSION:
            reject = ("protocol version mismatch (worker %d, coordinator "
                      "%d)" % (hello.protocol_version,
                               protocol.PROTOCOL_VERSION))
        elif hello.code_version and hello.code_version != version:
            reject = ("code version mismatch: worker runs different "
                      "analysis code; shards from divergent code must "
                      "not merge")
        elif hello.fingerprint and fingerprint \
                and hello.fingerprint != fingerprint:
            reject = ("bundle fingerprint mismatch: worker loaded a "
                      "different dataset")
        if reject:
            connection.closing = True
            return protocol.Drain(done=True, reason=reject)
        connection.worker_id = hello.worker_id
        if hello.worker_id not in self._workers:
            self._workers[hello.worker_id] = _WorkerState()
            obs.count("dist.workers.seen")
        # The reply carries the *coordinator's* identity so the worker
        # can verify symmetrically.
        return protocol.Hello(
            worker_id="coordinator",
            protocol_version=protocol.PROTOCOL_VERSION,
            code_version=version, fingerprint=fingerprint,
            min_connected=min_connected, role="coordinator")

    def _on_lease_request(self, connection: _Connection) -> object | None:
        if not connection.worker_id:
            connection.closing = True
            return protocol.Drain(done=True, reason="HELLO first")
        if self._finished:
            return protocol.Drain(done=True, reason="run complete")
        grant = self._grant(connection)
        if grant is None:
            # Between stages, or every shard leased: park the pull until
            # a shard is ready, the run finishes, or it has waited half
            # the workers' socket timeout (_answer_parked).
            self._parked[connection.serial] = (
                connection,
                time.monotonic() + timeutil.DIST_SOCKET_TIMEOUT_S / 2)
        return grant

    def _grant(self, connection: _Connection,
               now: float | None = None) -> protocol.Lease | None:
        """Lease the connection the next shard ready at ``now`` (default:
        the clock), if there is one."""
        serving = self._serving
        if serving is None:
            return None
        record = serving.board.lease(connection.holder, now)
        if record is None:
            return None
        self._workers[connection.worker_id].leases += 1
        obs.count("dist.leases.granted")
        obs.count("dist.leases.worker.%s" % connection.worker_id)
        cache_key = ""
        if serving.checkpoints.enabled:
            cache_key = serving.checkpoints.shard_key(record.shard_index)
        return protocol.Lease(
            lease_id=record.lease_id, stage=record.stage,
            shard_index=record.shard_index, attempt=record.attempt,
            items=tuple(serving.board.shards[record.shard_index]),
            deadline_s=self.policy.shard_deadline_s, cache_key=cache_key)

    def _on_result(self, result: protocol.Result,
                   connection: _Connection) -> object:
        ack = protocol.Heartbeat(worker_id="coordinator",
                                 lease_id=result.lease_id)
        serving = self._serving
        state = self._workers.get(connection.worker_id)
        if state is not None:
            state.results += 1
        if serving is None or serving.board.stage != result.stage:
            # The stage already drained (a stale retry's result):
            # idempotently acknowledged, dropped from accounting.
            obs.count("dist.results.stray")
            return ack
        if result.error:
            serving.board.fail_lease(result.lease_id, result.error)
            return ack
        verdict = serving.board.submit(result.lease_id, result.envelope)
        if verdict in (SUBMIT_RESOLVED, SUBMIT_LATE):
            if state is not None and result.cache_hit:
                state.cache_hits += 1
            if not result.cache_hit \
                    and serving.checkpoints.store(result.envelope):
                serving.checkpoints_stored += 1
        if result.cache_hit:
            obs.count("dist.results.cache_hits")
        return ack


def _reap(connection: _Connection) -> int | None:
    """Kill and join a connection's local worker; its exit code."""
    process = connection.process
    if process is None:
        return None
    process.kill()
    process.join()
    code = process.exitcode
    process.close()
    connection.process = None
    return code
