"""The coordinator: a lease server plus a runner that pulls from it.

:class:`LeaseServer` answers pull-based workers (HELLO handshake,
LEASE grants from the current stage's :class:`~repro.runtime.board.
LeaseBoard`, RESULT folding, DRAIN back-offs) from one thread: a
:mod:`selectors` loop that owns the listener, every socket, the worker
table, and the board of the stage being served.  The runner thread
talks to it only through two queues: it posts commands, and
:meth:`LeaseServer.serve_stage` blocks until the loop hands the board
back drained (or the exception that killed the loop).

:class:`DistRunner` subclasses :class:`~repro.runtime.executor.
ShardedRunner` and overrides exactly one seam — ``_stage_payloads`` —
so the cache handling, degraded-run rules, per-stage merge logic and
result assembly stay the single implementation the serial and local
sharded paths already share.  That inheritance is the bit-identity
argument: the distributed run computes the same shards with the same
kernels and merges them through the same ``ordered_merge`` calls, so
its ``results_digest`` matches ``repro-run --jobs 1`` by construction,
and the dist test suite pins it by measurement.

Checkpoints go through the shared artifact cache under the *same* keys
the local supervisor uses (:class:`repro.runtime.supervisor.
StageCheckpoints`), so a distributed run can resume a killed local
run's shards and vice versa, and workers can short-circuit compute via
the ``cache_key`` their lease carries.
"""

from __future__ import annotations

import os
import queue
import selectors
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import obs
from repro.core.pipeline import default_min_connected, scenario_as_labels
from repro.dist import protocol
from repro.errors import DistError, WireProtocolError
from repro.runtime.board import (
    SUBMIT_LATE,
    SUBMIT_RESOLVED,
    LeaseBoard,
    StageOutcome,
    SupervisionPolicy,
)
from repro.runtime.cache import DEFAULT_MAX_BYTES, ArtifactCache, code_version
from repro.runtime.executor import RunReport, RuntimeConfig, ShardedRunner
from repro.runtime.supervisor import StageCheckpoints, finish_stage
from repro.util import timeutil


@dataclass(frozen=True)
class DistConfig:
    """Coordinator knobs, orthogonal to what is computed."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``LeaseServer.port``).
    port: int = 0
    #: Expected worker count — a shard-count hint, exactly like the local
    #: path's ``jobs`` (outputs are identical for every value).
    workers: int = 2
    #: Explicit shard count; default ``workers * OVERSHARD`` per stage.
    shards: int | None = None
    #: Shared artifact cache; also the checkpoint/short-circuit store.
    cache_dir: str | Path | None = None
    max_cache_bytes: int = DEFAULT_MAX_BYTES
    #: Reload completed shard checkpoints before serving a stage.
    resume: bool = False
    max_retries: int = timeutil.MAX_SHARD_RETRIES
    #: Execution budget per lease; the clock starts at grant.
    lease_deadline_s: float = timeutil.LEASE_DEADLINE_S
    backoff_base_s: float = timeutil.BACKOFF_BASE_S
    #: Longest the coordinator loop sleeps when nothing is due, and the
    #: retry-after hint handed to empty-handed workers.
    poll_s: float = timeutil.DIST_POLL_S

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1, got %r"
                             % (self.workers,))
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0, got %r"
                             % (self.max_retries,))
        if self.lease_deadline_s <= 0:
            raise ValueError("lease_deadline_s must be positive, got %r"
                             % (self.lease_deadline_s,))
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0, got %r"
                             % (self.backoff_base_s,))
        if self.poll_s <= 0:
            raise ValueError("poll_s must be positive, got %r"
                             % (self.poll_s,))

    def policy(self) -> SupervisionPolicy:
        return SupervisionPolicy(
            max_retries=self.max_retries,
            shard_deadline_s=self.lease_deadline_s,
            backoff_base_s=self.backoff_base_s)

    def runtime_config(self) -> RuntimeConfig:
        """The executor config a :class:`DistRunner` runs under.

        ``jobs`` must exceed 1 for the executor to take the sharded
        path at all; :class:`DistRunner` then serves every fan-out stage
        through the lease server instead of local worker processes.
        """
        return RuntimeConfig(
            jobs=max(2, self.workers), shards=self.shards,
            cache_dir=self.cache_dir,
            max_cache_bytes=self.max_cache_bytes,
            resume=self.resume,
            max_retries=self.max_retries,
            shard_deadline_s=self.lease_deadline_s,
            backoff_base_s=self.backoff_base_s)


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
    """One stage's board and checkpoints, owned by the loop while served."""

    board: LeaseBoard
    checkpoints: StageCheckpoints
    checkpoints_stored: int = 0


@dataclass
class _Connection:
    """One accepted socket and the frame it is part-way through."""

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

    @property
    def holder(self) -> str:
        """Leases belong to the connection, not the worker id, so a
        reconnected worker's newer leases survive its old socket."""
        return "%s#%d" % (self.worker_id, self.serial)


@dataclass
class _Loop:
    """Everything the loop thread mutates; no other thread sees it."""

    selector: selectors.BaseSelector
    #: ``(fingerprint, min_connected, code version)`` of the bound runner.
    identity: tuple[str, float, str] | None = None
    serving: _StageServing | None = None
    finished: bool = False
    accepted: int = 0
    workers: dict[str, _WorkerState] = field(default_factory=dict)
    #: Lease pulls no shard was ready for, in arrival order: connection
    #: serial -> (connection, when to give up and answer "not ready").
    parked: dict[int, tuple[_Connection, float]] = field(
        default_factory=dict)


class LeaseServer:
    """Serve shard leases to socket workers; fold their results back.

    Both threads hold the server, so it keeps only the config, the two
    queues and the sockets made here; the loop's state is its ``_Loop``.
    """

    def __init__(self, config: DistConfig) -> None:
        self.config = config
        self._listener = socket.create_server((config.host, config.port))
        self._listener.setblocking(False)
        self.host = config.host
        self.port = int(self._listener.getsockname()[1])
        #: runner -> loop: the bound identity, a stage, "finish", "close".
        self._commands: queue.SimpleQueue = queue.SimpleQueue()
        #: loop -> runner: each drained stage, the exception that killed
        #: the loop, and the per-worker summary as its last word.
        self._drained: queue.SimpleQueue = queue.SimpleQueue()
        # A byte on ``_wake`` wakes the selector watching ``_wake_loop``.
        self._wake, self._wake_loop = socket.socketpair()
        self._wake.setblocking(False)
        self._fingerprint = ""
        self._summary: dict[str, dict[str, int]] = {}
        self._cache: ArtifactCache | None = None
        if config.cache_dir is not None:
            # The server's own handle: the runner opens each stage's
            # checkpoints with it, then the loop stores through it.
            self._cache = ArtifactCache(config.cache_dir,
                                        max_bytes=config.max_cache_bytes)
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-dist-coordinator")
        self._thread.start()

    # -- the runner thread's side ------------------------------------------

    def _post(self, command: object) -> None:
        self._commands.put(command)
        try:
            self._wake.send(b"\0")
        except OSError:
            pass  # the loop is already awake (full pipe) or gone

    def bind(self, runner: "ShardedRunner") -> None:
        """Attach the runner whose identity HELLO replies speak for.

        The code version is hashed here, in the runner's thread, before
        any worker dials: the loop never hashes the tree, and loopback
        workers find the process-wide cache warm.
        """
        self._fingerprint = runner.fingerprint
        self._post((runner.fingerprint,
                    getattr(runner, "_min_connected", 0.0),
                    code_version()))

    def finish(self) -> None:
        """The run is over: answer every pull, parked ones included, with
        DRAIN(done)."""
        self._post("finish")

    def close(self) -> None:
        """Stop the loop, which drops every connection and the listener."""
        self._post("close")
        self._thread.join()
        self._wake.close()

    def worker_summary(self) -> dict[str, dict[str, int]]:
        """Per-worker lease/byte accounting, once :meth:`close` returned."""
        while not self._drained.empty():
            reply = self._drained.get()
            if isinstance(reply, dict):
                self._summary.update(reply)
        return dict(self._summary)

    def serve_stage(self, stage: str, shards: list[list], probe_of,
                    tainted: bool, version: str,
                    params: str) -> StageOutcome:
        """Serve one fan-out stage: hand its board to the loop and block
        until the loop hands it back drained (every shard resolved or
        abandoned), or raise the exception that stopped the loop."""
        if not self._thread.is_alive() and self._drained.empty():
            raise DistError("lease server is closed")
        checkpoints = StageCheckpoints.for_stage(
            self._cache, self._fingerprint, stage, shards, version,
            params, tainted)
        resolved = checkpoints.begin(len(shards), self.config.resume)
        with obs.span("dist:%s" % stage, category="dist", stage=stage,
                      shards=len(shards)) as handle:
            serving = _StageServing(
                board=LeaseBoard(stage, shards, self.config.policy(),
                                 resolved=resolved),
                checkpoints=checkpoints)
            self._post(serving)
            reply = self._drained.get()
            if reply is not serving:
                raise DistError("coordinator loop stopped while serving "
                                "stage %r: %r" % (stage, reply))
            board = serving.board
            stored = serving.checkpoints_stored
            outcome = finish_stage(board, probe_of, len(resolved), stored)
            handle.set(leases=board.leases_granted, retries=board.retries,
                       reassignments=board.reassignments,
                       abandoned=len(board.abandoned),
                       duplicates=board.duplicates, late=board.late,
                       checkpoints_loaded=len(resolved),
                       checkpoints_stored=stored)
        for name, value in (("dist.leases.reassigned", board.reassignments),
                            ("dist.results.duplicate", board.duplicates),
                            ("dist.results.late", board.late)):
            if value:
                obs.count(name, value)
        return outcome

    # -- the loop thread ------------------------------------------------------

    def _run(self) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self._listener, selectors.EVENT_READ)
        selector.register(self._wake_loop, selectors.EVENT_READ)
        loop = _Loop(selector=selector)
        timeout = self.config.poll_s
        try:
            while True:
                events = selector.select(timeout)
                if not self._take_commands(loop):
                    return
                for key, _ in events:
                    if key.data is not None:
                        self._on_readable(loop, key.data)
                    elif key.fileobj is self._listener:
                        self._accept(loop)
                    else:
                        self._wake_loop.recv(4096)
                # One clock reading for the board's expiry, the parked
                # grants and the next wakeup (see the board's module doc).
                now = time.monotonic()
                serving = loop.serving
                if serving is not None:
                    serving.board.expire(now)
                if loop.parked:
                    self._answer_parked(loop, now)
                if serving is not None and serving.board.done:
                    # Hand the board back the moment it drains.
                    loop.serving = None
                    self._drained.put(serving)
                # Sleep until traffic, a command, the next lease
                # deadline or backoff end, or a parked pull's due time;
                # at most poll_s.
                timeout = self.config.poll_s
                if loop.serving is not None:
                    at = loop.serving.board.wakeup_at(now)
                    if at is not None:
                        timeout = min(timeout,
                                      max(0.0, at - time.monotonic()))
                if loop.parked:
                    due = min(due for _, due in loop.parked.values())
                    timeout = min(timeout, max(0.0, due - time.monotonic()))
        # Whatever kills the loop also goes to the runner, which raises
        # it from serve_stage rather than waiting on a dead loop; the
        # exception is re-raised untouched.
        except BaseException as error:  # repro: noqa[RPR004]
            self._drained.put(error)
            raise
        finally:
            for key in list(selector.get_map().values()):
                if key.data is not None:
                    self._drop(loop, key.data)
            selector.close()
            self._listener.close()
            self._wake_loop.close()
            self._drained.put({worker_id: asdict(state) for worker_id, state
                               in loop.workers.items()})

    def _take_commands(self, loop: _Loop) -> bool:
        """Apply the runner's commands; False once told to close."""
        while not self._commands.empty():
            command = self._commands.get()
            if isinstance(command, _StageServing):
                loop.serving = command
            elif command == "finish":
                loop.finished = True
            elif command == "close":
                return False
            else:
                loop.identity = command
        return True

    def _accept(self, loop: _Loop) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # the peer gave up before we got to it
        sock.settimeout(timeutil.DIST_SOCKET_TIMEOUT_S)  # bounds sendall
        loop.accepted += 1
        loop.selector.register(sock, selectors.EVENT_READ,
                               _Connection(sock=sock, serial=loop.accepted))

    def _on_readable(self, loop: _Loop, connection: _Connection) -> None:
        try:
            message = self._read(connection)
            if message is None:
                return
            reply = self._dispatch(loop, message, connection)
            if reply is not None:
                self._send(connection, reply)
        # A protocol violation (garbled frame) or socket error ends the
        # conversation; recovery happens through lease reassignment, so
        # dropping the connection is the whole remedy.
        except Exception:  # repro: noqa[RPR004]
            connection.closing = True
        if connection.closing:
            self._drop(loop, connection)

    @staticmethod
    def _send(connection: _Connection, reply: object) -> None:
        frame = protocol.pack(reply)
        connection.sock.sendall(frame)
        connection.bytes_sent += len(frame)
        obs.count("dist.bytes.sent", len(frame))

    def _answer_parked(self, loop: _Loop, now: float) -> None:
        """Answer parked pulls, oldest first: a lease for each one a
        shard is ready for at ``now``, DRAIN(done) once the run
        finished, and DRAIN(not ready) for those parked too long."""
        for serial, (connection, due) in list(loop.parked.items()):
            if loop.finished:
                reply = protocol.Drain(done=True, reason="run complete")
            else:
                reply = self._grant(loop, connection, now)
                if reply is None:
                    if now < due:
                        continue
                    reply = protocol.Drain(done=False, reason="not ready",
                                           retry_after_s=self.config.poll_s)
            del loop.parked[serial]
            try:
                self._send(connection, reply)
            except OSError:
                self._drop(loop, connection)

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

    def _drop(self, loop: _Loop, connection: _Connection) -> None:
        """Forget one connection and charge the leases it held."""
        loop.selector.unregister(connection.sock)
        connection.sock.close()
        loop.parked.pop(connection.serial, None)
        state = loop.workers.get(connection.worker_id)
        if state is not None:
            state.bytes_sent += connection.bytes_sent
            state.bytes_received += connection.bytes_received
            if loop.serving is not None \
                    and loop.serving.board.disconnect(connection.holder):
                obs.count("dist.workers.disconnects")

    def _dispatch(self, loop: _Loop, message: object,
                  connection: _Connection) -> object | None:
        if isinstance(message, protocol.Hello):
            return self._on_hello(loop, message, connection)
        if isinstance(message, protocol.Lease) and message.is_request:
            return self._on_lease_request(loop, connection)
        if isinstance(message, protocol.Result):
            return self._on_result(loop, message, connection)
        if isinstance(message, protocol.Heartbeat):
            return protocol.Heartbeat(worker_id="coordinator",
                                      lease_id=message.lease_id)
        connection.closing = True
        if isinstance(message, protocol.Drain):
            return protocol.Drain(done=True, reason="goodbye")
        return protocol.Drain(done=True,
                              reason="unexpected %s message"
                              % type(message).__name__)

    def _on_hello(self, loop: _Loop, hello: protocol.Hello,
                  connection: _Connection) -> object:
        if loop.identity is None:
            return protocol.Drain(done=False, reason="not ready",
                                  retry_after_s=self.config.poll_s)
        fingerprint, min_connected, version = loop.identity
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
        if hello.worker_id not in loop.workers:
            loop.workers[hello.worker_id] = _WorkerState()
            obs.count("dist.workers.seen")
        # The reply carries the *coordinator's* identity so the worker
        # can verify symmetrically.
        return protocol.Hello(
            worker_id="coordinator",
            protocol_version=protocol.PROTOCOL_VERSION,
            code_version=version, fingerprint=fingerprint,
            min_connected=min_connected, role="coordinator")

    def _on_lease_request(self, loop: _Loop,
                          connection: _Connection) -> object | None:
        if not connection.worker_id:
            connection.closing = True
            return protocol.Drain(done=True, reason="HELLO first")
        if loop.finished:
            return protocol.Drain(done=True, reason="run complete")
        grant = self._grant(loop, connection)
        if grant is None:
            # Between stages, or every shard leased: park the pull until
            # a shard is ready, the run finishes, or it has waited half
            # the workers' socket timeout (_answer_parked).
            loop.parked[connection.serial] = (
                connection,
                time.monotonic() + timeutil.DIST_SOCKET_TIMEOUT_S / 2)
        return grant

    def _grant(self, loop: _Loop, connection: _Connection,
               now: float | None = None) -> protocol.Lease | None:
        """Lease the connection the next shard ready at ``now`` (default:
        the clock), if there is one."""
        serving = loop.serving
        if serving is None:
            return None
        record = serving.board.lease(connection.holder, now)
        if record is None:
            return None
        loop.workers[connection.worker_id].leases += 1
        obs.count("dist.leases.granted")
        obs.count("dist.leases.worker.%s" % connection.worker_id)
        cache_key = ""
        if serving.checkpoints.enabled:
            cache_key = serving.checkpoints.shard_key(record.shard_index)
        return protocol.Lease(
            lease_id=record.lease_id, stage=record.stage,
            shard_index=record.shard_index, attempt=record.attempt,
            items=tuple(serving.board.shards[record.shard_index]),
            deadline_s=self.config.lease_deadline_s, cache_key=cache_key)

    def _on_result(self, loop: _Loop, result: protocol.Result,
                   connection: _Connection) -> object:
        ack = protocol.Heartbeat(worker_id="coordinator",
                                 lease_id=result.lease_id)
        serving = loop.serving
        state = loop.workers.get(connection.worker_id)
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
            if serving.checkpoints.enabled and not result.cache_hit:
                serving.checkpoints.store(result.envelope)
                serving.checkpoints_stored += 1
        if result.cache_hit:
            obs.count("dist.results.cache_hits")
        return ack


class DistRunner(ShardedRunner):
    """A :class:`ShardedRunner` whose fan-out stages go over the wire."""

    def __init__(self, server: LeaseServer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._server = server
        server.bind(self)

    def _new_report(self) -> RunReport:
        # Workers are not local processes: the local path's
        # oversubscription warning would be meaningless here.
        return RunReport(
            jobs=self.config.jobs, fingerprint=self.fingerprint,
            cpu_count=os.cpu_count() or 1, oversubscribed=False,
            start_method=None)

    def _stage_payloads(self, stage: str, shards: list[list],
                        probe_of=lambda item: item) -> list:
        outcome = self._server.serve_stage(
            stage, shards, probe_of, tainted=self.report.degraded,
            version=self._version, params=self._params)
        self.report.resilience.append(outcome.resilience)
        return [payload for payload in outcome.payloads
                if payload is not None]


def dist_runner_for_bundle(bundle, config: DistConfig,
                           server: LeaseServer | None = None,
                           min_connected: float | None = None
                           ) -> DistRunner:
    """Coordinator runner over a loaded bundle (mirrors
    :func:`repro.runtime.executor.runner_for_bundle`)."""
    if server is None:
        server = LeaseServer(config)
    if min_connected is None:
        min_connected = default_min_connected(bundle.start, bundle.end)
    return DistRunner(
        server, bundle.connlog, bundle.archive, bundle.kroot,
        bundle.uptime, bundle.ip2as, as_names=bundle.as_names,
        as_countries=bundle.as_countries, min_connected=min_connected,
        fingerprint=bundle.fingerprint, config=config.runtime_config())


def dist_runner_for_world(world, config: DistConfig,
                          server: LeaseServer | None = None,
                          min_connected: float | None = None
                          ) -> DistRunner:
    """Coordinator runner over an in-memory simulated world (mirrors
    :func:`repro.runtime.executor.runner_for_world`)."""
    from repro.runtime.executor import world_fingerprint
    if server is None:
        server = LeaseServer(config)
    as_names, as_countries = scenario_as_labels(world.config)
    if min_connected is None:
        min_connected = default_min_connected(world.config.start,
                                              world.config.end)
    return DistRunner(
        server, world.connlog, world.archive, world.kroot, world.uptime,
        world.ip2as, as_names=as_names, as_countries=as_countries,
        min_connected=min_connected,
        fingerprint=world_fingerprint(world.config),
        config=config.runtime_config())
