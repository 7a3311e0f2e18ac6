"""The pull-based lease client every worker runs.

A :class:`LeaseClient` handshakes with the lease server (HELLO must
agree on protocol version, code version, and bundle fingerprint — a
shard computed by divergent code or over a different dataset must never
reach the merge), then pulls leases until the server answers
DRAIN(done).  Each lease is served by :func:`repro.runtime.workers.
run_shard`, the one place shards are computed and sealed, and shipped
back as a sealed :class:`~repro.runtime.workers.ShardResult` envelope.

Two kinds of worker run it:

* a **local worker process** (``repro-run --jobs N``) runs
  :func:`serve_local` over its end of a ``socketpair``: it never dials
  and never reconnects, and its parent's death reaches it as EOF;
* a **socket worker** (``repro-dist worker``, or a loopback thread)
  calls :meth:`LeaseClient.run`, which dials the coordinator and redials
  after any socket error, timeout, or protocol violation (bounded by
  ``max_reconnects``).

When the run has a shared artifact cache, each lease carries the
shard's checkpoint ``cache_key``; a client with a cache handle verifies
and ships the cached envelope instead of recomputing (``cache_hit``),
and stores what it did compute so a retry of the same shard — by anyone
— short-circuits.

Every crash-recovery decision lives in the server's lease board; the
client only has to keep pulling.  A client is one thread: the thread
that calls :meth:`~LeaseClient.run` or :meth:`~LeaseClient.serve` owns
the instance and its channel.  It sends no heartbeats; lease deadlines
are hard, so liveness pings would change nothing.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field

from repro.errors import DistError, WireProtocolError
from repro.runtime import protocol, transport, workers
from repro.runtime.cache import ArtifactCache, code_version
from repro.util import fingerprint as fp
from repro.util import timeutil


@dataclass
class WorkerSummary:
    """One worker's account of its run, for reports and tests."""

    worker_id: str
    leases_served: int = 0
    cache_hits: int = 0
    errors_reported: int = 0
    reconnects: int = 0
    #: Network faults this worker's channels injected, by kind.
    injected: dict = field(default_factory=dict)


class LeaseClient:
    """Pull shards from a lease server until drained."""

    def __init__(self, host: str, port: int, worker_id: str,
                 fingerprint: str = "",
                 cache: ArtifactCache | None = None,
                 fault_plan: object | None = None,
                 ship_obs: bool = True,
                 install_context=None,
                 socket_timeout_s: float = timeutil.DIST_SOCKET_TIMEOUT_S,
                 reconnect_delay_s: float
                 = timeutil.DIST_RECONNECT_DELAY_S,
                 max_reconnects: int = 100) -> None:
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.fingerprint = fingerprint
        self.cache = cache
        self.fault_plan = fault_plan
        #: Whether envelopes carry this worker's spans and metrics; a
        #: loopback thread shares the server's process and sends none
        #: (see :meth:`ShardResult.sealed`).
        self.ship_obs = ship_obs
        #: Called once with the coordinator's ``min_connected`` after the
        #: first successful handshake — the hook the worker CLI uses to
        #: build its :class:`~repro.runtime.workers.WorkerContext` with
        #: the *coordinator's* filter threshold, guaranteeing parity.
        self.install_context = install_context
        self.socket_timeout_s = socket_timeout_s
        self.reconnect_delay_s = reconnect_delay_s
        self.max_reconnects = max_reconnects
        self.summary = WorkerSummary(worker_id=worker_id)
        self._connections = 0
        self._context_installed = False

    # -- connection lifecycle -------------------------------------------------

    def _dial(self) -> transport.Channel:
        """Connect and handshake; raises on incompatibility."""
        while True:
            # Fresh channel ids per connection ("w0#0", "w0#1", ...) so a
            # deterministic fault plan draws a *new* sequence after every
            # reconnect instead of replaying the fault that killed the
            # last connection forever.
            channel_id = "%s#%d" % (self.worker_id, self._connections)
            self._connections += 1
            try:
                channel = transport.connect(
                    self.host, self.port, self.socket_timeout_s,
                    channel_id=channel_id, plan=self.fault_plan)
            except ConnectionRefusedError:
                self._charge_reconnect("coordinator refused connection")
                time.sleep(self.reconnect_delay_s)
                continue
            try:
                reply = channel.request(self._hello())
            except (WireProtocolError, OSError):
                self._absorb_channel(channel)
                channel.close()
                self._charge_reconnect("handshake failed")
                time.sleep(self.reconnect_delay_s)
                continue
            try:
                if isinstance(reply, protocol.Drain) and not reply.done:
                    self._absorb_channel(channel)
                    channel.close()
                    time.sleep(reply.retry_after_s
                               or self.reconnect_delay_s)
                    continue
                self._accept(reply)
            # Cleanup-only handler: the channel must not outlive a fatal
            # verification failure (including KeyboardInterrupt), and the
            # exception is re-raised untouched.
            except BaseException:  # repro: noqa[RPR004]
                self._absorb_channel(channel)
                channel.close()
                raise
            return channel

    def _hello(self) -> protocol.Hello:
        return protocol.Hello(
            worker_id=self.worker_id,
            protocol_version=protocol.PROTOCOL_VERSION,
            code_version=code_version(), fingerprint=self.fingerprint,
            min_connected=0.0, role="worker")

    def _accept(self, reply: object) -> None:
        """Check the server's HELLO reply; raise unless it accepted us."""
        if isinstance(reply, protocol.Drain):
            # A deliberate rejection (version/fingerprint skew or the run
            # is over) — not a transient to retry around.
            raise DistError("coordinator rejected worker %s: %s"
                            % (self.worker_id, reply.reason))
        if not isinstance(reply, protocol.Hello) \
                or reply.role != "coordinator":
            raise DistError("peer at %s:%d did not identify as a "
                            "coordinator" % (self.host, self.port))
        if reply.code_version != code_version():
            raise DistError(
                "coordinator runs different analysis code (its version "
                "%s, ours %s): refusing to compute shards"
                % (fp.short(reply.code_version),
                   fp.short(code_version())))
        if self.fingerprint and reply.fingerprint \
                and reply.fingerprint != self.fingerprint:
            raise DistError(
                "coordinator serves a different bundle (fingerprint %s, "
                "ours %s)" % (fp.short(reply.fingerprint),
                              fp.short(self.fingerprint)))
        if self.install_context is not None \
                and not self._context_installed:
            self.install_context(reply.min_connected)
            self._context_installed = True

    def _charge_reconnect(self, detail: str) -> None:
        self.summary.reconnects += 1
        if self.summary.reconnects > self.max_reconnects:
            raise DistError(
                "worker %s gave up after %d reconnects (%s)"
                % (self.worker_id, self.max_reconnects, detail))

    def _absorb_channel(self, channel: transport.Channel) -> None:
        injected = getattr(channel, "injected", None)
        if injected:
            for kind, count in injected.items():
                self.summary.injected[kind] = (
                    self.summary.injected.get(kind, 0) + count)
            injected.clear()

    # -- serving --------------------------------------------------------------

    def run(self) -> WorkerSummary:
        """Dial the coordinator and serve leases until drained,
        redialing after every lost connection."""
        while True:
            channel = self._dial()
            try:
                if self._serve(channel):
                    return self.summary
            except (WireProtocolError, OSError):
                self._charge_reconnect("connection lost mid-serve")
                time.sleep(self.reconnect_delay_s)
            finally:
                self._absorb_channel(channel)
                channel.close()

    def serve(self, channel: transport.Channel) -> WorkerSummary:
        """Handshake and serve leases on one connected channel until
        drained; any socket or protocol error propagates."""
        self._accept(channel.request(self._hello()))
        self._serve(channel)
        return self.summary

    def _serve(self, channel: transport.Channel) -> bool:
        """One connection's pull loop; True when drained for good."""
        while True:
            reply = channel.request(protocol.Lease.request())
            if isinstance(reply, protocol.Drain):
                if reply.done:
                    channel.send(protocol.Drain(done=True,
                                                reason="goodbye"))
                    return True
                time.sleep(reply.retry_after_s
                           or timeutil.DIST_POLL_S)
                continue
            if not isinstance(reply, protocol.Lease) \
                    or reply.is_request:
                raise WireProtocolError(
                    "lease pull answered with %s"
                    % type(reply).__name__)
            result = self._compute(reply)
            ack = channel.request(result)
            self.summary.leases_served += 1
            if result.cache_hit:
                self.summary.cache_hits += 1
            if result.error:
                self.summary.errors_reported += 1
            if isinstance(ack, protocol.Drain) and ack.done:
                return True

    def _compute(self, lease: protocol.Lease) -> protocol.Result:
        """Serve one lease: cached envelope, or kernel compute + seal."""
        cached = self._cached_envelope(lease)
        if cached is not None:
            return protocol.Result(
                lease_id=lease.lease_id, stage=lease.stage,
                shard_index=lease.shard_index, attempt=lease.attempt,
                envelope=cached, cache_hit=True)
        try:
            envelope = workers.run_shard(
                lease.stage, list(lease.items), lease.shard_index,
                lease.attempt, ship_obs=self.ship_obs)
        # Any kernel failure becomes an attributable RESULT(error) for
        # the board to charge — never a dead worker.
        except Exception as error:  # repro: noqa[RPR004]
            return protocol.Result(
                lease_id=lease.lease_id, stage=lease.stage,
                shard_index=lease.shard_index, attempt=lease.attempt,
                error="%s: %s" % (type(error).__name__, error))
        if self.cache is not None and lease.cache_key:
            self.cache.store(lease.cache_key, envelope)
        return protocol.Result(
            lease_id=lease.lease_id, stage=lease.stage,
            shard_index=lease.shard_index, attempt=lease.attempt,
            envelope=envelope)

    def _cached_envelope(self, lease: protocol.Lease
                         ) -> workers.ShardResult | None:
        """A verified cached envelope for this shard, else ``None``."""
        if self.cache is None or not lease.cache_key:
            return None
        hit, value = self.cache.load(lease.cache_key,
                                     stage="shard:%s" % lease.stage)
        if not hit or not isinstance(value, workers.ShardResult) \
                or value.shard_index != lease.shard_index:
            return None
        try:
            value.open_payload()
        except Exception:  # repro: noqa[RPR004] — a corrupt cache
            # entry is a miss, the shard simply gets computed.
            return None
        return value


def serve_local(sock: socket.socket, slot: int,
                context: workers.WorkerContext | None = None,
                inherited: tuple[socket.socket, ...] = ()) -> None:
    """Local worker process body: one lease client on a socketpair end.

    ``context`` is ``None`` under fork (the parent installed it before
    starting the process) and the dataset context under spawn.  A forked
    worker also inherits the parent's end of every worker socketpair,
    its own included; it closes those (``inherited``) first, so the
    parent's death reaches it as EOF instead of leaving it blocked.
    """
    for end in inherited:
        end.close()
    if context is not None:
        workers.init_worker(context)
    channel = transport.Channel(sock)
    try:
        LeaseClient("", 0, "local-%d" % slot).serve(channel)
    except (WireProtocolError, OSError):
        return  # the parent closed the socket or died
    finally:
        channel.close()
