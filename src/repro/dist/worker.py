"""The pull-based dist worker.

A :class:`DistWorker` dials the coordinator, handshakes (HELLO must
agree on protocol version, code version, and bundle fingerprint — a
shard computed by divergent code or over a different dataset must never
reach the merge), then pulls leases until the coordinator answers
DRAIN(done).  Each lease is served by the *same* shard kernels the
local worker path runs (:data:`repro.runtime.workers.SHARD_TASKS`), and
shipped back as the same sealed :class:`~repro.runtime.workers.
ShardResult` envelope — which is the whole bit-identity story: the
coordinator merges envelopes it cannot tell apart from local ones.

When the run has a shared artifact cache, each lease carries the
shard's checkpoint ``cache_key``; a worker with a cache handle verifies
and ships the cached envelope instead of recomputing (``cache_hit``),
and stores what it did compute so a retry of the same shard — by anyone
— short-circuits.

Failure handling is deliberately dumb on this side: any socket error,
timeout, or protocol violation tears the connection down and the worker
reconnects with a fresh handshake (bounded by ``max_reconnects``).
Every crash-recovery decision lives in the coordinator's lease board;
the worker only has to keep pulling.

A worker is one thread: the thread that calls :meth:`DistWorker.run`
(the process's main thread under ``repro-dist worker``, or a loopback
serve thread) owns the instance and its channel.  It sends no
heartbeats; lease deadlines on the coordinator are hard, so liveness
pings would change nothing.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

from repro.dist import protocol, transport
from repro.errors import DistError, WireProtocolError
from repro.runtime import workers
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


class DistWorker:
    """Pull shards from a coordinator until drained."""

    def __init__(self, host: str, port: int, worker_id: str,
                 fingerprint: str = "",
                 cache: ArtifactCache | None = None,
                 fault_plan: object | None = None,
                 capture_obs: bool = True,
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
        #: Loopback worker *threads* share the process-global span
        #: collector with the coordinator, so they must not drain it —
        #: they seal envelopes without observability instead of stealing
        #: the coordinator's spans.
        self.capture_obs = capture_obs
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
            # One thread drives an instance (see the module doc); the
            # analyzer conflates the two deployments into one role pair.
            self._connections += 1  # repro: noqa[RPR011] -- instance is confined to its single driving thread (dist main xor loopback serve thread)
            try:
                channel = transport.connect(
                    self.host, self.port, self.socket_timeout_s,
                    channel_id=channel_id, plan=self.fault_plan)
            except ConnectionRefusedError:
                self._charge_reconnect("coordinator refused connection")
                time.sleep(self.reconnect_delay_s)
                continue
            try:
                reply = channel.request(protocol.Hello(
                    worker_id=self.worker_id,
                    protocol_version=protocol.PROTOCOL_VERSION,
                    code_version=code_version(),
                    fingerprint=self.fingerprint,
                    min_connected=0.0, role="worker"))
            except (WireProtocolError, OSError):
                self._absorb_channel(channel)
                channel.close()
                self._charge_reconnect("handshake failed")
                time.sleep(self.reconnect_delay_s)
                continue
            try:
                if isinstance(reply, protocol.Drain):
                    if reply.done:
                        # A deliberate rejection (version/fingerprint
                        # skew or the run is over) — not a transient to
                        # retry around.
                        raise DistError(
                            "coordinator rejected worker %s: %s"
                            % (self.worker_id, reply.reason))
                    self._absorb_channel(channel)
                    channel.close()
                    time.sleep(reply.retry_after_s
                               or self.reconnect_delay_s)
                    continue
                if not isinstance(reply, protocol.Hello) \
                        or reply.role != "coordinator":
                    raise DistError(
                        "peer at %s:%d did not identify as a coordinator"
                        % (self.host, self.port))
                self._verify_coordinator(reply)
                if self.install_context is not None \
                        and not self._context_installed:
                    self.install_context(reply.min_connected)
                    self._context_installed = True  # repro: noqa[RPR011] -- instance is confined to its single driving thread (dist main xor loopback serve thread)
            # Cleanup-only handler: the channel must not outlive a fatal
            # verification failure (including KeyboardInterrupt), and the
            # exception is re-raised untouched.
            except BaseException:  # repro: noqa[RPR004]
                self._absorb_channel(channel)
                channel.close()
                raise
            return channel

    def _verify_coordinator(self, hello: protocol.Hello) -> None:
        if hello.code_version != code_version():
            raise DistError(
                "coordinator runs different analysis code (its version "
                "%s, ours %s): refusing to compute shards"
                % (fp.short(hello.code_version),
                   fp.short(code_version())))
        if self.fingerprint and hello.fingerprint \
                and hello.fingerprint != self.fingerprint:
            raise DistError(
                "coordinator serves a different bundle (fingerprint %s, "
                "ours %s)" % (fp.short(hello.fingerprint),
                              fp.short(self.fingerprint)))

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
                self.summary.injected[kind] = (  # repro: noqa[RPR011] -- instance is confined to its single driving thread (dist main xor loopback serve thread)
                    self.summary.injected.get(kind, 0) + count)
            injected.clear()

    # -- serving --------------------------------------------------------------

    def run(self) -> WorkerSummary:
        """Pull and serve leases until the coordinator drains us."""
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
            envelope = self._run_kernel(lease)
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

    def _run_kernel(self, lease: protocol.Lease) -> workers.ShardResult:
        items = list(lease.items)
        if self.capture_obs:
            return workers.run_shard(lease.stage, items,
                                     lease.shard_index, lease.attempt)
        # Obs-silent path (loopback threads): same kernel, manual seal,
        # empty spans/metrics — draining here would steal the
        # coordinator's process-global spans.
        kernel = workers.SHARD_TASKS[lease.stage]
        payload = kernel(items)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return workers.ShardResult(
            shard_index=lease.shard_index, attempt=lease.attempt,
            payload_pickle=blob, seal=fp.hash_bytes(blob))
