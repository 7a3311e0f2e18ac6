"""Socket channels speaking the framed lease protocol.

:class:`Channel` wraps one connected socket (a dialed TCP connection, or
a local worker's end of a ``socketpair``) with exact-length framing,
integrity-checked receive, and a ``request`` round-trip.  It is the
worker's end of the conversation and belongs to the one thread that
drives that worker; nothing else ever touches it, so it holds no lock.
(The lease server reads frames through its own selector loop, see
:mod:`repro.runtime.server`.)

:class:`FaultyChannel` is the deterministic network saboteur: before
every send it consults an inert fault plan (duck-typed
``fault_on(channel_id, direction, msg_type, seq)``, e.g.
:class:`repro.faults.network.NetworkFaultPlan`) and drops, garbles,
delays, or disconnects accordingly, logging every injection so
:func:`repro.faults.network.reconcile_network` can account the run
exactly.  Faults are injected on the *send* side only — that is where
one end can deterministically decide a message's fate; the receive side
then exercises the real recovery paths (timeouts, digest failures,
reconnects) with no cooperation.
"""

from __future__ import annotations

import socket
import time

from repro.runtime import protocol
from repro.errors import WireProtocolError

#: Fault-kind strings this module acts on, mirroring the network values
#: of ``repro.faults.injectors.FaultKind`` (kept as strings so the plan
#: object stays duck-typed and the faults layer stays below this one).
FAULT_MSG_DROP = "msg-drop"
FAULT_MSG_GARBLE = "msg-garble"
FAULT_MSG_DELAY = "msg-delay"
FAULT_CONN_DISCONNECT = "conn-disconnect"


class Channel:
    """One framed, request/response conversation over a socket."""

    def __init__(self, sock: socket.socket, channel_id: str = "") -> None:
        self._sock = sock
        self.channel_id = channel_id

    # -- raw framing ---------------------------------------------------------

    def _recv_exact(self, count: int) -> bytes:
        chunks: list[bytes] = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise WireProtocolError(
                    "connection closed mid-frame (%d of %d bytes)"
                    % (count - remaining, count))
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _send(self, message: object) -> None:
        self._sock.sendall(protocol.pack(message))

    def _recv(self) -> object:
        code, length, digest = protocol.unpack_header(
            self._recv_exact(protocol.HEADER.size))
        payload = self._recv_exact(length) if length else b""
        return protocol.unpack_payload(code, payload, digest)

    # -- public --------------------------------------------------------------

    def send(self, message: object) -> None:
        """Send one message."""
        self._send(message)

    def request(self, message: object) -> object:
        """One round-trip: send ``message``, return the reply."""
        self._send(message)
        return self._recv()

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class FaultyChannel(Channel):
    """A :class:`Channel` whose sends pass through a fault plan.

    ``seq`` counts this channel's send attempts, so a plan's placements
    are a pure function of the conversation position; ``injected`` logs
    what actually fired, per kind, for exact reconciliation.
    """

    def __init__(self, sock: socket.socket, plan: object,
                 channel_id: str = "") -> None:
        super().__init__(sock, channel_id=channel_id)
        self._plan = plan
        self._seq = 0
        self.injected: dict[str, int] = {}

    def _send(self, message: object) -> None:
        name = protocol.MSG_NAMES.get(
            protocol.MESSAGE_TYPES.get(type(message), 0), "unknown")
        seq = self._seq
        self._seq += 1
        kind = self._plan.fault_on(self.channel_id, "send", name, seq)
        if kind is None:
            super()._send(message)
            return
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if kind == FAULT_MSG_DROP:
            # Swallow the frame: the peer never sees the request, so
            # this end's recv times out and the worker reconnects.
            return
        if kind == FAULT_MSG_GARBLE:
            frame = bytearray(protocol.pack(message))
            # Flip the last payload byte; the header (and its digest
            # field) stays intact so the receiver's integrity check —
            # not a parse accident — is what catches it.
            frame[-1] ^= 0xFF
            self._sock.sendall(bytes(frame))
            return
        if kind == FAULT_MSG_DELAY:
            time.sleep(float(getattr(self._plan, "delay_s", 0.05)))
            super()._send(message)
            return
        if kind == FAULT_CONN_DISCONNECT:
            self.close()
            raise WireProtocolError(
                "injected disconnect on %s (seq %d)"
                % (self.channel_id or "channel", seq))
        # An unrecognized kind is a plan/transport version skew: fail
        # loudly rather than silently not injecting.
        raise WireProtocolError(
            "fault plan placed unknown network fault kind %r" % (kind,))


def connect(host: str, port: int, timeout_s: float,
            channel_id: str = "", plan: object | None = None) -> Channel:
    """Dial the coordinator; returns a (possibly faulty) channel."""
    sock = socket.create_connection((host, port), timeout=timeout_s)
    try:
        sock.settimeout(timeout_s)
        if plan is not None:
            return FaultyChannel(sock, plan, channel_id=channel_id)
        return Channel(sock, channel_id=channel_id)
    # Cleanup-only handler: the raw socket must not leak when channel
    # construction fails (including KeyboardInterrupt); the exception is
    # re-raised untouched.
    except BaseException:  # repro: noqa[RPR004]
        sock.close()
        raise
