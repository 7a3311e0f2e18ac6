"""The framed, versioned lease protocol between the lease server and workers.

Local worker processes speak it over a ``socketpair`` and socket workers
over TCP; the lease server (:mod:`repro.runtime.server`) cannot tell the
two apart on the wire.

Every message travels in one frame::

    !4s   magic          b"RPRD"
    B     version        PROTOCOL_VERSION
    B     message type   MSG_HELLO .. MSG_DRAIN
    I     payload length bytes of pickle that follow the header
    32s   payload digest raw SHA-256 of the payload bytes

followed by ``length`` bytes of pickled message dataclass.  The digest
makes corruption *detectable by construction*: a garbled frame fails the
hash check and surfaces as :class:`~repro.errors.WireProtocolError`
before a byte of it is unpickled, so a faulty transport can cost a
retry, never a poisoned merge.  The magic/version prefix means a stray
client (or a worker running older protocol code) is rejected at the
first frame instead of mis-parsing traffic.

The conversation is strict request/response and the worker always
speaks first:

========== =============================== ============================
worker sends   coordinator replies          meaning
========== =============================== ============================
HELLO          HELLO                        identity + compatibility
                                            handshake (fingerprint,
                                            code version, protocol)
LEASE (req)    LEASE (grant) | DRAIN        pull one shard of work;
                                            DRAIN(done=False) = none
                                            ready yet, poll again;
                                            DRAIN(done=True) = exit
RESULT         HEARTBEAT                    ship a sealed envelope (or
                                            a kernel error); ack
HEARTBEAT      HEARTBEAT                    acked (workers don't ping)
DRAIN          DRAIN(done=True)             polite goodbye
========== =============================== ============================

Payloads are pickles, exactly like the artifact cache: the cluster is
trusted (workers compute over the same bundle the coordinator serves),
and the envelopes being shipped are the pickled
:class:`~repro.runtime.workers.ShardResult` objects the cache stores as
checkpoints.  Every message dataclass is pinned as an RPR010
wire contract, as are the frame constants themselves.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from dataclasses import dataclass, field

from repro.errors import WireProtocolError

#: Frame prefix: reject non-protocol traffic on the first four bytes.
MAGIC = b"RPRD"
#: Bumped on any frame-layout or message-semantics change; both ends
#: refuse to converse across versions (mixed-version shards must never
#: merge silently).
PROTOCOL_VERSION = 1

MSG_HELLO = 1
MSG_LEASE = 2
MSG_RESULT = 3
MSG_HEARTBEAT = 4
MSG_DRAIN = 5

#: Human-readable names for logging and fault-plan draw keys.
MSG_NAMES = {
    MSG_HELLO: "hello",
    MSG_LEASE: "lease",
    MSG_RESULT: "result",
    MSG_HEARTBEAT: "heartbeat",
    MSG_DRAIN: "drain",
}

#: Hard ceiling on one frame's payload: far above any paper-scale
#: envelope, low enough that a garbled length field cannot make the
#: receiver try to buffer gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

HEADER = struct.Struct("!4sBBI32s")

#: The frame layout is persistence across a process boundary in its
#: purest form, so its constants are a wire contract (RPR010).
__wire_contract__ = {
    "dist-frame": ("MAGIC", "PROTOCOL_VERSION", "MSG_HELLO", "MSG_LEASE",
                   "MSG_RESULT", "MSG_HEARTBEAT", "MSG_DRAIN",
                   "MAX_FRAME_BYTES"),
}


@dataclass(frozen=True)
class Hello:
    """Identity handshake, sent by the worker and echoed (with the
    coordinator's identity) as the reply.

    The coordinator's reply carries *its* ``fingerprint``,
    ``code_version`` and ``min_connected`` so the worker can verify it
    loaded the same bundle and runs the same analysis code — both sides
    reject a mismatch, because a shard computed by divergent code must
    never reach the merge.
    """

    __wire_contract__ = "dist-hello"

    worker_id: str
    protocol_version: int
    code_version: str
    fingerprint: str
    min_connected: float
    role: str = "worker"  # "worker" | "coordinator"


@dataclass(frozen=True)
class Lease:
    """One shard of work, granted to one worker until a deadline.

    The same class serves the worker's pull (``lease_id == -1``, every
    other field empty — see :meth:`request`) and the coordinator's
    grant.  ``items`` is the shard's work-item tuple (probe ids, or
    ``(probe_id, reboots)`` pairs for the ``gaps`` stage);
    ``deadline_s`` is the execution budget whose clock starts at grant;
    ``cache_key`` is the shard's checkpoint key when the run has a
    shared artifact cache (empty otherwise), letting the worker
    short-circuit compute with a verified cache hit.
    """

    __wire_contract__ = "dist-lease"

    lease_id: int
    stage: str
    shard_index: int
    attempt: int
    items: tuple = ()
    deadline_s: float = 0.0
    cache_key: str = ""

    @classmethod
    def request(cls) -> "Lease":
        """The worker's pull: grant me whatever shard is ready."""
        return cls(lease_id=-1, stage="", shard_index=-1, attempt=0)

    @property
    def is_request(self) -> bool:
        return self.lease_id < 0


@dataclass(frozen=True)
class Result:
    """One lease's outcome: a sealed envelope, or a kernel error.

    ``envelope`` is the sealed :class:`~repro.runtime.workers.
    ShardResult` (``None`` when the kernel raised, with ``error``
    carrying the rendered exception); ``cache_hit`` records that the
    worker served it from the shared artifact cache without computing.
    """

    __wire_contract__ = "dist-result"

    lease_id: int
    stage: str
    shard_index: int
    attempt: int
    envelope: object | None = None
    error: str = ""
    cache_hit: bool = False


@dataclass(frozen=True)
class Heartbeat:
    """The generic acknowledgment the coordinator replies to a RESULT
    with.  An inbound one is acknowledged in kind and changes nothing:
    workers do not ping, because lease deadlines are hard — a worker
    whose kernel is wedged is declared hung however alive its socket is.
    """

    __wire_contract__ = "dist-heartbeat"

    worker_id: str
    lease_id: int = -1


@dataclass(frozen=True)
class Drain:
    """Back off or shut down.

    ``done=False`` means "no work ready right now, poll again after
    ``retry_after_s``" (between stages, or while every remaining shard
    waits out a backoff); ``done=True`` means the run is over (or this
    worker was rejected) and the worker should exit.
    """

    __wire_contract__ = "dist-drain"

    done: bool
    reason: str = ""
    retry_after_s: float = 0.0


#: message class -> frame type code (and back).
MESSAGE_TYPES = {
    Hello: MSG_HELLO,
    Lease: MSG_LEASE,
    Result: MSG_RESULT,
    Heartbeat: MSG_HEARTBEAT,
    Drain: MSG_DRAIN,
}
TYPE_CLASSES = {code: cls for cls, code in MESSAGE_TYPES.items()}


def pack(message: object) -> bytes:
    """One complete frame (header + payload) for ``message``."""
    code = MESSAGE_TYPES.get(type(message))
    if code is None:
        raise WireProtocolError(
            "cannot send %r over the dist protocol" % (type(message),))
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            "frame payload of %d bytes exceeds the %d-byte ceiling"
            % (len(payload), MAX_FRAME_BYTES))
    digest = hashlib.sha256(payload).digest()
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, code, len(payload),
                       digest) + payload


def unpack_header(header: bytes) -> tuple[int, int, bytes]:
    """Validate a frame header; returns ``(type code, length, digest)``."""
    if len(header) != HEADER.size:
        raise WireProtocolError(
            "short frame header: %d of %d bytes" % (len(header),
                                                    HEADER.size))
    magic, version, code, length, digest = HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError("bad frame magic %r" % (magic,))
    if version != PROTOCOL_VERSION:
        raise WireProtocolError(
            "protocol version mismatch: peer speaks %d, this end speaks "
            "%d" % (version, PROTOCOL_VERSION))
    if code not in TYPE_CLASSES:
        raise WireProtocolError("unknown message type %d" % (code,))
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            "frame claims %d payload bytes, over the %d-byte ceiling"
            % (length, MAX_FRAME_BYTES))
    return code, length, digest


def unpack_payload(code: int, payload: bytes, digest: bytes) -> object:
    """Verify and unpickle one frame's payload into its message."""
    if hashlib.sha256(payload).digest() != digest:
        raise WireProtocolError(
            "frame payload failed its integrity digest (%s message, "
            "%d bytes)" % (MSG_NAMES.get(code, code), len(payload)))
    try:
        message = pickle.loads(payload)
    # A digest-valid frame whose pickle still fails can only come from a
    # peer running incompatible code; pickle surfaces that as wildly
    # varied types (UnpicklingError, AttributeError, ImportError, ...),
    # all of which must become one typed protocol error, not a crash.
    except Exception as error:  # repro: noqa[RPR004]
        raise WireProtocolError(
            "frame payload did not unpickle: %s" % (error,)) from error
    expected = TYPE_CLASSES[code]
    if not isinstance(message, expected):
        raise WireProtocolError(
            "frame typed %s carried a %s payload"
            % (MSG_NAMES.get(code, code), type(message).__name__))
    return message
