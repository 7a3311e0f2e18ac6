"""Frame-level tests for the dist wire protocol."""

import pickle

import pytest

from repro.runtime import protocol
from repro.errors import WireProtocolError

pytestmark = pytest.mark.dist

MESSAGES = [
    protocol.Hello(worker_id="w0", protocol_version=1, code_version="c",
                   fingerprint="f", min_connected=3600.0),
    protocol.Lease(lease_id=7, stage="filter", shard_index=2, attempt=1,
                   items=(10, 11, 12), deadline_s=300.0, cache_key="k"),
    protocol.Lease.request(),
    protocol.Result(lease_id=7, stage="filter", shard_index=2, attempt=1,
                    envelope=None, error="boom"),
    protocol.Heartbeat(worker_id="w0", lease_id=7),
    protocol.Drain(done=False, reason="between stages",
                   retry_after_s=0.05),
]


def _round_trip(message):
    frame = protocol.pack(message)
    code, length, digest = protocol.unpack_header(
        frame[:protocol.HEADER.size])
    payload = frame[protocol.HEADER.size:]
    assert length == len(payload)
    return protocol.unpack_payload(code, payload, digest)


@pytest.mark.parametrize("message", MESSAGES,
                         ids=[type(m).__name__ + str(i)
                              for i, m in enumerate(MESSAGES)])
def test_round_trip(message):
    assert _round_trip(message) == message


def test_lease_request_marker():
    assert protocol.Lease.request().is_request
    assert not MESSAGES[1].is_request


def test_pack_rejects_foreign_objects():
    with pytest.raises(WireProtocolError):
        protocol.pack({"not": "a message"})


def test_garbled_payload_fails_integrity_digest():
    frame = bytearray(protocol.pack(MESSAGES[1]))
    frame[-1] ^= 0xFF
    code, _, digest = protocol.unpack_header(
        bytes(frame[:protocol.HEADER.size]))
    with pytest.raises(WireProtocolError, match="integrity digest"):
        protocol.unpack_payload(code, bytes(frame[protocol.HEADER.size:]),
                                digest)


def test_bad_magic_rejected():
    frame = bytearray(protocol.pack(MESSAGES[0]))
    frame[0:4] = b"HTTP"
    with pytest.raises(WireProtocolError, match="magic"):
        protocol.unpack_header(bytes(frame[:protocol.HEADER.size]))


def test_version_skew_rejected_at_the_header():
    frame = bytearray(protocol.pack(MESSAGES[0]))
    frame[4] = protocol.PROTOCOL_VERSION + 1
    with pytest.raises(WireProtocolError, match="version"):
        protocol.unpack_header(bytes(frame[:protocol.HEADER.size]))


def test_unknown_message_type_rejected():
    frame = bytearray(protocol.pack(MESSAGES[0]))
    frame[5] = 99
    with pytest.raises(WireProtocolError, match="unknown message type"):
        protocol.unpack_header(bytes(frame[:protocol.HEADER.size]))


def test_oversized_length_rejected_before_buffering():
    header = protocol.HEADER.pack(
        protocol.MAGIC, protocol.PROTOCOL_VERSION, protocol.MSG_HELLO,
        protocol.MAX_FRAME_BYTES + 1, b"\x00" * 32)
    with pytest.raises(WireProtocolError, match="ceiling"):
        protocol.unpack_header(header)


def test_short_header_rejected():
    with pytest.raises(WireProtocolError, match="short frame header"):
        protocol.unpack_header(b"RPRD")


def test_type_code_must_match_payload_class():
    """A HELLO payload inside a frame typed LEASE is a protocol error:
    the digest passes (the bytes are intact) but the class check fires."""
    import hashlib
    payload = pickle.dumps(MESSAGES[0],
                           protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    with pytest.raises(WireProtocolError, match="carried a"):
        protocol.unpack_payload(protocol.MSG_LEASE, payload, digest)
