"""The coordinator's single selector loop, driven over raw sockets.

These tests talk to :class:`~repro.dist.coordinator.LeaseServer` the way
a misbehaving or unlucky peer would — half-sent frames, garbage headers,
a worker whose old connection dies after it reconnected — and hold the
loop to its promises: one peer's trouble never stalls the others, a
lease is charged to the connection that took it, a loop that dies
raises in the runner instead of hanging it, and the coordinator is one
thread.
"""

import pickle
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.dist import protocol, transport
from repro.dist.coordinator import (
    DistConfig,
    LeaseServer,
    dist_runner_for_bundle,
)
from repro.dist.loopback import run_loopback
from repro.errors import DistError
from repro.runtime import workers
from repro.runtime.board import LeaseBoard
from repro.runtime.cache import code_version
from repro.util import fingerprint as fp

from tests.dist.conftest import context_for

pytestmark = [pytest.mark.dist]


def _hello(server: LeaseServer, worker_id: str) -> transport.Channel:
    channel = transport.connect(server.host, server.port, timeout_s=10.0)
    reply = channel.request(protocol.Hello(
        worker_id=worker_id, protocol_version=protocol.PROTOCOL_VERSION,
        code_version=code_version(), fingerprint="", min_connected=0.0))
    assert isinstance(reply, protocol.Hello), reply
    return channel


def _pull(channel: transport.Channel) -> protocol.Lease:
    """Pull until granted (the stage may not be published yet)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        reply = channel.request(protocol.Lease.request())
        if isinstance(reply, protocol.Lease):
            return reply
        assert isinstance(reply, protocol.Drain) and not reply.done, reply
        time.sleep(0.01)
    raise AssertionError("no lease granted within 10 s")


def _envelope(shard_index: int, payload: object) -> workers.ShardResult:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return workers.ShardResult(shard_index=shard_index, attempt=0,
                               payload_pickle=blob,
                               seal=fp.hash_bytes(blob))


def _disconnects() -> float:
    return obs.metrics().counters().get("dist.workers.disconnects", 0)


def test_a_lease_belongs_to_its_connection_not_its_worker_id():
    """Worker w0 takes shard 0 on connection A, reconnects as B and takes
    shard 1, then A closes: only shard 0 is charged, and B's delivery of
    shard 1 resolves it — even with no retry budget at all."""
    server = LeaseServer(DistConfig(workers=1, max_retries=0,
                                    backoff_base_s=0.0))
    server.bind(SimpleNamespace(fingerprint="", _min_connected=0.0))
    outcomes = []
    stage = threading.Thread(target=lambda: outcomes.append(
        server.serve_stage("filter", [[1], [2]], lambda item: item,
                           tainted=False, version="v", params="p")))
    stage.start()
    channels = []
    try:
        first = _hello(server, "w0")
        channels.append(first)
        assert _pull(first).shard_index == 0
        second = _hello(server, "w0")
        channels.append(second)
        lease = _pull(second)
        assert lease.shard_index == 1
        before = _disconnects()
        first.close()
        deadline = time.monotonic() + 10.0
        while _disconnects() == before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _disconnects() > before, "the closed connection was not seen"
        ack = second.request(protocol.Result(
            lease_id=lease.lease_id, stage="filter", shard_index=1,
            attempt=0, envelope=_envelope(1, {2: "delivered"})))
        assert isinstance(ack, protocol.Heartbeat)
        stage.join(timeout=10.0)
        assert not stage.is_alive()
    finally:
        for channel in channels:
            channel.close()
        server.finish()
        server.close()
    [outcome] = outcomes
    row = outcome.resilience
    assert [(failure.shard_index, failure.cause)
            for failure in row.failures] == [(0, "disconnect")]
    assert row.reassignments == 1
    assert row.abandoned == (0,)
    assert row.quarantined_probes == (1,)
    assert row.analyzed_items + row.quarantined_items == row.total_items
    assert outcome.payloads == [None, {2: "delivered"}]


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_crashed_loop_raises_in_serve_stage(monkeypatch):
    def crash(self, now=None):
        raise RuntimeError("injected loop crash")

    monkeypatch.setattr(LeaseBoard, "expire", crash)
    server = LeaseServer(DistConfig(workers=1))
    server.bind(SimpleNamespace(fingerprint="", _min_connected=0.0))
    errors = []

    def serve():
        try:
            server.serve_stage("filter", [[1]], lambda item: item,
                               tainted=False, version="v", params="p")
        except DistError as error:
            errors.append(str(error))

    stage = threading.Thread(target=serve)
    stage.start()
    stage.join(timeout=10.0)
    try:
        assert not stage.is_alive(), "serve_stage hung on a dead loop"
        [message] = errors
        assert "injected loop crash" in message
    finally:
        server.close()


def _loopback(bundle, worker_count=2):
    runner = dist_runner_for_bundle(bundle,
                                    DistConfig(workers=worker_count))
    return runner, runner._server


def _dropped(sock: socket.socket) -> bool:
    """True once the coordinator has closed its end of ``sock``."""
    sock.settimeout(10.0)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


@pytest.mark.slow
def test_a_half_sent_frame_stalls_only_its_own_peer(bundle,
                                                    serial_digest):
    runner, server = _loopback(bundle)
    frame = protocol.pack(protocol.Hello(
        worker_id="stalled", protocol_version=protocol.PROTOCOL_VERSION,
        code_version=code_version(), fingerprint="", min_connected=0.0))
    with socket.create_connection((server.host, server.port)) as stalled:
        stalled.sendall(frame[:10])
        started = time.monotonic()
        run = run_loopback(runner, context_for(bundle, runner),
                           worker_count=2)
        # A loop blocked on the stalled peer would wait out the 30 s
        # socket timeout before serving anyone else.
        assert time.monotonic() - started < 25.0
        assert run.worker_errors == {}
        assert run.digest == serial_digest
        # Closing the server drops the idle peer too.
        assert _dropped(stalled)


@pytest.mark.slow
def test_bad_headers_are_dropped_before_any_payload(bundle,
                                                    serial_digest):
    runner, server = _loopback(bundle)
    valid = protocol.pack(protocol.Lease.request())
    bad_magic = b"XXXX" + valid[4:protocol.HEADER.size]
    oversized = protocol.HEADER.pack(
        protocol.MAGIC, protocol.PROTOCOL_VERSION, protocol.MSG_HELLO,
        protocol.MAX_FRAME_BYTES + 1, b"\0" * 32)
    peers = [socket.create_connection((server.host, server.port))
             for _ in range(2)]
    try:
        for peer, header in zip(peers, (bad_magic, oversized)):
            # The header alone: the coordinator must not wait for the
            # payload it announces before rejecting the frame.
            peer.sendall(header)
        for peer in peers:
            assert _dropped(peer)
        run = run_loopback(runner, context_for(bundle, runner),
                           worker_count=2)
    finally:
        for peer in peers:
            peer.close()
    assert run.worker_errors == {}
    assert run.digest == serial_digest


@pytest.mark.slow
def test_one_coordinator_thread_and_no_heartbeat_threads(bundle,
                                                         serial_digest,
                                                         monkeypatch):
    seen = []
    original = workers.SHARD_TASKS["filter"]

    def watched(items):
        seen.append(sorted(thread.name for thread in threading.enumerate()
                           if thread.name.startswith("repro-dist")))
        return original(items)

    monkeypatch.setitem(workers.SHARD_TASKS, "filter", watched)
    runner, _ = _loopback(bundle)
    run = run_loopback(runner, context_for(bundle, runner),
                       worker_count=2)
    assert run.digest == serial_digest
    assert seen, "the filter kernel never ran"
    for names in seen:
        assert names == ["repro-dist-coordinator", "repro-dist-w0",
                         "repro-dist-w1"]
