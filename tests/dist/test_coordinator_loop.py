"""The lease loop, driven over raw sockets.

These tests talk to :class:`~repro.runtime.server.LeaseServer` the way
a misbehaving or unlucky peer would — half-sent frames, garbage headers,
a worker whose old connection dies after it reconnected — and hold the
loop to its promises: one peer's trouble never stalls the others, a
lease is charged to the connection that took it, a loop that dies
raises in the runner instead of hanging it, and the coordinator is one
thread, the runner's.  The loop runs only inside ``serve_stage`` and
``finish``, so each test drives it from one thread and talks to it
from another.
"""

import pickle
import socket
import threading
import time

import pytest

from repro import obs
from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
from repro.dist.loopback import run_loopback
from repro.errors import WireProtocolError
from repro.runtime import protocol, transport, workers
from repro.runtime.server import LeaseServer
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


def _server(**config) -> LeaseServer:
    server = DistConfig(**config).server()
    server.bind("", 0.0)
    return server


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
    server = _server(workers=1, max_retries=0, backoff_base_s=0.0)
    stage, outcomes = _serve_in_background(server, [[1], [2]])
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


def test_a_crashed_loop_raises_in_serve_stage(monkeypatch):
    """The loop runs in the caller's thread, so whatever kills it raises
    straight out of ``serve_stage``."""
    def crash(self, now=None):
        raise RuntimeError("injected loop crash")

    monkeypatch.setattr(LeaseBoard, "expire", crash)
    server = _server(workers=1)
    try:
        with pytest.raises(RuntimeError, match="injected loop crash"):
            server.serve_stage("filter", [[1]])
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


def _closed_by_server(sock: socket.socket) -> bool:
    """True once the coordinator has closed its end; never blocks."""
    try:
        return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
    except BlockingIOError:
        return False
    except ConnectionResetError:
        return True


@pytest.mark.slow
def test_bad_headers_are_dropped_before_any_payload(bundle,
                                                    serial_digest,
                                                    monkeypatch):
    """The bad peers queue before the workers dial, so the loop accepts
    and drops them before it grants the first lease: by the time any
    kernel runs, both are closed."""
    runner, server = _loopback(bundle)
    valid = protocol.pack(protocol.Lease.request())
    bad_magic = b"XXXX" + valid[4:protocol.HEADER.size]
    oversized = protocol.HEADER.pack(
        protocol.MAGIC, protocol.PROTOCOL_VERSION, protocol.MSG_HELLO,
        protocol.MAX_FRAME_BYTES + 1, b"\0" * 32)
    peers = [socket.create_connection((server.host, server.port))
             for _ in range(2)]
    seen = []
    original = workers.SHARD_TASKS["filter"]

    def watched(items):
        seen.append([_closed_by_server(peer) for peer in peers])
        return original(items)

    monkeypatch.setitem(workers.SHARD_TASKS, "filter", watched)
    try:
        for peer, header in zip(peers, (bad_magic, oversized)):
            # The header alone: the coordinator must not wait for the
            # payload it announces before rejecting the frame.
            peer.sendall(header)
        run = run_loopback(runner, context_for(bundle, runner),
                           worker_count=2)
    finally:
        for peer in peers:
            peer.close()
    assert run.worker_errors == {}
    assert run.digest == serial_digest
    assert seen and all(closed == [True, True] for closed in seen), seen


@pytest.mark.slow
def test_one_coordinator_thread_and_no_heartbeat_threads(bundle,
                                                         serial_digest,
                                                         monkeypatch):
    """The coordinator is the runner's own thread: the only other
    threads are the two loopback workers."""
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
        assert names == ["repro-dist-w0", "repro-dist-w1"]


# -- parked pulls -------------------------------------------------------------

def _pull_in_background(channel: transport.Channel):
    """Send one lease pull from a thread; returns (thread, replies), where
    ``replies`` receives ``(reply, arrival time)`` — the reply is the
    error if the channel closed under the pull."""
    replies = []

    def pull():
        try:
            reply = channel.request(protocol.Lease.request())
        except (OSError, WireProtocolError) as error:
            reply = error
        replies.append((reply, time.monotonic()))

    thread = threading.Thread(target=pull, daemon=True)
    thread.start()
    return thread, replies


def _serve_in_background(server: LeaseServer, shards, stage="filter"):
    """Serve one stage from a thread, which then runs the loop."""
    outcomes = []
    thread = threading.Thread(target=lambda: outcomes.append(
        server.serve_stage(stage, shards)))
    thread.start()
    return thread, outcomes


def _deliver(channel: transport.Channel, lease: protocol.Lease,
             payload: object) -> None:
    ack = channel.request(protocol.Result(
        lease_id=lease.lease_id, stage=lease.stage,
        shard_index=lease.shard_index, attempt=0,
        envelope=_envelope(lease.shard_index, payload)))
    assert isinstance(ack, protocol.Heartbeat)


def _served_worker(server: LeaseServer, worker_id: str):
    """A worker that took and returned the one shard of a ``filter``
    stage, which has drained; returns its channel."""
    stage, outcomes = _serve_in_background(server, [[1]])
    channel = _hello(server, worker_id)
    _deliver(channel, _pull(channel), {1: "done"})
    stage.join(timeout=10.0)
    assert not stage.is_alive()
    [outcome] = outcomes
    assert outcome.payloads == [{1: "done"}]
    return channel


def test_a_pull_before_the_stage_is_parked_then_granted_when_posted():
    """With a 5 s poll, a pull that arrives between stages waits (no
    "poll again" answer) and gets its lease as soon as the next stage
    is served, not a poll period later."""
    server = _server(workers=1, poll_s=5.0)
    channel = _served_worker(server, "w0")
    try:
        puller, replies = _pull_in_background(channel)
        puller.join(timeout=0.5)
        assert puller.is_alive() and not replies, replies
        posted = time.monotonic()
        stage, outcomes = _serve_in_background(server, [[2]], "spans")
        puller.join(timeout=10.0)
        [(lease, arrived)] = replies
        assert isinstance(lease, protocol.Lease), lease
        assert lease.stage == "spans"
        assert arrived - posted < 2.0
        _deliver(channel, lease, {2: "done"})
        stage.join(timeout=10.0)
        assert not stage.is_alive()
    finally:
        channel.close()
        server.close()
    [outcome] = outcomes
    assert outcome.payloads == [{2: "done"}]


def test_finish_answers_a_parked_pull_with_drain_done():
    server = _server(workers=1, poll_s=5.0)
    channel = _served_worker(server, "w0")
    try:
        puller, replies = _pull_in_background(channel)
        puller.join(timeout=0.5)
        assert puller.is_alive() and not replies, replies
        server.finish(10.0, until=lambda: bool(replies))
        puller.join(timeout=2.0)
        [(reply, _)] = replies
        assert isinstance(reply, protocol.Drain) and reply.done, reply
    finally:
        channel.close()
        server.close()


def test_a_parked_connection_that_closes_is_forgotten_and_charged_nothing():
    """w1's pull parks while w0 holds the only shard; w1 then hangs up.
    The stage still resolves with no failure charged, and the loop goes
    on answering parked pulls (w0's, on finish) without tripping over
    the closed one."""
    server = _server(workers=2, poll_s=5.0, backoff_base_s=0.0)
    stage, outcomes = _serve_in_background(server, [[1]])
    holder = _hello(server, "w0")
    parked = _hello(server, "w1")
    try:
        lease = _pull(holder)
        puller, replies = _pull_in_background(parked)
        puller.join(timeout=0.5)
        assert puller.is_alive() and not replies, replies
        before = _disconnects()
        parked.close()
        puller.join(timeout=10.0)
        time.sleep(0.2)  # let the loop see the hang-up
        _deliver(holder, lease, {1: "done"})
        stage.join(timeout=10.0)
        assert not stage.is_alive()
        assert _disconnects() == before
        waiting, answers = _pull_in_background(holder)
        waiting.join(timeout=0.5)
        assert waiting.is_alive(), "a pull between stages was answered"
        server.finish(10.0, until=lambda: bool(answers))
        waiting.join(timeout=2.0)
        [(reply, _)] = answers
        assert isinstance(reply, protocol.Drain) and reply.done, reply
    finally:
        holder.close()
        parked.close()
        server.close()
    [outcome] = outcomes
    row = outcome.resilience
    assert row.failures == () and row.retries == 0
    assert row.reassignments == 0 and not row.abandoned
    assert outcome.payloads == [{1: "done"}]


def _stray() -> float:
    return obs.metrics().counters().get("dist.results.stray", 0)


def test_a_late_result_after_its_stage_drained_is_acked_as_stray():
    """A result for a stage that already drained waits in the socket
    until the next stage runs the loop, which acks it and drops it."""
    server = _server(workers=1, poll_s=5.0)
    channel = _served_worker(server, "w0")
    try:
        before = _stray()
        late = protocol.Result(
            lease_id=1, stage="filter", shard_index=0, attempt=0,
            envelope=_envelope(0, {1: "again"}))
        replies = []
        sender = threading.Thread(
            target=lambda: replies.append(channel.request(late)),
            daemon=True)
        sender.start()
        sender.join(timeout=0.5)
        assert sender.is_alive() and not replies, replies
        stage, outcomes = _serve_in_background(server, [[2]], "spans")
        sender.join(timeout=10.0)
        [ack] = replies
        assert isinstance(ack, protocol.Heartbeat)
        assert _stray() == before + 1
        _deliver(channel, _pull(channel), {2: "done"})
        stage.join(timeout=10.0)
        assert not stage.is_alive()
    finally:
        channel.close()
        server.close()
    [outcome] = outcomes
    assert outcome.resilience.failures == ()
    assert outcome.payloads == [{2: "done"}]


def test_a_socket_peer_that_closes_mid_lease_is_charged_disconnect():
    server = _server(workers=2, max_retries=1, backoff_base_s=0.0)
    stage, outcomes = _serve_in_background(server, [[1]])
    first = _hello(server, "w0")
    second = _hello(server, "w1")
    try:
        assert _pull(first).attempt == 0
        first.close()
        lease = _pull(second)
        assert (lease.shard_index, lease.attempt) == (0, 1)
        _deliver(second, lease, {1: "done"})
        stage.join(timeout=10.0)
        assert not stage.is_alive()
    finally:
        first.close()
        second.close()
        server.close()
    [outcome] = outcomes
    row = outcome.resilience
    assert [(failure.shard_index, failure.cause, failure.attempt)
            for failure in row.failures] == [(0, "disconnect", 0)]
    assert row.reassignments == 1 and not row.abandoned
    assert outcome.payloads == [{1: "done"}]


@pytest.mark.slow
def test_a_loopback_run_hashes_the_code_tree_once(bundle, serial_digest,
                                                  monkeypatch):
    """The runner thread hashes the tree when it binds the server; the
    loop and both worker threads reuse that hash."""
    calls = []
    hash_files = fp.hash_files

    def counted(paths):
        calls.append(1)
        return hash_files(paths)

    monkeypatch.setattr(fp, "hash_files", counted)
    code_version.cache_clear()
    runner, _ = _loopback(bundle)
    run = run_loopback(runner, context_for(bundle, runner),
                       worker_count=2)
    assert run.worker_errors == {}
    assert run.digest == serial_digest
    assert len(calls) == 1
