"""Every socket a dist worker dials is closed, on every way out.

:meth:`LeaseClient.run` dials a channel per connection and must close it
whether the coordinator drains it, rejects it, lets the handshake time
out, or the connection dies mid-serve and the worker reconnects; and
:func:`transport.connect` must close its raw socket when the channel
around it cannot be built.  A leaked channel keeps a socket (and the
coordinator's per-connection state) alive until garbage collection.
The suite fails a test whose socket is finalized while still open
(``filterwarnings`` in ``pyproject.toml``), but only on paths some test
runs, so a scripted coordinator drives each exit path here and every
``transport.connect`` result is checked for a ``close()`` call.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.runtime import protocol, transport
from repro.runtime.client import LeaseClient
from repro.errors import DistError
from repro.runtime.cache import code_version

pytestmark = [pytest.mark.dist]

ACCEPT = protocol.Hello(
    worker_id="coordinator", protocol_version=protocol.PROTOCOL_VERSION,
    code_version=code_version(), fingerprint="", min_connected=0.0,
    role="coordinator")
DONE = protocol.Drain(done=True, reason="run finished")
#: Read the worker's request and never answer it.
SILENT = None


class _ScriptedCoordinator:
    """Accepts one connection per script and answers from it in order."""

    def __init__(self, scripts: list[list]) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._scripts = scripts
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        for script in self._scripts:
            conn, _ = self._listener.accept()
            conn.settimeout(10.0)
            peer = transport.Channel(conn)
            try:
                for reply in script:
                    peer._recv()
                    if reply is SILENT:
                        break
                    peer.send(reply)
                while conn.recv(4096):  # until the worker hangs up
                    pass
            except OSError:
                pass
            finally:
                peer.close()

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=10.0)


@pytest.fixture
def dialed(monkeypatch) -> list[dict]:
    """Every channel ``transport.connect`` hands out, with its closes."""
    records: list[dict] = []
    connect = transport.connect

    def recording_connect(*args, **kwargs):
        channel = connect(*args, **kwargs)
        record = {"id": channel.channel_id, "closes": 0}
        close = channel.close

        def counted_close() -> None:
            record["closes"] += 1
            close()

        channel.close = counted_close
        records.append(record)
        return channel

    monkeypatch.setattr(transport, "connect", recording_connect)
    return records


def _worker(coordinator: _ScriptedCoordinator, **kwargs) -> LeaseClient:
    return LeaseClient("127.0.0.1", coordinator.port, "w0",
                      socket_timeout_s=0.5, reconnect_delay_s=0.0,
                      **kwargs)


def _unclosed(records: list[dict]) -> list[str]:
    return [record["id"] for record in records if record["closes"] == 0]


def test_drained_worker_closes_its_channel(dialed):
    coordinator = _ScriptedCoordinator([[ACCEPT, DONE]])
    try:
        summary = _worker(coordinator).run()
    finally:
        coordinator.close()
    assert summary.reconnects == 0
    assert [record["id"] for record in dialed] == ["w0#0"]
    assert _unclosed(dialed) == []


def test_rejected_worker_closes_its_channel(dialed):
    rejection = protocol.Drain(done=True, reason="fingerprint skew")
    coordinator = _ScriptedCoordinator([[rejection]])
    try:
        with pytest.raises(DistError, match="rejected worker w0"):
            _worker(coordinator).run()
    finally:
        coordinator.close()
    assert [record["id"] for record in dialed] == ["w0#0"]
    assert _unclosed(dialed) == []


def test_worker_that_gives_up_mid_serve_closes_its_channel(dialed):
    coordinator = _ScriptedCoordinator([[ACCEPT, SILENT]])
    try:
        with pytest.raises(DistError, match="gave up after 0 reconnects"):
            _worker(coordinator, max_reconnects=0).run()
    finally:
        coordinator.close()
    assert [record["id"] for record in dialed] == ["w0#0"]
    assert _unclosed(dialed) == []


def test_reconnect_after_a_mid_serve_timeout_closes_both_channels(dialed):
    coordinator = _ScriptedCoordinator([[ACCEPT, SILENT], [ACCEPT, DONE]])
    try:
        summary = _worker(coordinator).run()
    finally:
        coordinator.close()
    assert summary.reconnects == 1
    assert [record["id"] for record in dialed] == ["w0#0", "w0#1"]
    assert _unclosed(dialed) == []


def test_handshake_timeout_redials_and_closes_both_channels(dialed):
    coordinator = _ScriptedCoordinator([[SILENT], [ACCEPT, DONE]])
    try:
        summary = _worker(coordinator).run()
    finally:
        coordinator.close()
    assert summary.reconnects == 1
    assert [record["id"] for record in dialed] == ["w0#0", "w0#1"]
    assert _unclosed(dialed) == []


@pytest.mark.parametrize("channel_class, plan", [
    ("Channel", None),
    ("FaultyChannel", object()),
], ids=["Channel", "FaultyChannel"])
def test_connect_closes_its_socket_when_the_channel_cannot_be_built(
        monkeypatch, channel_class, plan):
    def unbuildable(*args, **kwargs):
        raise RuntimeError("channel construction failed")

    opened: list[socket.socket] = []
    create_connection = socket.create_connection

    def recording_create_connection(*args, **kwargs):
        sock = create_connection(*args, **kwargs)
        opened.append(sock)
        return sock

    monkeypatch.setattr(transport, channel_class, unbuildable)
    monkeypatch.setattr(socket, "create_connection",
                        recording_create_connection)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with pytest.raises(RuntimeError, match="construction failed"):
            transport.connect("127.0.0.1", listener.getsockname()[1], 0.5,
                              plan=plan)
    [sock] = opened
    closed = sock.fileno() == -1
    sock.close()  # so a failure here leaks nothing into a later test
    assert closed
