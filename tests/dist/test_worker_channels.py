"""Every channel a dist worker dials is closed, on every way out of run().

:meth:`DistWorker.run` dials a channel per connection and must close it
whether the coordinator drains it, rejects it, or the connection dies
mid-serve and the worker reconnects.  A leaked channel keeps a socket
(and the coordinator's per-connection state) alive until garbage
collection.  RPR012 follows resources returned by dotted and local
calls, not by a method call such as ``self._dial()``, so these tests pin
the property instead: a scripted coordinator drives each exit path and
every ``transport.connect`` result is checked for a ``close()`` call.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.dist import protocol, transport
from repro.dist.worker import DistWorker
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


def _worker(coordinator: _ScriptedCoordinator, **kwargs) -> DistWorker:
    return DistWorker("127.0.0.1", coordinator.port, "w0",
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
