"""Thread confinement of the coordinator, pinned during loopback runs.

The coordinator runs two threads of its own: the runner thread, which
calls :meth:`~repro.dist.coordinator.LeaseServer.serve_stage`, and the
selector loop thread.  They share only the frozen config and the two
command/drain queues; the loop's state lives in its ``_Loop`` record,
and each stage's :class:`~repro.runtime.board.LeaseBoard` has one
driver at a time, handed over by those queues.  That is why neither the
server nor the board needs a lock.  These tests record which thread
touches what during a real two-worker loopback run and hold the
program to that design.
"""

import threading

import pytest

from repro.dist import coordinator
from repro.dist.coordinator import (
    DistConfig,
    LeaseServer,
    dist_runner_for_bundle,
)
from repro.dist.loopback import run_loopback
from repro.runtime.board import LeaseBoard

from tests.dist.conftest import context_for

pytestmark = [pytest.mark.dist]

#: The name the server gives its selector loop thread.
LOOP = "repro-dist-coordinator"


def _recording_server(config: DistConfig, log: set):
    """A :class:`LeaseServer` that adds ``(thread name, op, attribute)``
    to ``log`` for every instance attribute it assigns (``"set"``) or
    reads (``"get"``).  The constructing thread's own accesses count
    only once the constructor has returned."""
    built = threading.Event()
    builder = threading.current_thread()

    def note(op: str, name: str) -> None:
        thread = threading.current_thread()
        if thread is not builder or built.is_set():
            log.add((thread.name, op, name))

    class RecordingServer(LeaseServer):
        def __setattr__(self, name, value):
            note("set", name)
            super().__setattr__(name, value)

        def __getattribute__(self, name):
            if name in object.__getattribute__(self, "__dict__"):
                note("get", name)
            return object.__getattribute__(self, name)

    server = RecordingServer(config)
    built.set()
    return server


@pytest.mark.slow
def test_the_loop_assigns_no_server_attribute_and_shares_only_queues(
        bundle, serial_digest):
    log: set = set()
    config = DistConfig(workers=2)
    server = _recording_server(config, log)
    runner = dist_runner_for_bundle(bundle, config, server=server)
    run = run_loopback(runner, context_for(bundle, runner),
                       worker_count=2)
    summary = server.worker_summary()
    assert run.worker_errors == {}
    assert run.digest == serial_digest
    assert sorted(summary) == ["w0", "w1"]
    loop_sets = {name for thread, op, name in log
                 if thread == LOOP and op == "set"}
    assert loop_sets == set(), "the loop thread assigned %s" % loop_sets
    loop_reads = {name for thread, op, name in log
                  if thread == LOOP and op == "get"}
    other_reads = {name for thread, op, name in log
                   if thread != LOOP and op == "get"}
    assert "_commands" in loop_reads and "_drained" in other_reads
    shared = loop_reads & other_reads
    assert shared <= {"config", "_commands", "_drained"}, shared


class _RecordingQueue:
    """Forwards to a queue, calling ``on_put`` before each put."""

    def __init__(self, inner, on_put) -> None:
        self._inner = inner
        self._on_put = on_put

    def put(self, item) -> None:
        self._on_put(item)
        self._inner.put(item)

    def get(self, *args, **kwargs):
        return self._inner.get(*args, **kwargs)

    def empty(self) -> bool:
        return self._inner.empty()


@pytest.mark.slow
def test_each_board_is_driven_by_one_thread_at_a_time(bundle, serial_digest,
                                                      monkeypatch):
    """Per board: the runner thread makes every call up to the post and
    after the drain, and the loop thread every call in between."""
    calls: list = []  # (board, thread name, event), in call order
    guard = threading.Lock()

    def note(board: LeaseBoard, event: str) -> None:
        with guard:
            calls.append((board, threading.current_thread().name, event))

    def recorded(name):
        original = getattr(LeaseBoard, name)

        def call(self, *args, **kwargs):
            note(self, name)
            return original(self, *args, **kwargs)
        return call

    for name in ("__init__", "lease", "wakeup_at", "submit", "fail_lease",
                 "expire", "disconnect", "finish"):
        monkeypatch.setattr(LeaseBoard, name, recorded(name))
    done = LeaseBoard.done.fget

    def recorded_done(self):
        note(self, "done")
        return done(self)

    monkeypatch.setattr(LeaseBoard, "done", property(recorded_done))
    post = LeaseServer._post

    def recorded_post(self, command):
        if isinstance(command, coordinator._StageServing):
            note(command.board, "post")
        post(self, command)

    monkeypatch.setattr(LeaseServer, "_post", recorded_post)

    runner = dist_runner_for_bundle(bundle, DistConfig(workers=2))
    server = runner._server

    def on_put(item) -> None:
        if isinstance(item, coordinator._StageServing):
            note(item.board, "drain")

    server._drained = _RecordingQueue(server._drained, on_put)
    run = run_loopback(runner, context_for(bundle, runner),
                       worker_count=2)
    assert run.worker_errors == {}
    assert run.digest == serial_digest

    runner_thread = threading.current_thread().name
    boards = []
    for board, _, _ in calls:
        if all(board is not seen for seen in boards):
            boards.append(board)
    assert [board.stage for board in boards] \
        == ["filter", "spans", "reboots", "gaps"]
    for board in boards:
        trail = [(thread, event) for owner, thread, event in calls
                 if owner is board]
        events = [event for _, event in trail]
        assert events.count("post") == 1 and events.count("drain") == 1
        posted, drained = events.index("post"), events.index("drain")
        assert posted < drained
        assert {thread for thread, _ in trail[:posted + 1]} \
            == {runner_thread}, (board.stage, trail[:posted + 1])
        assert {thread for thread, _ in trail[posted + 1:drained + 1]} \
            == {LOOP}, (board.stage, trail[posted + 1:drained + 1])
        assert {thread for thread, _ in trail[drained + 1:]} \
            == {runner_thread}, (board.stage, trail[drained + 1:])
        assert "lease" in events[posted:drained]
        assert events[-1] == "finish"
