"""Thread confinement of the lease loop, pinned during real runs.

The loop has no thread of its own: it runs inside
:meth:`~repro.runtime.server.LeaseServer.serve_stage` and
:meth:`~repro.runtime.server.LeaseServer.finish`, in the runner's
thread.  So the server and each stage's
:class:`~repro.runtime.board.LeaseBoard` have one driver and need no
lock, and a local worker is forked while no other thread runs — a
worker forked while another thread held the span or metrics lock would
inherit the lock held and deadlock on its first ``obs`` call.  These
tests record which thread touches what and hold the program to that
design.
"""

import threading

import pytest

from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
from repro.dist.loopback import run_loopback
from repro.runtime import RuntimeConfig, results_digest, runner_for_world
from repro.runtime.board import LeaseBoard
from repro.runtime.server import LeaseServer

from tests.dist.conftest import context_for

pytestmark = [pytest.mark.dist]


def _record_calls(monkeypatch, cls, names, calls: list) -> None:
    """Append ``(class name, method, thread name)`` to ``calls`` on every
    call of each method in ``names``."""
    for name in names:
        original = getattr(cls, name)

        def call(self, *args, _original=original, _name=name, **kwargs):
            calls.append((cls.__name__, _name,
                          threading.current_thread().name))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, call)


@pytest.mark.slow
def test_every_board_and_server_call_is_on_the_runner_thread(
        bundle, serial_digest, monkeypatch):
    calls: list = []
    _record_calls(monkeypatch, LeaseBoard,
                  ("__init__", "lease", "wakeup_at", "submit",
                   "fail_lease", "expire", "disconnect", "finish"), calls)
    _record_calls(monkeypatch, LeaseServer,
                  [name for name, value in vars(LeaseServer).items()
                   if callable(value)
                   and not isinstance(value, staticmethod)], calls)
    runner = dist_runner_for_bundle(bundle, DistConfig(workers=2))
    run = run_loopback(runner, context_for(bundle, runner),
                       worker_count=2)
    assert run.worker_errors == {}
    assert run.digest == serial_digest
    runner_thread = threading.current_thread().name
    methods = {(owner, name) for owner, name, _ in calls}
    assert {("LeaseBoard", "lease"), ("LeaseBoard", "submit"),
            ("LeaseServer", "serve_stage"), ("LeaseServer", "_pump"),
            ("LeaseServer", "finish")} <= methods
    others = {(owner, name, thread) for owner, name, thread in calls
              if thread != runner_thread}
    assert others == set()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_local_fan_out_runs_no_other_thread(world, start_method,
                                              monkeypatch):
    """No thread starts during a local ``jobs=2`` run: not for the loop,
    and not for handing a socketpair end to a spawned worker."""
    seen = []
    lease = LeaseBoard.lease

    def watched(self, *args, **kwargs):
        seen.append(set(threading.enumerate()))
        return lease(self, *args, **kwargs)

    monkeypatch.setattr(LeaseBoard, "lease", watched)
    serial = results_digest(
        runner_for_world(world, RuntimeConfig(jobs=1)).run())
    before = set(threading.enumerate())
    runner = runner_for_world(world, RuntimeConfig(
        jobs=2, start_method=start_method))
    assert results_digest(runner.run()) == serial
    assert seen
    started = set().union(*seen) - before
    assert started == set(), started
