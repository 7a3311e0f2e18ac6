"""Local worker processes as lease holders: per-worker attribution.

Each of the ``jobs`` worker processes is a lease client on a socketpair
and holds at most one lease from the stage's
:class:`~repro.runtime.board.LeaseBoard`, so a failure is charged to
exactly the shard its worker was running, and recovery replaces exactly
that worker.  These tests pin the properties the
fault matrix in ``test_supervisor.py`` does not isolate: one hang costs
one worker, kernel exceptions are attributable crashes, and no run —
clean, faulted, or killed — leaves a worker process behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import obs
from repro.errors import SupervisionError
from repro.faults.process import ProcessFaultPlan
from repro.runtime import (
    RuntimeConfig,
    client,
    results_digest,
    runner_for_world,
)
from repro.runtime.server import LeaseServer

pytestmark = pytest.mark.runtime


@dataclass(frozen=True)
class _OneHang:
    """Hang the first attempt of one (stage, shard) and nothing else."""

    stage: str
    shard_index: int

    def fault_at(self, stage: str, shard_index: int,
                 attempt: int) -> str | None:
        if (stage, shard_index, attempt) == (self.stage, self.shard_index, 0):
            return "worker-hang"
        return None


@dataclass(frozen=True)
class _OneCrash:
    """SIGKILL the worker on the first attempt of one (stage, shard)."""

    stage: str
    shard_index: int

    def fault_at(self, stage: str, shard_index: int,
                 attempt: int) -> str | None:
        if (stage, shard_index, attempt) == (self.stage, self.shard_index, 0):
            return "worker-crash"
        return None


@dataclass(frozen=True)
class _RaisingKernel:
    """Raise inside the shard task on the first attempt of every shard."""

    def fault_at(self, stage: str, shard_index: int,
                 attempt: int) -> str | None:
        if attempt == 0:
            raise ValueError("kernel failed on %s shard %d"
                             % (stage, shard_index))
        return None


@pytest.fixture(scope="module")
def serial_digest(world):
    return results_digest(
        runner_for_world(world, RuntimeConfig(jobs=1)).run())


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.drain_spans()
    obs.metrics().drain()
    yield
    obs.drain_spans()
    obs.metrics().drain()


def _run(world, plan, **overrides):
    options = dict(jobs=2, max_retries=3, backoff_base_s=0.0)
    options.update(overrides)
    runner = runner_for_world(world, RuntimeConfig(fault_plan=plan,
                                                   **options))
    return runner, runner.run()


def test_one_hung_shard_costs_only_its_own_worker(world, serial_digest):
    runner, results = _run(world, _OneHang("spans", 1),
                           shard_deadline_s=2.0)
    assert results_digest(results) == serial_digest
    failures = [failure for row in runner.report.resilience
                for failure in row.failures]
    assert [(f.stage, f.shard_index, f.attempt, f.cause)
            for f in failures] == [("spans", 1, 0, "hang")]
    assert runner.report.total_retries == 1
    assert runner.report.total_reassignments == 1
    counters = obs.metrics_snapshot()["counters"]
    assert counters["runtime.pool.respawns"] == 1
    assert counters["runtime.shard.failures.hang"] == 1


def test_a_sigkilled_worker_is_charged_crash_with_its_exit_code(
        world, serial_digest):
    """EOF on a local worker's socket reaps the process: the lease it
    held is charged ``crash`` with the exit code, and one replacement
    starts."""
    runner, results = _run(world, _OneCrash("reboots", 2))
    assert results_digest(results) == serial_digest
    failures = [failure for row in runner.report.resilience
                for failure in row.failures]
    assert [(f.stage, f.shard_index, f.attempt, f.cause)
            for f in failures] == [("reboots", 2, 0, "crash")]
    assert failures[0].detail == "worker exited with code -%d" % (
        signal.SIGKILL,)
    assert runner.report.total_reassignments == 1
    assert obs.metrics_snapshot()["counters"]["runtime.pool.respawns"] == 1


def _exit_at_once(*args) -> None:
    os._exit(3)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_a_worker_dead_before_its_hello_raises_and_is_not_replaced(
        world, monkeypatch, method):
    started = []
    spawn = LeaseServer._spawn

    def counted(self, slot):
        started.append(slot)
        return spawn(self, slot)

    monkeypatch.setattr(LeaseServer, "_spawn", counted)
    monkeypatch.setattr(client, "serve_local", _exit_at_once)
    runner = runner_for_world(world, RuntimeConfig(jobs=2,
                                                   start_method=method))
    with pytest.raises(SupervisionError, match="before it was ready"):
        runner.run()
    assert sorted(started) == [0, 1]
    assert multiprocessing.active_children() == []


def test_kernel_exception_is_a_crash_that_retries_recover(world,
                                                         serial_digest):
    runner, results = _run(world, _RaisingKernel())
    assert results_digest(results) == serial_digest
    assert not runner.report.degraded
    for row in runner.report.resilience:
        assert len(row.failures) == row.shards
        assert {failure.cause for failure in row.failures} == {"crash"}
        assert all("ValueError: kernel failed" in failure.detail
                   for failure in row.failures)
        # The worker reported the error and kept serving.
        assert row.reassignments == 0
    assert "runtime.pool.respawns" not in obs.metrics_snapshot()["counters"]


@pytest.mark.parametrize("plan,overrides", [
    (None, {}),
    (ProcessFaultPlan(seed=13, worker_crash=0.3), {}),
    (ProcessFaultPlan(seed=17, worker_hang=0.2), {"shard_deadline_s": 1.0}),
], ids=["clean", "crash", "hang"])
def test_no_worker_outlives_its_run(world, serial_digest, plan, overrides):
    _, results = _run(world, plan, **overrides)
    assert results_digest(results) == serial_digest
    assert multiprocessing.active_children() == []


_DRIVER = """
from repro.experiments.scenarios import small_world
from repro.faults.process import ProcessFaultPlan
from repro.runtime import RuntimeConfig, runner_for_world

if __name__ == "__main__":
    world = small_world(seed=11, days=40)
    plan = ProcessFaultPlan(seed=1, worker_slow=1.0, slow_delay_s=0.3)
    runner_for_world(world, RuntimeConfig(
        jobs=2, start_method=%r, fault_plan=plan)).run()
"""


def _worker_pids(parent: int) -> set[int]:
    """Live worker processes whose parent is ``parent`` (Linux /proc)."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == parent and fields[0] != "Z" \
                and b"resource_tracker" not in cmdline:
            pids.add(int(entry.name))
    return pids


def _alive(pid: int) -> bool:
    try:
        state = Path("/proc/%d/stat" % pid).read_text()
    except OSError:
        return False
    return state.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads the process table from /proc")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_workers_exit_when_the_driver_is_killed(tmp_path, method):
    """A SIGKILLed driver runs no cleanup, so its workers must notice by
    themselves: each sees EOF on its socket (a forked worker first
    closes the parent-side socket ends it inherited) and exits."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip("%s is not available" % method)
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER % method)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[2] / "src")]
        + [part for part in [env.get("PYTHONPATH")] if part])
    driver = subprocess.Popen([sys.executable, str(script)], env=env)
    try:
        deadline = time.monotonic() + 120
        pids: set[int] = set()
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
            pids = _worker_pids(driver.pid)
        assert len(pids) == 2
        time.sleep(0.5)  # let the workers take leases
    finally:
        driver.send_signal(signal.SIGKILL)
        driver.wait()
    deadline = time.monotonic() + 30
    while any(_alive(pid) for pid in pids) \
            and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = [pid for pid in pids if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []
