"""Stage functions and shard kernels run pure (DESIGN §10.1).

Every ``StageSpec.func`` in :data:`repro.runtime.stages.STAGES`, and
every shard kernel in :data:`repro.runtime.workers.SHARD_TASKS`, runs
on the session world inside :func:`guards.purity_guard`.  None may read
the environment or a clock, draw from a global RNG, open a file or
socket, list a directory, start a process, or change a ``repro``
module global: the artifact cache keys a stage's output on its inputs
and the code alone.
"""

from __future__ import annotations

import os
import random
import time

import numpy
import pytest

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.core.pipeline import default_min_connected
from repro.runtime import workers
from repro.runtime.stages import STAGES, topological_order
from tests.runtime import guards

pytestmark = pytest.mark.runtime


@pytest.fixture(scope="module")
def stage_runs(world):
    """Every stage run in order: ``(artifacts, findings by stage)``."""
    guards.import_all_repro_modules()
    artifacts = {
        "connlog": world.connlog, "archive": world.archive,
        "ip2as": world.ip2as, "uptime": world.uptime, "kroot": world.kroot,
        "colconn": ColumnarConnlog.from_connlog(world.connlog),
        "colup": ColumnarUptime.from_uptime(world.uptime),
        "min_connected": default_min_connected(world.config.start,
                                               world.config.end),
    }
    findings = {}
    for spec in topological_order():
        inputs = [artifacts[name] for name in spec.inputs]
        with guards.purity_guard() as found:
            result = spec.func(*inputs)
        findings[spec.name] = found
        values = result if len(spec.outputs) > 1 else (result,)
        artifacts.update(zip(spec.outputs, values))
    return artifacts, findings


@pytest.mark.parametrize("stage", [spec.name for spec in STAGES])
def test_stage_function_is_pure(stage_runs, stage):
    _, findings = stage_runs
    assert findings[stage] == []


@pytest.fixture(scope="module")
def kernel_findings(world, stage_runs):
    """Each shard kernel run in-process over every probe it serves."""
    artifacts, _ = stage_runs
    report = artifacts["filter_report"]
    reboots = artifacts["filtered_reboots"]
    shards = {
        "filter": world.connlog.probe_ids(),
        "spans": report.analyzable_geo(),
        "reboots": world.uptime.probe_ids(),
        "gaps": [(pid, reboots.get(pid, []))
                 for pid in report.analyzable_as()
                 if world.kroot.has_probe(pid)],
    }
    assert set(shards) == set(workers.SHARD_TASKS)
    # Not through run_shard, which opens obs spans on purpose.
    workers.init_worker(workers.WorkerContext(
        connlog=world.connlog, archive=world.archive, ip2as=world.ip2as,
        kroot=world.kroot, uptime=world.uptime,
        min_connected=artifacts["min_connected"]))
    findings = {}
    try:
        for name, kernel in workers.SHARD_TASKS.items():
            with guards.purity_guard() as found:
                kernel(shards[name])
            findings[name] = found
    finally:
        workers.reset_worker()
    return findings


@pytest.mark.parametrize("task", sorted(workers.SHARD_TASKS))
def test_shard_kernel_is_pure(kernel_findings, task):
    assert kernel_findings[task] == []


# -- the guard itself ---------------------------------------------------------

def _read_env():
    return os.environ.get("HOME")


def _getenv():
    return os.getenv("HOME")


def _read_clock():
    return time.perf_counter_ns()


def _draw():
    return random.random()


def _draw_numpy():
    return numpy.random.random()


def _open_file():
    with open(os.devnull, "rb") as stream:
        return stream.read()


def _list_dir():
    return os.listdir(".")


@pytest.mark.parametrize("act,expected", [
    (_read_env, "os.environ['HOME']"),
    (_getenv, "os.environ['HOME']"),
    (_read_clock, "time.perf_counter_ns()"),
    (_draw, "global RNG state changed"),
    (_draw_numpy, "global RNG state changed"),
    (_open_file, "audit open"),
    (_list_dir, "audit os.listdir"),
])
def test_guard_sees_each_impure_act(act, expected):
    guards.import_all_repro_modules()
    with guards.purity_guard() as found:
        act()
    assert any(entry.startswith(expected) for entry in found), found


def test_guard_sees_a_module_global_change_and_restores_its_patches():
    guards.import_all_repro_modules()
    real_environ, real_time = os.environ, time.time
    try:
        with guards.purity_guard() as found:
            workers.SHARD_TASKS["probe"] = None
    finally:
        del workers.SHARD_TASKS["probe"]
    assert found == ["repro.runtime.workers.SHARD_TASKS changed in place"]
    assert os.environ is real_environ and time.time is real_time
    with guards.purity_guard() as found:
        sum(range(10))
    assert found == []
