"""The probe walk in plant groups: inline, or split with a forked worker.

``build_world`` forks one worker when the process may use two or more
cpus; pinning ``os.sched_getaffinity`` forces either path on any host.
Both must write the pinned golden bytes of ``test_bundle_golden``.
"""

import gc
import os
import signal

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.experiments.scenarios import small_world
from repro.sim import world as world_module
from repro.sim.io import write_world
from repro.sim.scenario import paper_scenario
from repro.sim.timeline import ProbeSimulator
from repro.sim.world import build_world

from tests.sim.test_bundle_golden import GOLDEN_SCALE_01, _sha256

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"),
    reason="the forked walk needs fork and sched_getaffinity")

CPUS = {"inline": {0}, "forked": {0, 1}}


@pytest.fixture
def cpus(monkeypatch):
    """Pin the cpu count build_world sees: ``cpus("forked")``."""
    def pin(mode):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(CPUS[mode]))
    return pin


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every child ``os.fork`` starts."""
    started = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return started


def _last_probes_span():
    return [span for span in obs.current_spans()
            if span.name == "sim:probes"][-1]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("seed", [2015, 7])
@pytest.mark.parametrize("mode", ["inline", "forked"])
def test_both_walks_write_the_golden_bytes(tmp_path, cpus, forks, mode,
                                           seed):
    cpus(mode)
    world = build_world(paper_scenario(scale=0.1, seed=seed))
    assert _last_probes_span().attr("processes") == (
        2 if mode == "forked" else 1)
    assert len(forks) == (1 if mode == "forked" else 0)
    _assert_reaped(forks)
    root = write_world(world, tmp_path / "bundle")
    _, digests = GOLDEN_SCALE_01[seed]
    for name in ("archive.tsv", "connlog.tsv", "uptime.tsv", "kroot.json"):
        assert _sha256(root / name) == digests[name], name


def test_forked_world_matches_inline_in_memory(cpus):
    # The bundle writer sorts by probe; the in-memory world the fresh
    # analysis reads keeps record order, so that must match too.
    cpus("inline")
    inline = small_world()
    cpus("forked")
    forked = small_world()
    assert list(forked.truth.items()) == list(inline.truth.items())
    assert list(forked.archive) == list(inline.archive)
    for dataset in ("connlog", "uptime", "kroot"):
        assert (getattr(forked, dataset).probe_ids()
                == getattr(inline, dataset).probe_ids()), dataset
    assert list(forked.connlog) == list(inline.connlog)
    assert list(forked.uptime) == list(inline.uptime)


@pytest.mark.parametrize("mode", ["inline", "forked"])
def test_each_side_records_a_walk_span(cpus, mode):
    cpus(mode)
    before = len(obs.current_spans())
    world = small_world()
    walks = [span for span in obs.current_spans()[before:]
             if span.name == "sim:walk"]
    assert sorted(span.attr("side") for span in walks) == (
        ["parent", "worker"] if mode == "forked" else ["parent"])
    assert sum(span.attr("probes") for span in walks) == len(world.truth)
    assert len({span.pid for span in walks}) == len(walks)


@pytest.mark.parametrize("mode", ["inline", "forked"])
def test_build_leaves_no_cyclic_garbage(cpus, mode):
    # The collector is paused for the whole build: that frees nothing
    # late only because the build makes no cycles.
    cpus(mode)
    gc.collect()
    small_world()
    assert gc.collect() == 0


def test_groups_join_movers_and_every_fixed_address_asn():
    def plan(probe_id, asns, fixed_asn=None):
        return world_module._ProbePlan(probe_id, asns,
                                       world_module.ProbeRole.DYNAMIC,
                                       fixed_asn=fixed_asn)

    a, b = plan(1, (1,), fixed_asn=10), plan(2, (2,), fixed_asn=20)
    mover, alone, second = plan(3, (3, 4)), plan(4, (5,)), plan(5, (4,))
    groups = world_module._plant_groups([a, b, mover, alone, second])
    # a and b share _fixed_rng; the mover couples plants 3 and 4.
    assert groups == [[a, b], [mover, second], [alone]]
    own, forked = world_module._split_groups(groups)
    assert (own, forked) == ([a, b, alone], [mover, second])


def test_paper_groups_share_no_asn():
    config = paper_scenario(scale=0.1, seed=2015)
    builder = world_module._WorldBuilder(config)
    world_module._plan_probes(builder, config, world_module._static_specs())
    groups = world_module._plant_groups(builder.plans)
    assert len(groups) >= 2
    seen = set()
    for group in groups:
        ids = [plan.probe_id for plan in group]
        assert ids == sorted(ids)
        asns = {asn for plan in group
                for asn in plan.asns + ((plan.fixed_asn,)
                                        if plan.fixed_asn else ())}
        assert not asns & seen
        seen |= asns


def _fail_in(monkeypatch, where, action):
    """Make ProbeSimulator.run call ``action`` in the parent or the worker."""
    parent = os.getpid()
    original = ProbeSimulator.run

    def run(self):
        if (os.getpid() == parent) == (where == "parent"):
            action()
        return original(self)

    monkeypatch.setattr(ProbeSimulator, "run", run)


def _raise():
    raise RuntimeError("injected walk failure")


def test_worker_failure_raises_with_its_traceback(cpus, forks, monkeypatch):
    cpus("forked")
    _fail_in(monkeypatch, "worker", _raise)
    fds = _open_fds()
    with pytest.raises(SimulationError) as failure:
        small_world()
    assert "simulation worker failed" in str(failure.value)
    assert "RuntimeError: injected walk failure" in str(failure.value)
    assert len(forks) == 1
    _assert_reaped(forks)
    assert _open_fds() == fds


def test_worker_death_raises_without_hanging(cpus, forks, monkeypatch):
    cpus("forked")
    _fail_in(monkeypatch, "worker",
             lambda: os.kill(os.getpid(), signal.SIGKILL))
    fds = _open_fds()
    with pytest.raises(SimulationError, match="died"):
        small_world()
    _assert_reaped(forks)
    assert _open_fds() == fds


def test_parent_failure_kills_and_reaps_the_worker(cpus, forks,
                                                   monkeypatch):
    cpus("forked")
    _fail_in(monkeypatch, "parent", _raise)
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="injected walk failure"):
        small_world()
    assert len(forks) == 1
    _assert_reaped(forks)
    assert _open_fds() == fds
