"""World builder: run a scenario and emit the three Atlas datasets.

:func:`build_world` stands up every ISP plant, deploys regular and
confounder probe populations, walks each probe through the year with
:class:`~repro.sim.timeline.ProbeSimulator`, and packages the results as
the datasets the analysis pipeline consumes — plus per-probe ground truth
so integration tests can check the pipeline recovers what was configured.

Probes whose ISP plants share nothing are independent, so the walk runs
in *plant groups*: on a host with two usable CPUs a forked worker walks
some groups while this process walks the rest, and the recorded bytes
are the same as walking them all in one process.
"""

from __future__ import annotations

import enum
import os
import pickle
import random
import signal
import sys
import threading
import traceback
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NoReturn

from repro import obs
from repro.atlas.archive import ProbeArchive, continent_of
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootDataset, KRootSeries
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ProbeMeta, ProbeVersion
from repro.errors import SimulationError
from repro.isp.policy import DhcpPlant, PppPlant, build_plant
from repro.isp.pool import AddressPool, PoolPolicy
from repro.isp.spec import AccessTechnology, IspSpec
from repro.net.bgpgen import AddressSpaceAllocator, AddressSpacePlan
from repro.net.ipv4 import IPv4Prefix
from repro.net.pfx2as import AsMapping, IpToAsDataset
from repro.sim.outages import (
    Interruption,
    InterruptionKind,
    generate_interruptions,
    inject_event,
)
from repro.sim.scenario import ScenarioConfig
from repro.sim.timeline import ProbeOutput, ProbeSimulator, Segment
from repro.util import timeutil
from repro.util.heap import collector_paused
from repro.util.rng import substream, weighted_choice

#: The RIPE NCC's AS, used for the testing-address mapping.
RIPE_NCC_ASN = 3333
RIPE_TESTING_PREFIX = IPv4Prefix.parse("193.0.0.0/21")


class ProbeRole(enum.Enum):
    """Why a probe is in the scenario (ground truth for tests)."""

    DYNAMIC = "dynamic"
    MOVER = "mover"
    STATIC = "static"
    DUAL_STACK = "dual-stack"
    IPV6_ONLY = "ipv6-only"
    TAGGED = "tagged"
    MULTIHOMED = "multihomed"
    TESTING = "testing"


@dataclass(frozen=True)
class ProbeTruth:
    """Ground truth about one simulated probe."""

    probe_id: int
    role: ProbeRole
    asns: tuple[int, ...]
    isp_names: tuple[str, ...]
    version: ProbeVersion
    fate_sharing: bool
    true_change_count: int


@dataclass
class WorldData:
    """The simulated equivalents of the paper's input datasets."""

    config: ScenarioConfig
    archive: ProbeArchive
    connlog: ConnectionLog
    kroot: KRootDataset
    uptime: UptimeDataset
    ip2as: IpToAsDataset
    truth: dict[int, ProbeTruth] = field(default_factory=dict)


def _static_specs() -> list[IspSpec]:
    """Internal 'static assignment' ISPs hosting never-changing probes."""
    plan = AddressSpacePlan(num_prefixes=2, prefix_length=20,
                            slash16_groups=1, slash8_groups=1)
    countries = ("US", "DE", "JP", "AU", "BR", "ZA")
    return [
        IspSpec(
            name="Static-%s" % country, asn=65000 + index, country=country,
            access=AccessTechnology.DHCP, plan=plan,
            pool_policy=PoolPolicy(),
            lease_duration=timeutil.DAY,
            churn_rate_per_hour=0.0, dhcp_change_prob=0.0,
        )
        for index, country in enumerate(countries)
    ]


@dataclass(frozen=True)
class _ProbePlan:
    """One probe of the deploy plan, made before any probe is walked.

    It holds every ``pick`` draw the probe needs: its ASNs (a mover has
    two) and the ASN its fixed address comes from, if any.
    """

    probe_id: int
    asns: tuple[int, ...]
    role: ProbeRole
    family_mode: str = "v4"
    fixed_asn: int | None = None
    testing_first: bool = False
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class _ProbeRow:
    """What one probe's walk gives the builder to record."""

    output: ProbeOutput
    observed_start: float
    truth: ProbeTruth


class _WorldBuilder:
    """Stateful assembly of one world; use :func:`build_world`."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.allocator = AddressSpaceAllocator(seed=config.seed)
        self.archive = ProbeArchive()
        self.connlog = ConnectionLog()
        self.kroot = KRootDataset()
        self.uptime = UptimeDataset()
        self.truth: dict[int, ProbeTruth] = {}
        #: Every probe to walk, in id order (see :meth:`plan_probe`).
        self.plans: list[_ProbePlan] = []
        self._next_probe_id = 1001
        self._plants: dict[int, DhcpPlant | PppPlant] = {}
        self._specs: dict[int, IspSpec] = {}
        self._pools: dict[int, AddressPool] = {}
        self._fixed_rng = substream(config.seed, "world", "fixed-addresses")

    # -- plants ------------------------------------------------------------

    def add_isp(self, spec: IspSpec) -> None:
        prefixes = self.allocator.allocate(spec.asn, spec.plan)
        pool = AddressPool(prefixes, spec.pool_policy)
        if spec.admin_renumber_day is not None:
            # The final prefix is the migration target: allocation starts
            # out restricted to the others and flips on the admin day.
            pool.schedule_allocation(self.config.start, prefixes[:-1])
            pool.schedule_allocation(self._admin_time(spec), prefixes[-1:])
        self._plants[spec.asn] = build_plant(spec, pool, self.config.seed)
        self._specs[spec.asn] = spec
        self._pools[spec.asn] = pool

    def _admin_time(self, spec: IspSpec) -> float:
        """Instant of the ISP's administrative renumbering.

        ``admin_renumber_day`` counts days from the scenario start (equal
        to day-of-year for the default full-2015 window).
        """
        assert spec.admin_renumber_day is not None
        return self.config.start + (spec.admin_renumber_day - 1) * timeutil.DAY

    def plant(self, asn: int) -> DhcpPlant | PppPlant:
        return self._plants[asn]

    # -- probes ------------------------------------------------------------

    def _new_probe_id(self) -> int:
        probe_id = self._next_probe_id
        self._next_probe_id += 1
        return probe_id

    def _draw_version(self, rng: random.Random) -> ProbeVersion:
        return weighted_choice(
            rng, [ProbeVersion.V1, ProbeVersion.V2, ProbeVersion.V3],
            list(self.config.version_weights))

    def plan_probe(self, asns: list[int], role: ProbeRole,
                   family_mode: str = "v4", fixed_asn: int | None = None,
                   testing_first: bool = False,
                   tags: tuple[str, ...] = ()) -> None:
        """Plan the next probe under the next id; :meth:`walk` simulates it."""
        self.plans.append(_ProbePlan(self._new_probe_id(), tuple(asns), role,
                                     family_mode, fixed_asn, testing_first,
                                     tags))

    def walk(self, plan: _ProbePlan) -> _ProbeRow:
        """Simulate one planned probe's year against its plants.

        A multihomed probe's fixed address is drawn here, just before its
        walk, because the pool's state depends on every earlier walk in it.
        """
        config = self.config
        probe_id = plan.probe_id
        asns = plan.asns
        family_mode = plan.family_mode
        fixed_address = (None if plan.fixed_asn is None else
                         self._pools[plan.fixed_asn].allocate(self._fixed_rng))
        rng = substream(config.seed, "probe", probe_id)
        version = self._draw_version(rng)
        fate_sharing = rng.random() < config.fate_sharing_prob

        # Probes go live at staggered times (real deployments trickle in);
        # this also spreads free-running periodic cuts across the day.
        window = config.end - config.start
        first_start = config.start + rng.uniform(
            0, min(2 * timeutil.DAY, window / 4))
        if len(asns) == 1:
            bounds = [(first_start, config.end)]
        else:
            switch_time = rng.uniform(config.start + 0.25 * window,
                                      config.start + 0.75 * window)
            bounds = [(first_start, switch_time),
                      (switch_time + 2 * timeutil.HOUR, config.end)]

        segments: list[Segment] = []
        interruptions = []
        for (seg_start, seg_end), asn in zip(bounds, asns):
            spec = self._specs[asn]
            plant = None if family_mode == "v6" else self._plants[asn]
            segments.append(Segment(plant, "cpe-%d-%d" % (probe_id, asn),
                                    seg_start, seg_end))
            events = generate_interruptions(
                substream(config.seed, "probe", probe_id, "outages", asn),
                spec, seg_start, seg_end,
                break_rate_per_year=config.break_rate_per_year,
                probe_reboot_rate_per_year=config.probe_reboot_rate_per_year)
            if spec.admin_renumber_day is not None and plant is not None:
                admin_at = self._admin_time(spec) + rng.uniform(
                    0, 2 * timeutil.HOUR)
                if seg_start < admin_at < seg_end:
                    events = inject_event(
                        events,
                        Interruption(InterruptionKind.ADMIN, admin_at,
                                     admin_at))
            interruptions.append(events)

        simulator = ProbeSimulator(
            probe_id, rng, interruptions, segments,
            version=version, fate_sharing=fate_sharing,
            frag_reboot_prob=config.frag_reboot_prob,
            firmware_campaigns=config.firmware_campaigns,
            family_mode=family_mode,
            ipv6_address=("2001:db8:%x::1" % probe_id
                          if family_mode in ("dual", "v6") else None),
            fixed_address=fixed_address,
            testing_first=plan.testing_first,
        )
        output = simulator.run()
        truth = ProbeTruth(
            probe_id, plan.role, asns,
            tuple(self._specs[asn].name for asn in asns),
            version, fate_sharing, len(output.true_changes))
        return _ProbeRow(output, bounds[0][0], truth)

    def record(self, plan: _ProbePlan, row: _ProbeRow) -> None:
        """Add one walked probe to the datasets and the ground truth."""
        config = self.config
        probe_id = plan.probe_id
        home_spec = self._specs[plan.asns[0]]
        self.archive.add(ProbeMeta(
            probe_id, home_spec.country, continent_of(home_spec.country),
            row.truth.version, plan.tags))
        self.connlog.stage(probe_id, row.output.connections)
        self.uptime.stage(probe_id, row.output.uptimes)
        self.kroot.add_series(KRootSeries(
            probe_id, row.observed_start, config.end,
            power_off=row.output.power_off,
            network_down=row.output.network_down))
        self.truth[probe_id] = row.truth

    # -- finishing ----------------------------------------------------------

    def build_ip2as(self) -> IpToAsDataset:
        dataset = self.allocator.build_dataset(self.config.start,
                                               self.config.end)
        testing = AsMapping(RIPE_TESTING_PREFIX, RIPE_NCC_ASN)
        for year, month in dataset.months():
            dataset.snapshot_for(timeutil.epoch(year, month, 1)).add(testing)
        return dataset


def build_world(config: ScenarioConfig) -> WorldData:
    """Run the whole scenario and return its datasets plus ground truth.

    Runs with the cyclic collector paused: the build makes no cyclic
    garbage, so a collection could only re-walk the growing world.
    Records ``sim``-category spans for its phases: ``sim:plants``,
    ``sim:probes`` (with the probe and process counts), one ``sim:walk``
    per process that walked probes, ``sim:seal`` and ``sim:ip2as``.
    """
    with collector_paused():
        return _build_world(config)


def _build_world(config: ScenarioConfig) -> WorldData:
    builder = _WorldBuilder(config)
    static_specs = _static_specs()
    with obs.span("sim:plants", category="sim"):
        for profile in config.profiles:
            builder.add_isp(profile.spec)
        for spec in static_specs:
            builder.add_isp(spec)
    with obs.span("sim:probes", category="sim") as handle:
        _plan_probes(builder, config, static_specs)
        plans = builder.plans
        rows, processes = _walk_probes(builder, plans)
        for plan in plans:
            builder.record(plan, rows[plan.probe_id])
        handle.set(probes=len(plans), processes=processes)
    with obs.span("sim:seal", category="sim"):
        # Seal the staged rows into columns before the world is shared.
        builder.connlog.columns()
        builder.uptime.columns()
    with obs.span("sim:ip2as", category="sim"):
        ip2as = builder.build_ip2as()
    return WorldData(
        config=config,
        archive=builder.archive,
        connlog=builder.connlog,
        kroot=builder.kroot,
        uptime=builder.uptime,
        ip2as=ip2as,
        truth=builder.truth,
    )


def _plan_probes(builder: _WorldBuilder, config: ScenarioConfig,
                 static_specs: list[IspSpec]) -> None:
    """Plan every probe population, in id and ``pick`` draw order."""
    regular_asns = [p.spec.asn for p in config.profiles]
    static_asns = [s.asn for s in static_specs]
    # Confounders and movers live in cheap-to-simulate ISPs: the static
    # ASes plus the scenario's DHCP profiles.
    dhcp_asns = [p.spec.asn for p in config.profiles
                 if p.spec.access is AccessTechnology.DHCP] or regular_asns
    host_asns = static_asns + dhcp_asns

    # Regular dynamic populations.
    for profile in config.profiles:
        for _ in range(profile.probes):
            builder.plan_probe([profile.spec.asn], ProbeRole.DYNAMIC)

    pick = substream(config.seed, "world", "assignment")
    for _ in range(config.static_probes):
        builder.plan_probe([pick.choice(static_asns)], ProbeRole.STATIC)
    for _ in range(config.dual_stack_probes):
        builder.plan_probe([pick.choice(host_asns)], ProbeRole.DUAL_STACK,
                           family_mode="dual")
    for _ in range(config.ipv6_probes):
        builder.plan_probe([pick.choice(host_asns)], ProbeRole.IPV6_ONLY,
                           family_mode="v6")
    tag_names = ("multihomed", "datacentre", "core")
    for index in range(config.tagged_probes):
        fixed_asn = None
        if index % 2 == 0:  # about half the tagged probes also alternate
            fixed_asn = pick.choice(static_asns)
        builder.plan_probe(
            [pick.choice(host_asns)], ProbeRole.TAGGED, fixed_asn=fixed_asn,
            tags=(tag_names[index % len(tag_names)],))
    for _ in range(config.multihomed_probes):
        fixed_asn = pick.choice(static_asns)
        builder.plan_probe([pick.choice(dhcp_asns)], ProbeRole.MULTIHOMED,
                           fixed_asn=fixed_asn)
    for _ in range(config.testing_only_probes):
        builder.plan_probe([pick.choice(static_asns)], ProbeRole.TESTING,
                           testing_first=True)
    for _ in range(config.mover_probes):
        origin, target = pick.sample(host_asns, 2)
        builder.plan_probe([origin, target], ProbeRole.MOVER)


# -- plant groups -------------------------------------------------------------

def _plant_groups(plans: list[_ProbePlan]) -> list[list[_ProbePlan]]:
    """Partition the plan into groups of probes that share no plant state.

    A group is a connected component of ASNs: a probe joins its ASNs (a
    mover has two) and the ASN its fixed address comes from, and every
    fixed-address ASN joins one group because ``_fixed_rng`` draws for
    all of them in turn.  Each group keeps plan order, and groups come in
    the order of their first probe.
    """
    parent: dict[int, int] = {}

    def root(asn: int) -> int:
        parent.setdefault(asn, asn)
        while parent[asn] != asn:
            parent[asn] = parent[parent[asn]]
            asn = parent[asn]
        return asn

    def join(first: int, second: int) -> None:
        parent[root(second)] = root(first)

    fixed_asns = [plan.fixed_asn for plan in plans
                  if plan.fixed_asn is not None]
    for plan in plans:
        for asn in plan.asns[1:]:
            join(plan.asns[0], asn)
        if plan.fixed_asn is not None:
            join(plan.asns[0], plan.fixed_asn)
    for asn in fixed_asns[1:]:
        join(fixed_asns[0], asn)
    groups: dict[int, list[_ProbePlan]] = {}
    for plan in plans:
        groups.setdefault(root(plan.asns[0]), []).append(plan)
    return list(groups.values())


def _split_groups(groups: list[list[_ProbePlan]]
                  ) -> tuple[list[_ProbePlan], list[_ProbePlan]]:
    """Deal the groups, largest first, each to the side with fewer probes.

    Each side comes back in plan order, the order its draws were made in.
    """
    sides: tuple[list[_ProbePlan], list[_ProbePlan]] = ([], [])
    for group in sorted(groups, key=len, reverse=True):
        min(sides, key=len).extend(group)
    by_id = attrgetter("probe_id")
    return sorted(sides[0], key=by_id), sorted(sides[1], key=by_id)


def _walk_probes(builder: _WorldBuilder, plans: list[_ProbePlan]
                 ) -> tuple[dict[int, _ProbeRow], int]:
    """Walk every planned probe; return its rows and the process count.

    With two or more plant groups and a worker allowed, a forked worker
    walks one side of :func:`_split_groups` while this process walks the
    other.  The plants were built before the fork and the worker's
    copies die with it: only its rows come back.
    """
    groups = _plant_groups(plans)
    if len(groups) < 2 or not _worker_allowed():
        return _walk_side(builder, plans, "parent"), 1
    own, forked = _split_groups(groups)
    with _ForkedWalk(lambda: _walk_side(builder, forked, "worker")) as worker:
        rows = _walk_side(builder, own, "parent")
        rows.update(worker.result())
    return rows, 2


def _walk_side(builder: _WorldBuilder, plans: list[_ProbePlan],
               side: str) -> dict[int, _ProbeRow]:
    with obs.span("sim:walk", category="sim", side=side, probes=len(plans)):
        return {plan.probe_id: builder.walk(plan) for plan in plans}


def _worker_allowed() -> bool:
    """True when a forked worker can walk beside this process.

    That needs a second usable CPU (``sched_getaffinity`` exists only
    where ``fork`` does) and no other thread: a lock another thread
    holds at the fork stays held in the child for good.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    return (affinity is not None and len(affinity(0)) >= 2
            and threading.active_count() == 1)


class _ForkedWalk:
    """A forked child that runs one walk and pipes back its rows.

    Both ends are the same program forked from one heap, so the rows
    cross the pipe as a plain pickle: there is no other reader or writer
    to stay compatible with, hence no wire contract.  Leaving the
    ``with`` block kills and reaps a child whose result was not taken.
    """

    def __init__(self, walk: Callable[[], dict[int, _ProbeRow]]) -> None:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            _serve(walk, read_fd, write_fd)
        os.close(write_fd)
        self._pid: int | None = pid
        self._pipe = os.fdopen(read_fd, "rb")

    def __enter__(self) -> "_ForkedWalk":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._pipe.close()
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        assert self._pid is not None
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return os.waitstatus_to_exitcode(status)

    def result(self) -> dict[int, _ProbeRow]:
        """Wait for the child; return its rows or raise its failure."""
        payload = self._pipe.read()
        self._pipe.close()
        pid = self._pid
        code = self._reap()
        if code != 0:
            raise SimulationError(
                "simulation worker %s died (exit code %d)" % (pid, code))
        outcome = pickle.loads(payload)
        if isinstance(outcome, str):
            raise SimulationError("simulation worker failed:\n" + outcome)
        rows, spans = outcome
        obs.absorb_spans(spans)
        return rows


def _serve(walk: Callable[[], dict[int, _ProbeRow]], read_fd: int,
           write_fd: int) -> NoReturn:
    """The forked child's whole life: walk, pipe back the outcome, exit.

    Nothing may unwind from here into the parent's code the child was
    forked inside, so the walk runs under a ``finally`` that always ends
    the child.  A walk that raised sends back its traceback text instead
    of rows and spans; the exit code is 0 once the pipe has it all.  The
    child closes its copy of the read end, so a write to a parent that
    is gone fails instead of blocking forever.
    """
    outcome: tuple[dict[int, _ProbeRow], list[obs.Span]] | str | None = None
    try:
        os.close(read_fd)
        outcome = (walk(), obs.drain_spans())
    finally:
        code = 1
        try:
            if outcome is None:
                outcome = "".join(traceback.format_exception(*sys.exc_info()))
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
