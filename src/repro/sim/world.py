"""World builder: run a scenario and emit the three Atlas datasets.

:func:`build_world` stands up every ISP plant, deploys regular and
confounder probe populations, walks each probe through the year with
:class:`~repro.sim.timeline.ProbeSimulator`, and packages the results as
the datasets the analysis pipeline consumes — plus per-probe ground truth
so integration tests can check the pipeline recovers what was configured.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro import obs
from repro.atlas.archive import ProbeArchive, continent_of
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootDataset, KRootSeries
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ProbeMeta, ProbeVersion
from repro.isp.policy import DhcpPlant, PppPlant, build_plant
from repro.isp.pool import AddressPool, PoolPolicy
from repro.isp.spec import AccessTechnology, IspSpec
from repro.net.bgpgen import AddressSpaceAllocator, AddressSpacePlan
from repro.net.ipv4 import IPv4Address, IPv4Prefix
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

    def deploy_probe(self, asns: list[int], role: ProbeRole,
                     family_mode: str = "v4",
                     fixed_address: IPv4Address | None = None,
                     testing_first: bool = False,
                     tags: tuple[str, ...] = (),
                     switch_time: float | None = None) -> int:
        """Create one probe, simulate its year, and record its datasets."""
        config = self.config
        probe_id = self._new_probe_id()
        rng = substream(config.seed, "probe", probe_id)
        version = self._draw_version(rng)
        fate_sharing = rng.random() < config.fate_sharing_prob
        home_spec = self._specs[asns[0]]

        # Probes go live at staggered times (real deployments trickle in);
        # this also spreads free-running periodic cuts across the day.
        window = config.end - config.start
        first_start = config.start + rng.uniform(
            0, min(2 * timeutil.DAY, window / 4))
        if len(asns) == 1:
            bounds = [(first_start, config.end)]
        else:
            if switch_time is None:
                switch_time = rng.uniform(
                    config.start + 0.25 * window,
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
            testing_first=testing_first,
        )
        output = simulator.run()
        self._record(probe_id, home_spec, version, tags, output,
                     observed_start=bounds[0][0])
        self.truth[probe_id] = ProbeTruth(
            probe_id, role, tuple(asns),
            tuple(self._specs[asn].name for asn in asns),
            version, fate_sharing, len(output.true_changes))
        return probe_id

    def _record(self, probe_id: int, home_spec: IspSpec,
                version: ProbeVersion, tags: tuple[str, ...],
                output: ProbeOutput,
                observed_start: float | None = None) -> None:
        config = self.config
        self.archive.add(ProbeMeta(
            probe_id, home_spec.country, continent_of(home_spec.country),
            version, tags))
        self.connlog.stage(probe_id, output.connections)
        self.uptime.stage(probe_id, output.uptimes)
        self.kroot.add_series(KRootSeries(
            probe_id,
            config.start if observed_start is None else observed_start,
            config.end,
            power_off=output.power_off,
            network_down=output.network_down))

    def allocate_fixed_address(self, asn: int) -> IPv4Address:
        """A long-held secondary address for multihomed probes."""
        return self._pools[asn].allocate(self._fixed_rng)

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

    Records ``sim``-category spans for its phases: ``sim:plants``,
    ``sim:probes`` (with the probe count), ``sim:seal`` and ``sim:ip2as``.
    """
    builder = _WorldBuilder(config)
    static_specs = _static_specs()
    with obs.span("sim:plants", category="sim"):
        for profile in config.profiles:
            builder.add_isp(profile.spec)
        for spec in static_specs:
            builder.add_isp(spec)
    with obs.span("sim:probes", category="sim") as handle:
        _deploy_probes(builder, config, static_specs)
        handle.set(probes=len(builder.truth))
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


def _deploy_probes(builder: _WorldBuilder, config: ScenarioConfig,
                   static_specs: list[IspSpec]) -> None:
    """Deploy and simulate every probe population, in draw order."""
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
            builder.deploy_probe([profile.spec.asn], ProbeRole.DYNAMIC)

    pick = substream(config.seed, "world", "assignment")
    for _ in range(config.static_probes):
        builder.deploy_probe([pick.choice(static_asns)], ProbeRole.STATIC)
    for _ in range(config.dual_stack_probes):
        builder.deploy_probe([pick.choice(host_asns)], ProbeRole.DUAL_STACK,
                             family_mode="dual")
    for _ in range(config.ipv6_probes):
        builder.deploy_probe([pick.choice(host_asns)], ProbeRole.IPV6_ONLY,
                             family_mode="v6")
    tag_names = ("multihomed", "datacentre", "core")
    for index in range(config.tagged_probes):
        fixed = None
        if index % 2 == 0:  # about half the tagged probes also alternate
            fixed = builder.allocate_fixed_address(pick.choice(static_asns))
        builder.deploy_probe(
            [pick.choice(host_asns)], ProbeRole.TAGGED,
            fixed_address=fixed, tags=(tag_names[index % len(tag_names)],))
    for _ in range(config.multihomed_probes):
        fixed = builder.allocate_fixed_address(pick.choice(static_asns))
        builder.deploy_probe([pick.choice(dhcp_asns)], ProbeRole.MULTIHOMED,
                             fixed_address=fixed)
    for _ in range(config.testing_only_probes):
        builder.deploy_probe([pick.choice(static_asns)], ProbeRole.TESTING,
                             testing_first=True)
    for _ in range(config.mover_probes):
        origin, target = pick.sample(host_asns, 2)
        builder.deploy_probe([origin, target], ProbeRole.MOVER)
