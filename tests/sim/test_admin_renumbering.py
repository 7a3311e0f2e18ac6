"""Integration tests for administrative renumbering (spec -> sim -> detection)."""

import pytest

from repro.errors import SimulationError
from repro.core.pipeline import pipeline_for_world
from repro.isp.pool import PoolPolicy
from repro.isp.profiles import IspProfile
from repro.isp.spec import AccessTechnology, IspSpec
from repro.net.bgpgen import AddressSpacePlan
from repro.sim.outages import Interruption, InterruptionKind, inject_event
from repro.sim.scenario import ScenarioConfig
from repro.sim.world import build_world
from repro.util import timeutil
from tests.oracle import restore_entries


def admin_spec(access=AccessTechnology.DHCP, day=40, **overrides):
    kwargs = dict(
        name="Renum", asn=64496, country="DE", access=access,
        plan=AddressSpacePlan(num_prefixes=3, slash16_groups=3,
                              slash8_groups=3),
        pool_policy=PoolPolicy(),
        admin_renumber_day=day,
        churn_rate_per_hour=0.0, dhcp_change_prob=0.0,
    )
    kwargs.update(overrides)
    return IspSpec(**kwargs)


class TestSpecValidation:
    def test_valid(self):
        assert admin_spec().admin_renumber_day == 40

    def test_day_range(self):
        with pytest.raises(SimulationError):
            admin_spec(day=0)
        with pytest.raises(SimulationError):
            admin_spec(day=400)

    def test_needs_reserve_prefix(self):
        with pytest.raises(SimulationError):
            admin_spec(plan=AddressSpacePlan(num_prefixes=1,
                                             slash16_groups=1))


class TestInjectEvent:
    def test_insert_into_empty(self):
        admin = Interruption(InterruptionKind.ADMIN, 100.0, 100.0)
        assert inject_event([], admin) == [admin]

    def test_colliding_neighbours_evicted(self):
        near = Interruption(InterruptionKind.BREAK, 90.0, 90.0)
        far = Interruption(InterruptionKind.NETWORK, 90000.0, 90300.0)
        admin = Interruption(InterruptionKind.ADMIN, 100.0, 100.0)
        events = inject_event([near, far], admin)
        assert near not in events
        assert far in events
        assert admin in events
        assert events == sorted(events, key=lambda e: e.start)


class TestWorldIntegration:
    def build(self, access):
        config = ScenarioConfig(
            profiles=(IspProfile(admin_spec(access=access), 8),),
            seed=11,
            start=timeutil.YEAR_2015_START,
            end=timeutil.YEAR_2015_START + 80 * timeutil.DAY,
        )
        return build_world(config)

    @pytest.mark.parametrize("access", [AccessTechnology.DHCP,
                                        AccessTechnology.PPP])
    def test_every_probe_migrates_to_reserve_prefix(self, access):
        world = self.build(access)
        results = pipeline_for_world(world).run()
        report = restore_entries(results.filter_report, world.connlog)
        reserve = None
        for probe_id in results.asn_by_probe:
            entries = report.verdicts[probe_id].entries
            first, last = entries[0], entries[-1]
            first_prefix = world.ip2as.bgp_prefix(first.address, first.start)
            last_prefix = world.ip2as.bgp_prefix(last.address, last.start)
            assert first_prefix != last_prefix
            if reserve is None:
                reserve = last_prefix
            # Everyone lands in the same migration prefix.
            assert last_prefix == reserve

    def test_detection_finds_the_event(self):
        world = self.build(AccessTechnology.DHCP)
        results = pipeline_for_world(world).run()
        events = results.administrative_renumberings(
            world.config.start, min_probes=4)
        assert len(events) == 1
        assert abs((events[0].day_index + 1) - 40) <= 1
        assert events[0].changed_fraction > 0.8
