"""Tests for repro.sim.timeline."""

import pytest

from repro.atlas.types import ProbeVersion
from repro.errors import SimulationError
from repro.isp.policy import build_plant
from repro.isp.pool import AddressPool, PoolPolicy
from repro.isp.spec import AccessTechnology, IspSpec
from repro.net.bgpgen import AddressSpacePlan
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.sim.outages import Interruption, InterruptionKind
from repro.sim.timeline import ProbeSimulator, Segment
from repro.util.rng import substream
from repro.util.timeutil import DAY, HOUR, MINUTE

WINDOW = 20 * DAY


def make_plant(access=AccessTechnology.PPP, prefix="192.0.2.0/24",
               seed=1, **overrides):
    kwargs = dict(
        name="T", asn=64496, country="DE", access=access,
        plan=AddressSpacePlan(num_prefixes=2, slash16_groups=1),
        pool_policy=PoolPolicy(),
    )
    kwargs.update(overrides)
    spec = IspSpec(**kwargs)
    pool = AddressPool([IPv4Prefix.parse(prefix),
                        IPv4Prefix.parse("198.51.100.0/24")], spec.pool_policy)
    return build_plant(spec, pool, seed)


def simulate(plant, interruptions=(), probe_id=1, seed=2, window=WINDOW,
             **kwargs):
    segment = Segment(plant, "cpe-1", 0.0, window)
    simulator = ProbeSimulator(
        probe_id, substream(seed, "probe", probe_id),
        [list(interruptions)], [segment], **kwargs)
    return simulator.run()


class TestQuietTimeline:
    def test_single_entry_spanning_window(self):
        output = simulate(make_plant(access=AccessTechnology.DHCP))
        assert len(output.entries) == 1
        entry = output.entries[0]
        assert entry.start == 0.0
        assert entry.end == WINDOW
        assert output.true_changes == []

    def test_uptime_record_at_first_connection(self):
        output = simulate(make_plant(access=AccessTechnology.DHCP))
        assert len(output.uptime_records) == 1
        record = output.uptime_records[0]
        assert record.timestamp == 0.0
        assert record.uptime >= 0.0


class TestPeriodicCuts:
    def test_daily_cuts_produce_daily_changes(self):
        plant = make_plant(period=DAY, periodic_fraction=1.0, skip_prob=0.0,
                           offschedule_prob=0.0)
        output = simulate(plant)
        # 20-day window, one cut per day minus reconnect drift.
        assert 17 <= len(output.true_changes) <= 20
        addresses = [e.address for e in output.entries]
        # Every cut renumbers: consecutive sessions never share an address.
        assert all(a != b for a, b in zip(addresses, addresses[1:]))

    def test_durations_cluster_just_under_period(self):
        plant = make_plant(period=DAY, periodic_fraction=1.0, skip_prob=0.0,
                           offschedule_prob=0.0)
        output = simulate(plant)
        inner = output.entries[1:-1]
        for entry in inner:
            assert 0.95 * DAY < entry.duration < DAY

    def test_gap_between_entries_is_change_delay(self):
        plant = make_plant(period=DAY, periodic_fraction=1.0, skip_prob=0.0,
                           offschedule_prob=0.0)
        output = simulate(plant)
        for left, right in zip(output.entries, output.entries[1:]):
            gap = right.start - left.end
            assert 15 * MINUTE <= gap <= 25 * MINUTE


class TestOutageHandling:
    def test_network_outage_recorded_and_renumbers_ppp(self):
        plant = make_plant(holds_state_fraction=0.0)
        outage = Interruption(InterruptionKind.NETWORK, 5 * DAY,
                              5 * DAY + HOUR)
        output = simulate(plant, [outage])
        assert len(output.entries) == 2
        assert output.entries[0].end == 5 * DAY
        assert output.entries[0].address != output.entries[1].address
        assert output.network_down.contains(5 * DAY + 10)
        assert not output.power_off.contains(5 * DAY + 10)
        assert output.true_changes == [5 * DAY + HOUR]

    def test_power_outage_with_fate_sharing_reboots_probe(self):
        plant = make_plant(access=AccessTechnology.DHCP,
                           churn_rate_per_hour=0.0, dhcp_change_prob=0.0)
        outage = Interruption(InterruptionKind.POWER, 5 * DAY, 5 * DAY + HOUR)
        output = simulate(plant, [outage], fate_sharing=True)
        assert output.power_off.contains(5 * DAY + 10)
        # Uptime counter reset: second record shows a fresh boot.
        second = output.uptime_records[1]
        assert second.uptime < 2 * HOUR
        assert second.boot_time == pytest.approx(5 * DAY + HOUR)

    def test_power_outage_without_fate_sharing_looks_like_network(self):
        plant = make_plant(access=AccessTechnology.DHCP)
        outage = Interruption(InterruptionKind.POWER, 5 * DAY, 5 * DAY + HOUR)
        output = simulate(plant, [outage], fate_sharing=False)
        assert output.network_down.contains(5 * DAY + 10)
        assert not output.power_off.contains(5 * DAY + 10)

    def test_dhcp_short_outage_does_not_change_address(self):
        plant = make_plant(access=AccessTechnology.DHCP,
                           churn_rate_per_hour=0.0, dhcp_change_prob=0.0)
        outage = Interruption(InterruptionKind.NETWORK, 5 * DAY,
                              5 * DAY + 10 * MINUTE)
        output = simulate(plant, [outage])
        assert len(output.entries) == 2
        assert output.entries[0].address == output.entries[1].address
        assert output.true_changes == []
        # Unchanged address reconnects quickly.
        gap = output.entries[1].start - output.entries[0].end
        assert gap <= 10 * MINUTE + 4 * MINUTE

    def test_plain_break_splits_connection_without_outage(self):
        plant = make_plant(access=AccessTechnology.DHCP)
        event = Interruption(InterruptionKind.BREAK, 5 * DAY, 5 * DAY)
        output = simulate(plant, [event])
        assert len(output.entries) == 2
        assert output.entries[0].address == output.entries[1].address
        assert len(output.network_down) == 0
        assert len(output.power_off) == 0


class TestFirmwareAndFragReboots:
    def test_firmware_campaign_causes_reboot_on_next_break(self):
        plant = make_plant(access=AccessTechnology.DHCP)
        campaign = 3 * DAY
        event = Interruption(InterruptionKind.BREAK, 5 * DAY, 5 * DAY)
        output = simulate(plant, [event],
                          firmware_campaigns=(campaign,))
        # The probe rebooted inside the gap following the break.
        assert len(output.power_off) == 1
        reboot = list(output.power_off)[0]
        assert 5 * DAY < reboot.end <= 5 * DAY + 5 * MINUTE
        assert output.uptime_records[1].uptime < 5 * MINUTE

    def test_campaign_applied_only_once(self):
        plant = make_plant(access=AccessTechnology.DHCP)
        events = [Interruption(InterruptionKind.BREAK, 5 * DAY, 5 * DAY),
                  Interruption(InterruptionKind.BREAK, 8 * DAY, 8 * DAY)]
        output = simulate(plant, events, firmware_campaigns=(3 * DAY,))
        assert len(output.power_off) == 1

    def test_v3_probe_never_frag_reboots(self):
        plant = make_plant(period=DAY, periodic_fraction=1.0, skip_prob=0.0,
                           offschedule_prob=0.0)
        output = simulate(plant, version=ProbeVersion.V3,
                          frag_reboot_prob=1.0)
        assert len(output.power_off) == 0

    def test_v1_probe_frag_reboots_on_address_change(self):
        plant = make_plant(period=DAY, periodic_fraction=1.0, skip_prob=0.0,
                           offschedule_prob=0.0)
        output = simulate(plant, version=ProbeVersion.V1,
                          frag_reboot_prob=1.0)
        # One reboot per daily address change.
        assert len(output.power_off) >= 15


class TestConfounders:
    def test_v6_only_probe(self):
        output = simulate(None, family_mode="v6", ipv6_address="2001:db8::1")
        assert all(e.is_ipv6 for e in output.entries)

    def test_v6_requires_address(self):
        with pytest.raises(SimulationError):
            simulate(None, family_mode="v6")

    def test_dual_stack_alternates_families(self):
        plant = make_plant(period=DAY, periodic_fraction=1.0)
        output = simulate(plant, family_mode="dual",
                          ipv6_address="2001:db8::1", seed=4)
        families = {e.is_ipv6 for e in output.entries}
        assert families == {True, False}

    def test_multihomed_alternates_fixed_and_dynamic(self):
        plant = make_plant(access=AccessTechnology.DHCP)
        fixed = IPv4Address.parse("203.0.113.7")
        events = [Interruption(InterruptionKind.BREAK, float(d * DAY),
                               float(d * DAY)) for d in range(1, 10)]
        output = simulate(plant, events, fixed_address=fixed)
        addresses = [e.address for e in output.entries]
        assert fixed in addresses
        assert len(set(addresses)) == 2
        # The fixed address appears in multiple non-adjacent runs.
        runs = sum(1 for i, a in enumerate(addresses)
                   if a == fixed and (i == 0 or addresses[i - 1] != fixed))
        assert runs >= 3

    def test_testing_first_entry(self):
        plant = make_plant(access=AccessTechnology.DHCP)
        output = simulate(plant, testing_first=True)
        assert str(output.entries[0].address) == "193.0.0.78"
        assert output.entries[1].address != output.entries[0].address


class TestSegments:
    def test_mover_changes_asns(self):
        plant_a = make_plant(access=AccessTechnology.DHCP,
                             prefix="192.0.2.0/24")
        plant_b = make_plant(access=AccessTechnology.DHCP, asn=64497,
                             prefix="203.0.113.0/24")
        segments = [Segment(plant_a, "c1", 0.0, 10 * DAY),
                    Segment(plant_b, "c2", 10 * DAY + HOUR, WINDOW)]
        simulator = ProbeSimulator(1, substream(1, "m"), [[], []], segments)
        output = simulator.run()
        assert len(output.entries) == 2
        first, second = output.entries
        assert IPv4Prefix.parse("192.0.2.0/24").contains(first.address)
        assert IPv4Prefix.parse("203.0.113.0/24").contains(second.address)

    def test_overlapping_segments_rejected(self):
        plant = make_plant(access=AccessTechnology.DHCP)
        segments = [Segment(plant, "c1", 0.0, 10 * DAY),
                    Segment(plant, "c2", 5 * DAY, WINDOW)]
        simulator = ProbeSimulator(1, substream(1, "m"), [[], []], segments)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_segment_validation(self):
        with pytest.raises(SimulationError):
            Segment(None, "c", 5.0, 5.0)
        with pytest.raises(SimulationError):
            ProbeSimulator(1, substream(1, "m"), [], [])
        plant = make_plant()
        with pytest.raises(SimulationError):
            ProbeSimulator(1, substream(1, "m"), [],
                           [Segment(plant, "c", 0.0, 1.0)])


class TestEmittedRows:
    def test_record_views_match_rows(self):
        output = simulate(make_plant(), [
            Interruption(InterruptionKind.NETWORK, 5 * DAY, 5 * DAY + HOUR)])
        assert [(e.start, e.end, e.address.value, None)
                for e in output.entries] == output.connections
        assert [(r.timestamp, r.uptime)
                for r in output.uptime_records] == output.uptimes
        assert {e.probe_id for e in output.entries} == {1}

    def test_overlapping_connection_rejected(self):
        simulator = ProbeSimulator(
            1, substream(2, "probe", 1), [[]],
            [Segment(make_plant(), "cpe-1", 0.0, WINDOW)])
        address = IPv4Address.parse("192.0.2.1")
        simulator._emit_entry(0.0, 100.0, address)
        with pytest.raises(SimulationError, match="overlaps"):
            simulator._emit_entry(50.0, 200.0, address)

    def test_out_of_order_uptime_rejected(self):
        simulator = ProbeSimulator(
            1, substream(2, "probe", 1), [[]],
            [Segment(make_plant(), "cpe-1", 0.0, WINDOW)])
        simulator._emit_uptime(100.0)
        with pytest.raises(SimulationError, match="out of order"):
            simulator._emit_uptime(50.0)

    def test_ipv4_row_needs_an_address(self):
        simulator = ProbeSimulator(
            1, substream(2, "probe", 1), [[]],
            [Segment(None, "cpe-1", 0.0, WINDOW)])
        with pytest.raises(SimulationError, match="no IPv4 address"):
            simulator._emit_entry(0.0, 100.0, None)
