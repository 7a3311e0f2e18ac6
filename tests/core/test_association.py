"""Tests for the per-gap classifier the gaps kernel is pinned to
(``tests/oracle.py``), over the vocabulary of repro.core.association."""

from repro.atlas.kroot import KRootSeries
from repro.atlas.types import ConnectionLogEntry
from repro.core.association import GapCause
from repro.core.reboots import Reboot
from repro.net.ipv4 import IPv4Address
from repro.util.intervals import Interval, IntervalSet
from repro.util.timeutil import DAY, HOUR
from tests.oracle import associate_probe_gaps, classify_gap

A = IPv4Address.parse("192.0.2.1")
B = IPv4Address.parse("192.0.2.2")


def series(power_off=(), network_down=()):
    return KRootSeries(
        1, 0.0, 10 * DAY,
        power_off=IntervalSet(Interval(a, b) for a, b in power_off),
        network_down=IntervalSet(Interval(a, b) for a, b in network_down),
        phase=0.0)


def entry(start, end, addr):
    return ConnectionLogEntry(1, start, end, addr)


class TestClassifyGap:
    def test_network_outage_gap(self):
        outage = (2 * DAY, 2 * DAY + HOUR)
        s = series(network_down=[outage])
        event = classify_gap(entry(0, 2 * DAY, A),
                             entry(2 * DAY + HOUR + 1200, 3 * DAY, B),
                             s, [])
        assert event.cause is GapCause.NETWORK
        assert event.address_changed
        assert event.outage_duration > 0.5 * HOUR

    def test_power_outage_gap(self):
        outage = (2 * DAY, 2 * DAY + HOUR)
        s = series(power_off=[outage])
        reboot = Reboot(1, 2 * DAY + HOUR, 2 * DAY + HOUR + 300)
        event = classify_gap(entry(0, 2 * DAY, A),
                             entry(2 * DAY + HOUR + 1200, 3 * DAY, B),
                             s, [reboot])
        assert event.cause is GapCause.POWER
        assert event.address_changed
        # Duration estimated from bracketing ping rounds (~1h + cadence).
        assert HOUR <= event.outage_duration <= HOUR + 600

    def test_network_takes_priority_over_power(self):
        # Both signals present: the paper's order says network wins.
        s = series(power_off=[(2 * DAY + 1800, 2 * DAY + HOUR)],
                   network_down=[(2 * DAY, 2 * DAY + 1800)])
        reboot = Reboot(1, 2 * DAY + HOUR, 0)
        event = classify_gap(entry(0, 2 * DAY, A),
                             entry(2 * DAY + HOUR + 1200, 3 * DAY, A),
                             s, [reboot])
        assert event.cause is GapCause.NETWORK

    def test_no_outage_gap(self):
        s = series()
        event = classify_gap(entry(0, 2 * DAY, A),
                             entry(2 * DAY + 1200, 3 * DAY, B), s, [])
        assert event.cause is GapCause.NONE
        assert event.address_changed
        assert event.outage_duration == 0.0

    def test_reboot_without_missing_pings_not_power(self):
        # A reboot with continuous ping coverage (e.g. probe-only restart
        # so fast no round was missed) cannot be confirmed as power outage.
        s = series()
        reboot = Reboot(1, 2 * DAY + 100, 0)
        event = classify_gap(entry(0, 2 * DAY, A),
                             entry(2 * DAY + 300, 3 * DAY, A), s, [reboot])
        assert event.cause is GapCause.NONE

    def test_unchanged_address_recorded(self):
        s = series(network_down=[(2 * DAY, 2 * DAY + HOUR)])
        event = classify_gap(entry(0, 2 * DAY, A),
                             entry(2 * DAY + HOUR + 60, 3 * DAY, A), s, [])
        assert event.cause is GapCause.NETWORK
        assert not event.address_changed

    def test_v6_entries_never_flag_change(self):
        s = series()
        v6 = ConnectionLogEntry(1, 2 * DAY + 60, 3 * DAY, None,
                                ipv6_address="2001:db8::1")
        event = classify_gap(entry(0, 2 * DAY, A), v6, s, [])
        assert not event.address_changed


class TestAssociateProbeGaps:
    def test_one_event_per_gap(self):
        s = series(network_down=[(2 * DAY, 2 * DAY + HOUR)])
        entries = [entry(0, 2 * DAY, A),
                   entry(2 * DAY + HOUR + 1200, 5 * DAY, B),
                   entry(5 * DAY + 120, 8 * DAY, B)]
        events = associate_probe_gaps(entries, s, [])
        assert len(events) == 2
        assert events[0].cause is GapCause.NETWORK
        assert events[0].address_changed
        assert events[1].cause is GapCause.NONE
        assert not events[1].address_changed

    def test_empty_log(self):
        assert associate_probe_gaps([], series(), []) == []
