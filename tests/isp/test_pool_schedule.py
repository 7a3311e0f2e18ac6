"""Tests for AddressPool allocation scheduling (administrative renumbering)."""

import pytest

from repro.errors import SimulationError
from repro.isp.pool import AddressPool, PoolPolicy
from repro.net.ipv4 import IPv4Prefix
from repro.util.rng import substream

OLD = IPv4Prefix.parse("192.0.2.0/25")
NEW = IPv4Prefix.parse("198.51.100.0/25")


def make_pool():
    return AddressPool([OLD, NEW], PoolPolicy(stay_bgp_prob=1.0))


class TestScheduleValidation:
    def test_empty_schedule_rejected(self):
        with pytest.raises(SimulationError):
            make_pool().schedule_allocation(0.0, [])

    def test_foreign_prefix_rejected(self):
        with pytest.raises(SimulationError):
            make_pool().schedule_allocation(
                0.0, [IPv4Prefix.parse("203.0.113.0/24")])

    def test_out_of_order_rejected(self):
        pool = make_pool()
        pool.schedule_allocation(100.0, [OLD])
        with pytest.raises(SimulationError):
            pool.schedule_allocation(50.0, [NEW])


class TestActivePrefixes:
    def test_no_schedule_all_active(self):
        pool = make_pool()
        assert set(pool.active_prefixes(1e9)) == {OLD, NEW}
        assert set(pool.active_prefixes(None)) == {OLD, NEW}

    def test_schedule_switches_over_time(self):
        pool = make_pool()
        pool.schedule_allocation(0.0, [OLD])
        pool.schedule_allocation(1000.0, [NEW])
        assert tuple(pool.active_prefixes(-1.0)) == (OLD, NEW)  # pre-schedule
        assert tuple(pool.active_prefixes(500.0)) == (OLD,)
        assert tuple(pool.active_prefixes(1000.0)) == (NEW,)
        assert tuple(pool.active_prefixes(2000.0)) == (NEW,)

    def test_now_none_ignores_schedule(self):
        pool = make_pool()
        pool.schedule_allocation(0.0, [OLD])
        assert set(pool.active_prefixes(None)) == {OLD, NEW}


class TestScheduledAllocation:
    def test_allocation_respects_active_window(self):
        pool = make_pool()
        pool.schedule_allocation(0.0, [OLD])
        pool.schedule_allocation(1000.0, [NEW])
        rng = substream(1, "sched")
        before = pool.allocate(rng, now=10.0)
        after = pool.allocate(rng, now=2000.0)
        assert OLD.contains(before)
        assert NEW.contains(after)

    def test_locality_broken_by_retirement(self):
        # stay_bgp_prob=1.0 would keep the customer in OLD, but OLD is
        # retired: the allocation must land in NEW.
        pool = make_pool()
        pool.schedule_allocation(0.0, [OLD])
        rng = substream(2, "sched")
        previous = pool.allocate(rng, now=10.0)
        pool.schedule_allocation(1000.0, [NEW])
        replacement = pool.allocate(rng, previous=previous, now=2000.0)
        assert NEW.contains(replacement)

    def test_released_old_addresses_not_reissued_after_retirement(self):
        pool = make_pool()
        pool.schedule_allocation(0.0, [OLD])
        pool.schedule_allocation(1000.0, [NEW])
        rng = substream(3, "sched")
        old_address = pool.allocate(rng, now=10.0)
        pool.release(old_address)
        for _ in range(20):
            fresh = pool.allocate(rng, now=2000.0)
            assert NEW.contains(fresh)
            pool.release(fresh)

    def test_scheduled_copies_behave_like_the_pool_prefixes(self):
        # Scopes are compared by identity: a schedule given equal but
        # distinct prefix objects must still keep locality, drawing
        # exactly what a schedule of the pool's own objects draws.
        def draws(scheduled):
            pool = AddressPool([OLD, NEW], PoolPolicy(stay_bgp_prob=0.7))
            pool.schedule_allocation(0.0, scheduled)
            rng = substream(4, "sched")
            addresses = [pool.allocate(rng, now=10.0)]
            for _ in range(30):
                addresses.append(pool.allocate(rng, previous=addresses[-1],
                                               now=10.0))
            return addresses, rng.getstate()

        copies = [IPv4Prefix.parse(str(OLD)), IPv4Prefix.parse(str(NEW))]
        assert copies[0] is not OLD
        assert draws(copies) == draws([OLD, NEW])
