"""Tests for repro.ppp.lcp and repro.ppp.ipcp.

The session path (:meth:`PppoeConcentrator.connect
<repro.ppp.session.PppoeConcentrator.connect>`) skips the message-by-
message exchanges: it draws LCP's options through the closed form
:func:`repro.ppp.lcp.link_options` and opens with the allocated address,
since IPCP always converges on it.  The differential classes below are
what license that shortcut: same agreed options, same RNG state after,
same address for any request.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isp.pool import AddressPool, PoolPolicy
from repro.net.ipv4 import MAX_IPV4, IPv4Address, IPv4Prefix
from repro.ppp import ipcp, lcp
from repro.ppp.radius import RadiusServer
from repro.ppp.session import PppoeConcentrator
from repro.util.rng import substream

ASSIGNED = IPv4Address.parse("192.0.2.77")
ADDRESSES = st.integers(0, MAX_IPV4).map(IPv4Address)
#: MRUs below, at and just around the PPPoE cap, and far above it.
MRUS = (64, 576, 1400, 1491, lcp.PPPOE_MRU, 1493, 1500, 9000)


class TestLcp:
    def test_oversized_mru_capped_to_pppoe(self):
        agreed = lcp.establish_link(substream(1, "lcp"), subscriber_mru=1500)
        assert agreed["mru"] == lcp.PPPOE_MRU

    def test_small_mru_kept(self):
        agreed = lcp.establish_link(substream(1, "lcp"), subscriber_mru=1400)
        assert agreed["mru"] == 1400

    def test_magic_number_negotiated(self):
        agreed = lcp.establish_link(substream(2, "lcp"))
        assert 0 <= agreed["magic_number"] < 2 ** 32


class TestLcpClosedForm:
    """``link_options`` agrees with the negotiated ``establish_link``."""

    @pytest.mark.parametrize("mru", MRUS)
    @pytest.mark.parametrize("seed", range(20))
    def test_same_options_and_draws(self, seed, mru):
        negotiated, closed = (substream(seed, "lcp-diff"),
                              substream(seed, "lcp-diff"))
        assert (lcp.establish_link(negotiated, subscriber_mru=mru)
                == lcp.link_options(closed, subscriber_mru=mru))
        assert negotiated.getstate() == closed.getstate()

    @given(seed=st.integers(0, 2 ** 64), mru=st.integers(1, 65535),
           links=st.integers(1, 5))
    def test_same_options_and_draws_over_repeated_links(self, seed, mru,
                                                        links):
        negotiated, closed = random.Random(seed), random.Random(seed)
        for _ in range(links):
            assert (lcp.establish_link(negotiated, subscriber_mru=mru)
                    == lcp.link_options(closed, subscriber_mru=mru))
        assert negotiated.getstate() == closed.getstate()

    def test_default_mru_matches(self):
        negotiated, closed = substream(4, "lcp"), substream(4, "lcp")
        assert lcp.establish_link(negotiated) == lcp.link_options(closed)
        assert negotiated.getstate() == closed.getstate()


class TestIpcpConvergence:
    """IPCP always opens with the assigned address, whatever was asked."""

    @given(assigned=ADDRESSES, requested=ADDRESSES)
    def test_arbitrary_request_converges_on_assignment(self, assigned,
                                                       requested):
        assert ipcp.assign_address(assigned, requested=requested) == assigned

    @given(assigned=ADDRESSES)
    def test_unassigned_and_same_requests_converge(self, assigned):
        assert ipcp.assign_address(assigned) == assigned
        assert ipcp.assign_address(assigned,
                                   requested=ipcp.UNASSIGNED) == assigned
        assert ipcp.assign_address(assigned, requested=assigned) == assigned


def _negotiated_sessions(seed, reconnects):
    """Addresses from the full LCP/IPCP exchanges, plus the final RNG."""
    rng = substream(seed, "ppp")
    pool = AddressPool([IPv4Prefix.parse("192.0.2.0/24"),
                        IPv4Prefix.parse("198.51.100.0/25")], PoolPolicy())
    addresses, previous = [], None
    for _ in range(reconnects):
        lcp.establish_link(rng)
        allocated = pool.allocate(rng, previous=previous, now=0.0)
        address = ipcp.assign_address(
            allocated,
            requested=previous if previous is not None else ipcp.UNASSIGNED)
        pool.release(address)
        addresses.append(address)
        previous = address
    return addresses, rng.getstate()


class TestSessionPathDifferential:
    """The concentrator's closed-form path walks the same draws."""

    @pytest.mark.parametrize("seed", range(5))
    def test_connect_matches_full_negotiation(self, seed):
        rng = substream(seed, "ppp")
        pool = AddressPool([IPv4Prefix.parse("192.0.2.0/24"),
                            IPv4Prefix.parse("198.51.100.0/25")],
                           PoolPolicy())
        concentrator = PppoeConcentrator(pool, RadiusServer(), rng)
        addresses = []
        for step in range(30):
            addresses.append(concentrator.connect("alice", float(step)).address)
            concentrator.disconnect("alice", step + 0.5)
        assert (addresses, rng.getstate()) == _negotiated_sessions(seed, 30)


class TestIpcp:
    def test_unassigned_request_gets_naked_to_assignment(self):
        address = ipcp.assign_address(ASSIGNED)
        assert address == ASSIGNED

    def test_previous_address_request_overridden(self):
        # A CPE asking for its old address still gets the new one — the
        # protocol-level reason PPP reconnects renumber.
        previous = IPv4Address.parse("192.0.2.1")
        address = ipcp.assign_address(ASSIGNED, requested=previous)
        assert address == ASSIGNED

    def test_requesting_the_assigned_address_acks_immediately(self):
        address = ipcp.assign_address(ASSIGNED, requested=ASSIGNED)
        assert address == ASSIGNED

    def test_policy_naks_mismatch(self):
        policy = ipcp.address_assignment_policy(ASSIGNED)
        from repro.ppp.negotiation import ConfigureAck, ConfigureNak
        nak = policy({"ip_address": ipcp.UNASSIGNED})
        assert isinstance(nak, ConfigureNak)
        assert nak.suggested["ip_address"] == ASSIGNED
        ack = policy({"ip_address": ASSIGNED})
        assert isinstance(ack, ConfigureAck)


class TestConcentratorIntegration:
    def test_session_address_flows_through_ipcp(self):
        from repro.isp.pool import AddressPool
        from repro.net.ipv4 import IPv4Prefix
        from repro.ppp.radius import RadiusServer
        from repro.ppp.session import PppoeConcentrator

        pool = AddressPool([IPv4Prefix.parse("192.0.2.0/24")])
        concentrator = PppoeConcentrator(pool, RadiusServer(),
                                         substream(3, "ppp"))
        session = concentrator.connect("alice", 0.0)
        assert pool.is_allocated(session.address)
        assert pool.contains(session.address)
