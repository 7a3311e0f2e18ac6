"""Link Control Protocol option negotiation (RFC 1661).

LCP establishes the link before authentication and IPCP.  We negotiate the
two options that matter for a broadband session: the MRU and the magic
number (loopback detection).  The concentrator caps the MRU at the PPPoE
limit of 1492 bytes (RFC 2516), Nak-ing larger requests — a faithful,
testable slice of what real BRAS equipment does.

:func:`establish_link` runs that exchange message by message through the
:mod:`repro.ppp.negotiation` automaton.  :func:`link_options` is its
closed form for the session path: the exchange always converges on the
subscriber's magic number and the capped MRU, so only the two magic-number
draws are needed.  ``tests/ppp/test_lcp_ipcp.py`` checks that the two give
the same options and leave the RNG in the same state.
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.ppp.negotiation import (
    ConfigureAck,
    ConfigureNak,
    CpEndpoint,
    Reply,
    negotiate,
)

#: Maximum receive unit over PPPoE (RFC 2516: 1500 - 8 bytes of overhead).
PPPOE_MRU = 1492


def mru_capping_policy(limit: int = PPPOE_MRU):
    """Build a policy that Naks MRUs above ``limit``."""

    def policy(options: Mapping[str, object]) -> Reply:
        mru = options.get("mru")
        if isinstance(mru, int) and mru > limit:
            return ConfigureNak({"mru": limit})
        return ConfigureAck(dict(options))

    return policy


def subscriber_endpoint(rng: random.Random, mru: int = 1500) -> CpEndpoint:
    """The CPE side: asks for a (possibly too large) MRU and a magic number."""
    return CpEndpoint(
        name="lcp-subscriber",
        desired={"mru": mru, "magic_number": rng.getrandbits(32)},
    )


def concentrator_endpoint(rng: random.Random) -> CpEndpoint:
    """The BRAS side: PPPoE MRU cap, own magic number."""
    return CpEndpoint(
        name="lcp-concentrator",
        desired={"mru": PPPOE_MRU, "magic_number": rng.getrandbits(32)},
        policy=mru_capping_policy(),
    )


def establish_link(rng: random.Random,
                   subscriber_mru: int = 1500) -> dict[str, object]:
    """Run LCP and return the subscriber's agreed options."""
    subscriber = subscriber_endpoint(rng, mru=subscriber_mru)
    concentrator = concentrator_endpoint(rng)
    agreed, _ = negotiate(subscriber, concentrator)
    return agreed


def link_options(rng: random.Random,
                 subscriber_mru: int = 1500) -> dict[str, object]:
    """The options :func:`establish_link` agrees on, without the exchange.

    Draws the subscriber's magic number, then the concentrator's, exactly
    as the two endpoints do, so the RNG ends in the same state.
    """
    magic_number = rng.getrandbits(32)
    rng.getrandbits(32)  # the concentrator's magic number
    return {"mru": min(subscriber_mru, PPPOE_MRU),
            "magic_number": magic_number}
