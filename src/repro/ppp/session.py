"""PPP(oE) session lifecycle and address assignment via IPCP.

Point-to-point subscribers (Section 2.2 of the paper) get an address when
the link comes up: PPP establishes the link (LCP), authenticates, and then
IPCP configures the IP address.  Crucially there is *no* preservation rule:
every reconnect is a fresh allocation from the ISP's dynamic pool, which is
why PPP ISPs renumber on outages of any duration (Figure 9, Orange panel).

:class:`PppoeConcentrator` is the ISP-side BRAS: it authorizes subscribers
against a :class:`~repro.ppp.radius.RadiusServer`, allocates addresses from
a pool, enforces the Radius ``Session-Timeout``, and emits accounting.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.net.ipv4 import IPv4Address
from repro.ppp import lcp
from repro.ppp.radius import RadiusServer


class PppPhase(enum.Enum):
    """PPP phases per RFC 1661 section 3.2."""

    DEAD = "dead"
    ESTABLISH = "establish"
    AUTHENTICATE = "authenticate"
    NETWORK = "network"
    TERMINATE = "terminate"


@dataclass
class PppSession:
    """One subscriber session: link up through link down."""

    username: str
    session_id: int
    address: IPv4Address
    started_at: float
    session_timeout: float | None
    phase: PppPhase = PppPhase.NETWORK
    ended_at: float | None = None
    terminate_cause: str | None = None
    _phase_trace: list[PppPhase] = field(default_factory=list, repr=False)

    @property
    def expires_at(self) -> float | None:
        """Absolute time the concentrator will cut the session, or None."""
        if self.session_timeout is None:
            return None
        return self.started_at + self.session_timeout

    def is_active(self) -> bool:
        """True until the session is terminated."""
        return self.phase is PppPhase.NETWORK

    @property
    def phase_trace(self) -> list[PppPhase]:
        """Phases traversed while bringing the session up/down."""
        return list(self._phase_trace)


class PppoeConcentrator:
    """ISP-side access concentrator (BRAS) for PPPoE subscribers."""

    def __init__(self, allocator, radius: RadiusServer,
                 rng: random.Random) -> None:
        self._allocator = allocator
        self._radius = radius
        self._rng = rng
        self._active: dict[str, PppSession] = {}
        self._last_address: dict[str, IPv4Address] = {}

    @property
    def radius(self) -> RadiusServer:
        """The Radius server sessions are authorized against."""
        return self._radius

    def active_session(self, username: str) -> PppSession | None:
        """Return the subscriber's active session, if any."""
        return self._active.get(username)

    def connect(self, username: str, now: float) -> PppSession:
        """Bring up a session: LCP, authentication, IPCP address assignment.

        The address is a fresh pool allocation biased by the pool's locality
        policy toward (but never equal to) the subscriber's previous
        address — PPP deployments hand out whatever is free.

        LCP and IPCP run in closed form (:func:`repro.ppp.lcp.link_options`
        and the allocated address itself): both exchanges always converge
        on a known result, and the differential tests in
        ``tests/ppp/test_lcp_ipcp.py`` pin that the message-by-message
        automaton agrees, RNG draws included.
        """
        if username in self._active:
            raise SimulationError("subscriber %r already connected" % username)
        # ESTABLISH: LCP brings the link up (MRU capped to the PPPoE limit).
        lcp.link_options(self._rng)
        # AUTHENTICATE: Radius authorizes and supplies Session-Timeout.
        accept = self._radius.authorize(username)
        # NETWORK: IPCP Naks whatever the CPE requests, its previous
        # address included, onto the fresh allocation — the mechanism
        # behind PPP renumbering.
        address = self._allocator.allocate(
            self._rng, previous=self._last_address.get(username), now=now)
        session_id = self._radius.account_start(username, now)
        session = PppSession(
            username=username,
            session_id=session_id,
            address=address,
            started_at=now,
            session_timeout=accept.session_timeout,
        )
        session._phase_trace = [PppPhase.DEAD, PppPhase.ESTABLISH,
                                PppPhase.AUTHENTICATE, PppPhase.NETWORK]
        self._active[username] = session
        self._last_address[username] = address
        return session

    def disconnect(self, username: str, now: float,
                   cause: str = "User-Request") -> PppSession:
        """Tear down the subscriber's session and free its address."""
        session = self._active.pop(username, None)
        if session is None:
            raise SimulationError("subscriber %r not connected" % username)
        session._phase_trace.append(PppPhase.TERMINATE)
        session.phase = PppPhase.DEAD
        session._phase_trace.append(PppPhase.DEAD)
        session.ended_at = now
        session.terminate_cause = cause
        self._allocator.release(session.address)
        self._radius.account_stop(username, now, session.session_id, cause)
        return session

    def enforce_timeout(self, username: str, now: float) -> PppSession | None:
        """Cut the session if its Session-Timeout has elapsed.

        Returns the terminated session when the cut happened, else None.
        The subscriber's CPE will immediately reconnect and receive a new
        address — the paper's periodic renumbering.
        """
        session = self._active.get(username)
        if session is None:
            return None
        expires = session.expires_at
        if expires is None or now < expires:
            return None
        return self.disconnect(username, expires, cause="Session-Timeout")
