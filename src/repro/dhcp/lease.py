"""DHCP lease bookkeeping.

A :class:`Lease` records one address binding: the client it was issued to,
when it was issued, and for how long.  Timer rules follow RFC 2131: the
renewal time T1 defaults to half the lease duration and the rebinding time
T2 to 87.5% of it.  The paper's DHCP discussion (Section 2.1) hinges on the
client renewing at T1 and the server preferring to extend the same binding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.net.ipv4 import IPv4Address

#: RFC 2131 default fractions of the lease duration.
T1_FRACTION = 0.5
T2_FRACTION = 0.875


@dataclass(frozen=True)
class Lease:
    """An address lease issued to a client."""

    address: IPv4Address
    client_id: str
    issued_at: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise SimulationError(
                "lease duration must be positive, got %r" % (self.duration,)
            )

    @property
    def expires_at(self) -> float:
        """Absolute expiry time of the lease."""
        return self.issued_at + self.duration

    @property
    def t1(self) -> float:
        """Absolute time at which the client should start renewing."""
        return self.issued_at + T1_FRACTION * self.duration

    @property
    def t2(self) -> float:
        """Absolute time at which the client starts rebinding."""
        return self.issued_at + T2_FRACTION * self.duration

    def is_active(self, now: float) -> bool:
        """True while the lease has not expired."""
        return now < self.expires_at

    def renewed(self, now: float) -> "Lease":
        """Return a copy of the lease re-issued at ``now``.

        Renewal keeps the address and client; only the clock restarts.
        Built with the constructor: ``dataclasses.replace`` costs several
        times more, and the simulator renews on every DHCP reconnect.
        """
        return Lease(self.address, self.client_id, now, self.duration)
