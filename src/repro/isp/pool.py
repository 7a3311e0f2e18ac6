"""Dynamic address pools spanning multiple routed prefixes.

Section 6 of the paper shows that ISPs commonly assign successive addresses
to the same customer from *different* BGP prefixes.  :class:`AddressPool`
models the ISP-side allocator: it owns a set of routed prefixes and hands
out free addresses according to a :class:`PoolPolicy` that controls how
sticky allocation is to the customer's previous prefix and /16.

Both the DHCP server and the PPPoE concentrator allocate through this one
class; they differ only in whether they *try* to preserve the exact previous
address (DHCP, RFC 2131 §4.3.1) before falling back to the pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import PoolExhaustedError, SimulationError
from repro.net.ipv4 import IPv4Address, IPv4Prefix


@dataclass(frozen=True)
class PoolPolicy:
    """Locality knobs for re-allocation after an address change.

    ``stay_bgp_prob``
        Probability that a renumbered customer is allocated from the same
        routed prefix as before.  Low values reproduce ISPs like Telecom
        Italia (85% of changes crossed BGP prefixes); high values reproduce
        DTAG and Verizon (roughly a quarter crossed).

    ``stay_slash16_prob``
        Given the customer stayed inside the same routed prefix that is
        *wider* than a /16, the probability the new address is drawn from
        the customer's previous /16 rather than uniformly from the prefix.
        This is what lets an ISP's 'Diff /16' exceed its 'Diff BGP'
        (BT in Table 7) without the two being equal.
    """

    stay_bgp_prob: float = 0.5
    stay_slash16_prob: float = 0.5

    def __post_init__(self) -> None:
        for name in ("stay_bgp_prob", "stay_slash16_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError("%s must be in [0, 1], got %r" % (name, value))


class AddressPool:
    """Allocates dynamic addresses from a set of disjoint prefixes.

    Every prefix the pool hands around internally (the active scopes, the
    customer's previous prefix) is one of the pool's own objects, so scopes
    are told apart by identity rather than by value comparison.
    """

    def __init__(self, prefixes: Iterable[IPv4Prefix],
                 policy: PoolPolicy | None = None) -> None:
        self._prefixes: tuple[IPv4Prefix, ...] = tuple(prefixes)
        if not self._prefixes:
            raise SimulationError("address pool needs at least one prefix")
        for i, p in enumerate(self._prefixes):
            for q in self._prefixes[i + 1:]:
                if p.contains_prefix(q) or q.contains_prefix(p):
                    raise SimulationError(
                        "pool prefixes overlap: %s and %s" % (p, q)
                    )
        self._policy = policy or PoolPolicy()
        self._allocated: set[int] = set()
        #: ``(mask, network, prefix)`` per prefix, for :meth:`_prefix_of`.
        self._networks = [(prefix.mask(), prefix.network, prefix)
                       for prefix in self._prefixes]
        #: Optional allocation schedule: ``(from_time, prefixes)`` entries,
        #: sorted; before the first entry all prefixes allocate.
        self._schedule: list[tuple[float, tuple[IPv4Prefix, ...]]] = []

    @property
    def prefixes(self) -> Sequence[IPv4Prefix]:
        """The routed prefixes backing the pool."""
        return self._prefixes

    @property
    def policy(self) -> PoolPolicy:
        """The locality policy used on re-allocation."""
        return self._policy

    @property
    def capacity(self) -> int:
        """Total number of addresses across all prefixes."""
        return sum(prefix.size for prefix in self._prefixes)

    @property
    def allocated_count(self) -> int:
        """Number of currently allocated addresses."""
        return len(self._allocated)

    def contains(self, address: IPv4Address) -> bool:
        """True when the address belongs to one of the pool's prefixes."""
        return self._prefix_of(address) is not None

    def is_allocated(self, address: IPv4Address) -> bool:
        """True when the address is currently handed out."""
        return address.value in self._allocated

    def _prefix_of(self, address: IPv4Address) -> IPv4Prefix | None:
        value = address.value
        for mask, network, prefix in self._networks:
            if value & mask == network:
                return prefix
        return None

    def try_allocate(self, address: IPv4Address) -> bool:
        """Allocate a specific address if it is free (DHCP preservation).

        Returns True on success.  Raises when the address is outside the
        pool — a server must never re-issue foreign space.
        """
        if self._prefix_of(address) is None:
            raise SimulationError("address %s outside pool" % address)
        if address.value in self._allocated:
            return False
        self._allocated.add(address.value)
        return True

    def release(self, address: IPv4Address) -> None:
        """Return an address to the pool."""
        try:
            self._allocated.remove(address.value)
        except KeyError:
            raise SimulationError(
                "releasing unallocated address %s" % address
            ) from None

    def schedule_allocation(self, from_time: float,
                            prefixes: Iterable[IPv4Prefix]) -> None:
        """Restrict allocation to ``prefixes`` from ``from_time`` on.

        Models administrative renumbering (Section 2.3's rare DHCP-server
        reconfiguration): addresses already handed out stay valid, but new
        allocations come only from the scheduled prefixes.  Entries must be
        added in time order.
        """
        owned = {prefix: prefix for prefix in self._prefixes}
        chosen = tuple(prefixes)
        if not chosen:
            raise SimulationError("allocation schedule needs prefixes")
        for prefix in chosen:
            if prefix not in owned:
                raise SimulationError(
                    "scheduled prefix %s not part of the pool" % prefix)
        # Store the pool's own objects: scopes are compared by identity.
        chosen = tuple(owned[prefix] for prefix in chosen)
        if self._schedule and from_time <= self._schedule[-1][0]:
            raise SimulationError("allocation schedule must be in time order")
        self._schedule.append((from_time, chosen))

    def active_prefixes(self, now: float | None) -> Sequence[IPv4Prefix]:
        """Prefixes allocation may draw from at time ``now``."""
        if now is None or not self._schedule:
            return self._prefixes
        active: Sequence[IPv4Prefix] = self._prefixes
        for from_time, prefixes in self._schedule:
            if from_time <= now:
                active = prefixes
            else:
                break
        return active

    def allocate(self, rng: random.Random,
                 previous: IPv4Address | None = None,
                 now: float | None = None) -> IPv4Address:
        """Allocate a fresh address, honouring the locality policy.

        When ``previous`` is given it is never returned (the caller handles
        exact preservation through :meth:`try_allocate`); it only biases
        which prefix and /16 the new address is drawn from.  ``now``
        selects the allocation schedule entry in force (None = no
        schedule restriction).
        """
        scopes = self._candidate_scopes(rng, previous,
                                        self.active_prefixes(now))
        for scope in scopes:
            address = self._random_free(rng, scope, avoid=previous)
            if address is not None:
                self._allocated.add(address.value)
                return address
        raise PoolExhaustedError(
            "no free address among %d prefixes" % len(self._prefixes)
        )

    def _candidate_scopes(self, rng: random.Random,
                          previous: IPv4Address | None,
                          eligible: Sequence[IPv4Prefix]
                          ) -> list[IPv4Prefix]:
        """Order allocation scopes from most to least preferred."""
        previous_prefix = None if previous is None else self._prefix_of(previous)
        others = [p for p in eligible if p is not previous_prefix]
        if len(others) == len(eligible):
            # No previous prefix, or it has been administratively retired:
            # locality cannot apply.
            previous_prefix = None
            previous = None
        rng.shuffle(others)
        if previous_prefix is None:
            return others

        scopes: list[IPv4Prefix]
        if rng.random() < self._policy.stay_bgp_prob:
            scopes = [previous_prefix]
            if (previous_prefix.length < 16
                    and rng.random() < self._policy.stay_slash16_prob):
                # Narrow to the customer's previous /16 inside the prefix.
                scopes.insert(0, previous.prefix(16))  # type: ignore[union-attr]
            scopes.extend(others)
        else:
            scopes = others + [previous_prefix]
        return scopes

    def _random_free(self, rng: random.Random, scope: IPv4Prefix,
                     avoid: IPv4Address | None) -> IPv4Address | None:
        """Pick a uniformly random free address inside ``scope``.

        Tries random probes first; falls back to a linear scan from a random
        start so allocation stays correct even in a nearly full scope.
        """
        avoid_value = None if avoid is None else avoid.value
        size = scope.size
        for _ in range(16):
            offset = rng.randrange(size)
            value = scope.network + offset
            if value != avoid_value and value not in self._allocated:
                return IPv4Address(value)
        start = rng.randrange(size)
        for step in range(size):
            value = scope.network + (start + step) % size
            if value != avoid_value and value not in self._allocated:
                return IPv4Address(value)
        return None
