"""IPv4 address and prefix value types.

The pipeline compares successive addresses assigned to the same CPE against
three prefix granularities (the originating BGP prefix, the enclosing /16,
and the enclosing /8 — Section 6 of the paper), so addresses and prefixes
are first-class values here rather than raw strings.

We deliberately implement these from scratch instead of wrapping
:mod:`ipaddress`: the pfx2as tables, pool allocators and dataset writers
all want the integer representation directly, and the value types stay
tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator

from repro.errors import ParseError

MAX_IPV4 = (1 << 32) - 1

#: Address used by the RIPE NCC to test probes before shipping (Section 3.3).
TESTING_ADDRESS_TEXT = "193.0.0.78"


@total_ordering
@dataclass(frozen=True)
class IPv4Address:
    """An IPv4 address stored as an unsigned 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_IPV4:
            raise ParseError("IPv4 value out of range: %r" % (self.value,))

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad text, rejecting malformed input."""
        octets = text.strip().split(".")
        if len(octets) != 4:
            raise ParseError("malformed IPv4 address: %r" % (text,))
        value = 0
        for octet in octets:
            # isdecimal, not isdigit: "²" is a digit int() rejects.
            if not octet.isdecimal() or (len(octet) > 1 and octet[0] == "0"):
                raise ParseError("malformed IPv4 octet in %r" % (text,))
            part = int(octet)
            if part > 255:
                raise ParseError("IPv4 octet out of range in %r" % (text,))
            value = (value << 8) | part
        return cls(value)

    def __str__(self) -> str:
        return "%d.%d.%d.%d" % (
            (self.value >> 24) & 0xFF,
            (self.value >> 16) & 0xFF,
            (self.value >> 8) & 0xFF,
            self.value & 0xFF,
        )

    def __lt__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            return NotImplemented
        return self.value < other.value

    def prefix(self, length: int) -> "IPv4Prefix":
        """Return the enclosing prefix of the given length."""
        return IPv4Prefix.containing(self, length)

    def slash16(self) -> "IPv4Prefix":
        """Return the enclosing /16 (Table 7's 'Diff /16' granularity)."""
        return self.prefix(16)

    def slash8(self) -> "IPv4Prefix":
        """Return the enclosing /8 (Table 7's 'Diff /8' granularity)."""
        return self.prefix(8)


@total_ordering
@dataclass(frozen=True)
class IPv4Prefix:
    """A CIDR prefix: ``network`` integer plus prefix ``length``.

    The network value must have all host bits clear; :meth:`containing`
    masks them for you.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ParseError("prefix length out of range: %r" % (self.length,))
        if not 0 <= self.network <= MAX_IPV4:
            raise ParseError("prefix network out of range: %r" % (self.network,))
        if self.network & ~self.mask():
            raise ParseError(
                "prefix %s/%d has host bits set"
                % (IPv4Address(self.network), self.length)
            )

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        """Parse ``a.b.c.d/len`` text."""
        body, slash, length_text = text.strip().partition("/")
        if not slash or not length_text.isdecimal():
            raise ParseError("malformed prefix: %r" % (text,))
        address = IPv4Address.parse(body)
        length = int(length_text)
        if length > 32:
            raise ParseError("prefix length out of range in %r" % (text,))
        prefix = cls.containing(address, length)
        if prefix.network != address.value:
            raise ParseError("prefix %r has host bits set" % (text,))
        return prefix

    @classmethod
    def containing(cls, address: IPv4Address, length: int) -> "IPv4Prefix":
        """Return the length-``length`` prefix that contains ``address``."""
        if not 0 <= length <= 32:
            raise ParseError("prefix length out of range: %r" % (length,))
        mask = 0 if length == 0 else (MAX_IPV4 << (32 - length)) & MAX_IPV4
        return cls(address.value & mask, length)

    def mask(self) -> int:
        """Return the netmask as an integer."""
        if self.length == 0:
            return 0
        return (MAX_IPV4 << (32 - self.length)) & MAX_IPV4

    def __str__(self) -> str:
        return "%s/%d" % (IPv4Address(self.network), self.length)

    def __lt__(self, other: "IPv4Prefix") -> bool:
        if not isinstance(other, IPv4Prefix):
            return NotImplemented
        return (self.network, self.length) < (other.network, other.length)

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains(self, address: IPv4Address) -> bool:
        """True when ``address`` falls inside the prefix."""
        return (address.value & self.mask()) == self.network

    def contains_prefix(self, other: "IPv4Prefix") -> bool:
        """True when ``other`` is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.network & self.mask()) == self.network

    def first_address(self) -> IPv4Address:
        """Lowest address in the prefix."""
        return IPv4Address(self.network)

    def last_address(self) -> IPv4Address:
        """Highest address in the prefix."""
        return IPv4Address(self.network + self.size - 1)

    def address_at(self, offset: int) -> IPv4Address:
        """Return the address ``offset`` positions into the prefix."""
        if not 0 <= offset < self.size:
            raise ValueError(
                "offset %d outside prefix %s" % (offset, self)
            )
        return IPv4Address(self.network + offset)

    def iter_addresses(self) -> Iterator[IPv4Address]:
        """Iterate every address in the prefix (use only on small prefixes)."""
        for offset in range(self.size):
            yield IPv4Address(self.network + offset)

    def subprefixes(self, length: int) -> Iterator["IPv4Prefix"]:
        """Iterate the length-``length`` subprefixes of this prefix."""
        if length < self.length:
            raise ValueError(
                "cannot split %s into shorter /%d" % (self, length)
            )
        step = 1 << (32 - length)
        for network in range(self.network, self.network + self.size, step):
            yield IPv4Prefix(network, length)


#: The RIPE NCC testing address as a value (Section 3.3 filtering).
TESTING_ADDRESS = IPv4Address.parse(TESTING_ADDRESS_TEXT)
