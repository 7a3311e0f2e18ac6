"""IPv4 addressing substrate: value types, pfx2as, BGP synthesis."""

from repro.net.bgpgen import AddressSpaceAllocator, AddressSpacePlan
from repro.net.ipv4 import (
    TESTING_ADDRESS,
    TESTING_ADDRESS_TEXT,
    IPv4Address,
    IPv4Prefix,
)
from repro.net.pfx2as import AsMapping, IpToAsDataset, Pfx2AsSnapshot

__all__ = [
    "AddressSpaceAllocator",
    "AddressSpacePlan",
    "AsMapping",
    "IPv4Address",
    "IPv4Prefix",
    "IpToAsDataset",
    "Pfx2AsSnapshot",
    "TESTING_ADDRESS",
    "TESTING_ADDRESS_TEXT",
]
