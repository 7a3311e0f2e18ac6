"""IP-to-AS mapping with monthly snapshots (CAIDA pfx2as equivalent).

Section 3.3 of the paper maps each newly assigned address to its autonomous
system using CAIDA's *monthly* Routeviews pfx2as dataset: the snapshot for
the month in which the address was assigned is the one consulted.
:class:`IpToAsDataset` reproduces that interface.

Snapshots serialize to the pfx2as text format (``network<TAB>length<TAB>asn``
per line) so tests can exercise round-trips and malformed-input handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.trie import PrefixTrie
from repro.util import timeutil
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
)

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "pfx2as"


@dataclass(frozen=True)
class AsMapping:
    """One routed prefix and its origin AS number."""

    prefix: IPv4Prefix
    asn: int

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ParseError("ASN must be positive, got %r" % (self.asn,))


#: Sentinel ASN in flattened stab tables for unrouted address space.
UNROUTED = -1


class Pfx2AsSnapshot:
    """A single month's prefix-to-AS table with longest-prefix lookup."""

    def __init__(self, mappings: Iterable[AsMapping] = ()) -> None:
        self._trie: PrefixTrie[AsMapping] = PrefixTrie()
        self._stab: tuple[list[int], list[int]] | None = None
        self._stab_arrays: tuple | None = None
        for mapping in mappings:
            self.add(mapping)

    def __len__(self) -> int:
        return len(self._trie)

    def add(self, mapping: AsMapping) -> None:
        """Insert a mapping, replacing any previous entry for the prefix."""
        self._trie.insert(mapping.prefix, mapping)
        self._stab = None  # flattened table (and its arrays) are stale
        self._stab_arrays = None

    def origin_asn(self, address: IPv4Address) -> int | None:
        """Return the origin ASN for ``address`` or None when unrouted."""
        mapping = self._trie.lookup(address)
        return None if mapping is None else mapping.asn

    def bgp_prefix(self, address: IPv4Address) -> IPv4Prefix | None:
        """Return the longest routed prefix covering ``address``.

        This is the 'BGP prefix' granularity of Table 7.
        """
        mapping = self._trie.lookup(address)
        return None if mapping is None else mapping.prefix

    def mappings(self) -> Iterator[AsMapping]:
        """Yield all mappings in address order."""
        for _prefix, mapping in self._trie.items():
            yield mapping

    def stab_table(self) -> tuple[list[int], list[int]]:
        """The trie flattened into a longest-prefix-match stab table.

        Returns ``(bounds, asns)``: ``bounds`` is a sorted list of
        segment start addresses beginning at 0, and ``asns[i]`` is the
        origin ASN covering ``[bounds[i], bounds[i+1])`` —
        :data:`UNROUTED` where no prefix covers the segment.  Lookup is
        ``asns[bisect_right(bounds, addr) - 1]``, equivalent to
        :meth:`origin_asn` for every address (the vectorized kernels
        batch exactly this with ``numpy.searchsorted``).

        Built lazily from the pre-order :meth:`PrefixTrie.items` walk —
        parents arrive before children and siblings in address order, so
        one stack sweep paints most-specific-wins segments.  Cached
        until the next :meth:`add` invalidates it.
        """
        if self._stab is not None:
            return self._stab
        bounds: list[int] = [0]
        asns: list[int] = [UNROUTED]

        def paint(start: int, asn: int) -> None:
            # Segments arrive with non-decreasing starts; drop zero-width
            # segments and merge equal-valued neighbours.
            if bounds[-1] == start:
                if len(bounds) > 1 and asns[-2] == asn:
                    bounds.pop()
                    asns.pop()
                else:
                    asns[-1] = asn
            elif asns[-1] != asn:
                bounds.append(start)
                asns.append(asn)

        stack: list[tuple[int, int]] = []  # (end address, asn), nested
        for prefix, mapping in self._trie.items():
            start = prefix.network
            end = start + (1 << (32 - prefix.length))
            while stack and stack[-1][0] <= start:
                resumed, _ = stack.pop()
                paint(resumed, stack[-1][1] if stack else UNROUTED)
            paint(start, mapping.asn)
            stack.append((end, mapping.asn))
        while stack:
            resumed, _ = stack.pop()
            paint(resumed, stack[-1][1] if stack else UNROUTED)
        self._stab = (bounds, asns)
        return self._stab

    def stab_arrays(self):
        """:meth:`stab_table` as a pair of int64 numpy arrays.

        The vectorized kernels call this per batch, so the conversion is
        memoized next to the table itself and invalidated by the same
        :meth:`add` — a mutated snapshot can never serve stale arrays.
        """
        if self._stab_arrays is None:
            bounds, asns = self.stab_table()
            self._stab_arrays = (np.asarray(bounds, dtype=np.int64),
                                 np.asarray(asns, dtype=np.int64))
        return self._stab_arrays

    def write(self, stream: TextIO) -> None:
        """Serialize in pfx2as text format."""
        for mapping in self.mappings():
            stream.write(
                "%s\t%d\t%d\n"
                % (IPv4Address(mapping.prefix.network), mapping.prefix.length,
                   mapping.asn)
            )

    @staticmethod
    def _parse_line(text: str) -> AsMapping:
        """Parse one record line; raises :class:`ParseError` sans location."""
        fields = text.split("\t")
        if len(fields) != 3:
            raise ParseError("expected 3 fields, got %d" % len(fields))
        network_text, length_text, asn_text = fields
        if not length_text.isdigit() or not asn_text.isdigit():
            raise ParseError("non-numeric length or ASN")
        network = IPv4Address.parse(network_text)
        prefix = IPv4Prefix.containing(network, int(length_text))
        if prefix.network != network.value:
            raise ParseError("host bits set in prefix")
        # AsMapping rejects non-positive ASNs (ParseError).
        return AsMapping(prefix, int(asn_text))

    @classmethod
    def read(cls, stream: TextIO,
             policy: ReadPolicy = ReadPolicy.STRICT,
             report: IngestReport | None = None,
             source: str | None = None) -> "Pfx2AsSnapshot":
        """Parse the pfx2as text format.

        ``STRICT`` rejects the whole snapshot on the first malformed
        line; ``REPAIR`` quarantines bad lines (those prefixes simply go
        unmapped) and accounts them in ``report``.
        """
        source = source or getattr(stream, "name", "<pfx2as>")
        report = report if report is not None else IngestReport()
        snapshot = cls()
        for line_number, line in enumerate(stream, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                snapshot.add(cls._parse_line(text))
            except ParseError as error:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(
                        format_line_error(source, line_number, error)
                    ) from None
                report.quarantined(DATASET_NAME, source, line_number,
                                   str(error))
                continue
            report.parsed(DATASET_NAME)
        return snapshot


class IpToAsDataset:
    """Monthly pfx2as snapshots keyed by ``(year, month)``.

    Lookups take the timestamp of the address assignment and consult the
    snapshot published for that month, as the paper does.  By default a
    missing month raises :class:`DatasetError` — the analysis must not
    *silently* fall back to a different month's routing table.  Under
    ``ReadPolicy.REPAIR`` the bundle loader constructs the dataset with
    ``fallback=True`` after recording the gap, and lookups then use the
    nearest earlier snapshot (or the earliest later one before the first
    registered month), mirroring how the paper coped with gaps in
    CAIDA's monthly archive.
    """

    def __init__(self, fallback: bool = False) -> None:
        self._snapshots: dict[tuple[int, int], Pfx2AsSnapshot] = {}
        self.fallback = fallback

    def __len__(self) -> int:
        return len(self._snapshots)

    def add_snapshot(self, year: int, month: int,
                     snapshot: Pfx2AsSnapshot) -> None:
        """Register the snapshot for a month."""
        if not 1 <= month <= 12:
            raise DatasetError("month out of range: %r" % (month,))
        self._snapshots[(year, month)] = snapshot

    def months(self) -> list[tuple[int, int]]:
        """Return registered ``(year, month)`` keys in order."""
        return sorted(self._snapshots)

    def snapshot_for(self, timestamp: float) -> Pfx2AsSnapshot:
        """Return the snapshot for the month containing ``timestamp``.

        With ``fallback`` enabled a missing month resolves to the nearest
        earlier registered snapshot (or the earliest later one); without
        it, or when no snapshot exists at all, raises
        :class:`DatasetError`.
        """
        key = timeutil.month_of(timestamp)
        try:
            return self._snapshots[key]
        except KeyError:
            if self.fallback and self._snapshots:
                return self._snapshots[self._nearest_month(key)]
            raise DatasetError(
                "no pfx2as snapshot for %04d-%02d" % key
            ) from None

    def _nearest_month(self, key: tuple[int, int]) -> tuple[int, int]:
        """Nearest earlier registered month, else the earliest later one."""
        earlier = [month for month in self._snapshots if month <= key]
        if earlier:
            return max(earlier)
        return min(self._snapshots)

    def origin_asn(self, address: IPv4Address, timestamp: float) -> int | None:
        """ASN originating ``address`` in the month of ``timestamp``."""
        return self.snapshot_for(timestamp).origin_asn(address)

    def bgp_prefix(self, address: IPv4Address,
                   timestamp: float) -> IPv4Prefix | None:
        """Routed prefix covering ``address`` in the month of ``timestamp``."""
        return self.snapshot_for(timestamp).bgp_prefix(address)
