"""IP-to-AS mapping with monthly snapshots (CAIDA pfx2as equivalent).

Section 3.3 of the paper maps each newly assigned address to its autonomous
system using CAIDA's *monthly* Routeviews pfx2as dataset: the snapshot for
the month in which the address was assigned is the one consulted.
:class:`IpToAsDataset` reproduces that interface.

Snapshots serialize to the pfx2as text format (``network<TAB>length<TAB>asn``
per line) so tests can exercise round-trips and malformed-input handling.

A snapshot is three columns sorted by prefix -- ``network``, ``length``
and ``asn``, one row per distinct prefix -- plus a *stab table*: the
sorted start addresses of the segments the prefixes cut the address
space into, each tagged with its most specific covering prefix.  One
``searchsorted`` over the segment starts answers the longest-prefix
match for a whole column of addresses, giving the origin ASN and the
prefix itself (packed into one integer, see :func:`prefix_from_key`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.util import timeutil
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
)
from repro.util.tsvscan import TsvScan

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "pfx2as"

#: Largest AS number: ASNs are unsigned 32-bit (RFC 6793); 0 is reserved.
MAX_ASN = (1 << 32) - 1

#: Sentinel for unrouted address space in ASN and prefix-key columns.
UNROUTED = -1

#: Low bits of a packed prefix key that hold the prefix length (0..32).
_LENGTH_BITS = 6


def _pack(network, length):
    """Pack prefixes into integer keys (scalars or int64 arrays alike).

    Keys order exactly as :class:`IPv4Prefix` values do: by network,
    then by length.
    """
    return (network << _LENGTH_BITS) | length


def prefix_from_key(key: int) -> IPv4Prefix:
    """The :class:`IPv4Prefix` a batched lookup's prefix key stands for."""
    return IPv4Prefix(key >> _LENGTH_BITS, key & ((1 << _LENGTH_BITS) - 1))


@dataclass(frozen=True)
class AsMapping:
    """One routed prefix and its origin AS number."""

    prefix: IPv4Prefix
    asn: int

    def __post_init__(self) -> None:
        if not 1 <= self.asn <= MAX_ASN:
            raise ParseError("ASN out of range 1..%d: %r"
                             % (MAX_ASN, self.asn))


_NO_ROWS = np.empty(0, dtype=np.int64)


def _last_of_runs(ordered):
    """Mask of the last element of each run of equal values."""
    return np.concatenate((ordered[1:] != ordered[:-1], [True]))


def _by_prefix(network, length, asn):
    """The columns in prefix order, one row per prefix.

    Rows come in insertion order; of several rows for one prefix the
    last wins, as a later ``add`` replaces an earlier one.
    """
    if not len(network):
        return network, length, asn
    keys = _pack(network, length)
    order = np.argsort(keys, kind="stable")
    rows = order[_last_of_runs(keys[order])]
    return network[rows], length[rows], asn[rows]


def _sweep(starts: list[int], ends: list[int]
           ) -> tuple[list[int], list[int]]:
    """Segment starts and, per segment, the row of its most specific
    covering prefix (:data:`UNROUTED` where none covers it).

    Rows arrive in prefix order -- a prefix before the prefixes it
    covers, disjoint ones by address -- so a stack of the prefixes
    covering the sweep point yields the segments in address order.
    Segments of zero width come out too; the last one starting at an
    address is the one that covers it.
    """
    bounds: list[int] = [0]
    owners: list[int] = [UNROUTED]
    stack: list[tuple[int, int]] = []  # (end address, row), nested

    def resume() -> None:
        bounds.append(stack.pop()[0])
        owners.append(stack[-1][1] if stack else UNROUTED)

    for row, (start, end) in enumerate(zip(starts, ends)):
        while stack and stack[-1][0] <= start:
            resume()
        bounds.append(start)
        owners.append(row)
        stack.append((end, row))
    while stack:
        resume()
    return bounds, owners


class Pfx2AsSnapshot:
    """A single month's prefix-to-AS table with longest-prefix lookup.

    :meth:`add` only queues a mapping; the next query folds the queue
    into the sorted columns (the last mapping added for a prefix wins)
    and rebuilds the stab table.  Queries may share a snapshot across
    threads: each lazily built value is published by one assignment,
    after everything it depends on.
    """

    def __init__(self, mappings: Iterable[AsMapping] = ()) -> None:
        #: ``(network, length, asn)`` int64 columns in prefix order.
        self._columns = (_NO_ROWS, _NO_ROWS, _NO_ROWS)
        self._pending: list[tuple[int, int, int]] = []
        #: ``((bounds, asns), prefix keys)`` once built.
        self._stab: tuple | None = None
        for mapping in mappings:
            self.add(mapping)

    def __len__(self) -> int:
        return len(self._table()[0])

    def add(self, mapping: AsMapping) -> None:
        """Insert a mapping, replacing any previous entry for the prefix."""
        self._pending.append((mapping.prefix.network, mapping.prefix.length,
                              mapping.asn))

    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted columns, with every pending :meth:`add` folded in."""
        pending = self._pending
        if pending:
            added = np.array(pending, dtype=np.int64).T
            columns = _by_prefix(*(
                np.concatenate((column, extra))
                for column, extra in zip(self._columns, added)))
            self._stab = None
            self._columns = columns
            self._pending = []
        return self._columns

    def _stab_with_keys(self):
        """``((bounds, asns), prefix keys)``: see :meth:`stab_arrays`."""
        network, length, asn = self._table()
        stab = self._stab
        if stab is None:
            bounds, owner = (np.asarray(column, dtype=np.int64)
                             for column in _sweep(network.tolist(), (
                                 network + (1 << (32 - length))).tolist()))
            covers = _last_of_runs(bounds)
            bounds, owner = bounds[covers], owner[covers]
            # UNROUTED is -1: an unowned segment indexes the appended
            # sentinel.
            stab = self._stab = (
                (bounds, np.concatenate((asn, [UNROUTED]))[owner]),
                np.concatenate((_pack(network, length), [UNROUTED]))[owner])
        return stab

    def stab_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stab table as ``(bounds, asns)`` int64 arrays.

        ``bounds`` holds the sorted segment starts, beginning at 0, and
        ``asns[i]`` is the origin ASN covering ``[bounds[i],
        bounds[i+1])`` -- :data:`UNROUTED` where no prefix covers the
        segment.  ``asns[searchsorted(bounds, addr, "right") - 1]`` is
        :meth:`origin_asn` for every address.  Built with one sweep over
        the sorted prefixes and memoized until the next :meth:`add`.
        """
        return self._stab_with_keys()[0]

    def stab_table(self) -> tuple[list[int], list[int]]:
        """:meth:`stab_arrays` as lists (what ``bisect`` wants)."""
        bounds, asns = self.stab_arrays()
        return bounds.tolist(), asns.tolist()

    def lookup(self, addrs) -> tuple[np.ndarray, np.ndarray]:
        """Longest-prefix match for an array of address values.

        Returns int64 ``(asns, prefix keys)``, :data:`UNROUTED` where no
        prefix covers the address; see :func:`prefix_from_key`.
        """
        (bounds, asns), keys = self._stab_with_keys()
        segment = np.searchsorted(bounds, addrs, side="right") - 1
        return asns[segment], keys[segment]

    def origin_asn(self, address: IPv4Address) -> int | None:
        """Return the origin ASN for ``address`` or None when unrouted."""
        asn = int(self.lookup(address.value)[0])
        return None if asn == UNROUTED else asn

    def bgp_prefix(self, address: IPv4Address) -> IPv4Prefix | None:
        """Return the longest routed prefix covering ``address``.

        This is the 'BGP prefix' granularity of Table 7.
        """
        key = int(self.lookup(address.value)[1])
        return None if key == UNROUTED else prefix_from_key(key)

    def _rows(self) -> Iterator[tuple[int, int, int]]:
        return zip(*(column.tolist() for column in self._table()))

    def mappings(self) -> Iterator[AsMapping]:
        """Yield all mappings in address order."""
        for network, length, asn in self._rows():
            yield AsMapping(IPv4Prefix(network, length), asn)

    def write(self, stream: TextIO) -> None:
        """Serialize in pfx2as text format."""
        for network, length, asn in self._rows():
            stream.write("%s\t%d\t%d\n" % (IPv4Address(network), length, asn))

    @staticmethod
    def _parse_line(text: str) -> AsMapping:
        """Parse one record line; raises :class:`ParseError` sans location."""
        fields = text.split("\t")
        if len(fields) != 3:
            raise ParseError("expected 3 fields, got %d" % len(fields))
        network_text, length_text, asn_text = fields
        # isdecimal, not isdigit: "²" is a digit int() rejects.
        if not length_text.isdecimal() or not asn_text.isdecimal():
            raise ParseError("non-numeric length or ASN")
        network = IPv4Address.parse(network_text)
        prefix = IPv4Prefix.containing(network, int(length_text))
        if prefix.network != network.value:
            raise ParseError("host bits set in prefix")
        # AsMapping rejects ASNs outside 1..MAX_ASN (ParseError).
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

        Plain lines are converted a whole column at a time
        (:class:`~repro.util.tsvscan.TsvScan`); every other line goes
        through :meth:`_parse_line`, in file order, so diagnostics and
        accounting are exactly those of a line-by-line read.
        """
        source = source or getattr(stream, "name", "<pfx2as>")
        report = report if report is not None else IngestReport()
        scan = TsvScan(stream.read(), 3)
        network, ok = scan.dotted_quad(0)
        network = network.astype(np.int64)
        length, length_ok = scan.decimal(1, 2)
        asn, asn_ok = scan.decimal(2, 10)
        ok &= length_ok & asn_ok & (length <= 32) & (asn >= 1)
        ok &= asn <= MAX_ASN
        host_bits = (1 << (32 - np.minimum(length, 32))) - 1
        ok &= (network & host_bits) == 0
        plain = scan.rows[ok]
        extra: list[tuple[int, int, int, int]] = []
        for index in scan.other_lines(plain).tolist():
            text = scan.line(index).strip()
            if not text or text.startswith("#"):
                continue
            try:
                mapping = cls._parse_line(text)
            except ParseError as error:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(
                        format_line_error(source, index + 1, error)
                    ) from None
                report.quarantined(DATASET_NAME, source, index + 1,
                                   str(error))
                continue
            extra.append((index, mapping.prefix.network,
                          mapping.prefix.length, mapping.asn))
        report.parsed(DATASET_NAME, len(plain) + len(extra))
        lines, *columns = np.array(extra, dtype=np.int64).reshape(-1, 4).T
        # File order decides which duplicate prefix wins.
        order = np.argsort(np.concatenate((plain, lines)))
        snapshot = cls()
        snapshot._columns = _by_prefix(*(
            np.concatenate((parsed[ok], more))[order]
            for parsed, more in zip((network, length, asn), columns)))
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

    def lookup(self, addrs: Sequence[int], times: Sequence[float]
               ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`origin_asn` and :meth:`bgp_prefix`.

        ``addrs`` (address values) and ``times`` (assignment timestamps)
        are parallel.  Returns int64 ``(asns, prefix keys)`` arrays with
        :data:`UNROUTED` where no prefix covers the address;
        :func:`prefix_from_key` turns a key back into its prefix.
        Lookups are grouped by calendar month and each group resolves
        its snapshot through :meth:`snapshot_for`, so the missing-month
        and fallback rules are exactly the per-address ones.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        when = np.asarray(times, dtype=np.float64)
        asns = np.full(len(addrs), UNROUTED, dtype=np.int64)
        keys = asns.copy()
        if not len(addrs):
            return asns, keys
        last = timeutil.month_of(float(when.max()))
        months = [timeutil.month_of(float(when.min()))]
        while months[-1] < last:
            year, month = months[-1]
            months.append((year + 1, 1) if month == 12
                          else (year, month + 1))
        starts = [timeutil.epoch(year, month, 1) for year, month in months]
        group = np.searchsorted(starts, when, side="right") - 1
        for index, start in enumerate(starts):
            mask = group == index
            if mask.any():
                asns[mask], keys[mask] = self.snapshot_for(start).lookup(
                    addrs[mask])
        return asns, keys

    def origin_asn(self, address: IPv4Address, timestamp: float) -> int | None:
        """ASN originating ``address`` in the month of ``timestamp``."""
        return self.snapshot_for(timestamp).origin_asn(address)

    def bgp_prefix(self, address: IPv4Address,
                   timestamp: float) -> IPv4Prefix | None:
        """Routed prefix covering ``address`` in the month of ``timestamp``."""
        return self.snapshot_for(timestamp).bgp_prefix(address)
