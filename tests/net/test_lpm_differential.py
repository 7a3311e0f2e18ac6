"""Differential tests: the array-backed pfx2as snapshot vs the trie oracle.

:class:`~repro.net.pfx2as.Pfx2AsSnapshot` answers longest-prefix matches
from sorted columns and a stab table; the binary radix trie in
``tests/oracle.py`` is the reference.  Random prefix sets cover nested
and overlapping prefixes, /0 and /32, and prefixes added twice (the last
one wins).  Every address is looked up one at a time and in batches, per
snapshot and through the monthly dataset.  The vectorized reader is
compared with the line-by-line one on text salted with malformed lines.
"""

from __future__ import annotations

import io
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import MAX_IPV4, IPv4Address, IPv4Prefix
from repro.net.pfx2as import (
    MAX_ASN,
    UNROUTED,
    AsMapping,
    IpToAsDataset,
    Pfx2AsSnapshot,
    prefix_from_key,
)
from repro.util import timeutil
from repro.util.ingest import IngestReport, ReadPolicy
from tests.oracle import PrefixTrie, TrieIpToAs, read_pfx2as_lines

ADDRESSES = st.integers(0, MAX_IPV4)
ASNS = st.integers(1, MAX_ASN)
LENGTHS = st.sampled_from([0, 1, 8, 16, 24, 31, 32]) | st.integers(0, 32)


@st.composite
def mapping_lists(draw, max_size: int = 24) -> list[AsMapping]:
    """Mappings in insertion order: fresh prefixes, prefixes nested in
    earlier ones, and earlier prefixes added again with a new ASN."""
    mappings: list[AsMapping] = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = (draw(st.sampled_from(["fresh", "nested", "again"]))
                if mappings else "fresh")
        if kind == "fresh":
            prefix = IPv4Prefix.containing(IPv4Address(draw(ADDRESSES)),
                                           draw(LENGTHS))
        else:
            parent = draw(st.sampled_from(mappings)).prefix
            prefix = parent
            if kind == "nested":
                inside = parent.network + draw(st.integers(0, parent.size - 1))
                prefix = IPv4Prefix.containing(
                    IPv4Address(inside),
                    draw(st.integers(parent.length, 32)))
        mappings.append(AsMapping(prefix, draw(ASNS)))
    return mappings


def trie_of(mappings) -> PrefixTrie[int]:
    trie: PrefixTrie[int] = PrefixTrie()
    for mapping in mappings:
        trie.insert(mapping.prefix, mapping.asn)
    return trie


def probe_values(mappings, extra) -> list[int]:
    """``extra`` plus both edges of every prefix and the values just
    outside them, where an off-by-one in the segment bounds would show."""
    values = set(extra) | {0, MAX_IPV4}
    for mapping in mappings:
        first = mapping.prefix.network
        last = first + mapping.prefix.size - 1
        values.update(value for value in (first - 1, first, last, last + 1)
                      if 0 <= value <= MAX_IPV4)
    return sorted(values)


def expected_match(trie, value):
    """``(asn, prefix)`` from the trie, None for both when unrouted."""
    match = trie.longest_match(IPv4Address(value))
    return (None, None) if match is None else (match[1], match[0])


def from_batch(asn: int, key: int):
    return (None if asn == UNROUTED else asn,
            None if key == UNROUTED else prefix_from_key(key))


class TestSnapshotMatchesTrie:
    @given(mapping_lists(), st.lists(ADDRESSES, max_size=20))
    def test_scalar_and_batched_lookups(self, mappings, extra):
        trie = trie_of(mappings)
        snapshot = Pfx2AsSnapshot(mappings)
        values = probe_values(mappings, extra)
        asns, keys = snapshot.lookup(np.asarray(values, dtype=np.int64))
        for value, asn, key in zip(values, asns.tolist(), keys.tolist()):
            expected = expected_match(trie, value)
            address = IPv4Address(value)
            assert (snapshot.origin_asn(address),
                    snapshot.bgp_prefix(address)) == expected, value
            assert from_batch(asn, key) == expected, value

    @given(mapping_lists())
    def test_rows_match_trie_items(self, mappings):
        trie = trie_of(mappings)
        snapshot = Pfx2AsSnapshot(mappings)
        assert len(snapshot) == len(trie)
        assert ([(mapping.prefix, mapping.asn)
                 for mapping in snapshot.mappings()] == list(trie.items()))

    @given(mapping_lists(), mapping_lists(), st.lists(ADDRESSES, max_size=20))
    def test_adds_after_a_lookup_are_seen(self, first, second, extra):
        snapshot = Pfx2AsSnapshot(first)
        trie = trie_of(first)
        values = probe_values(first + second, extra)
        assert ([snapshot.origin_asn(IPv4Address(value)) for value in values]
                == [expected_match(trie, value)[0] for value in values])
        for mapping in second:
            snapshot.add(mapping)
            trie.insert(mapping.prefix, mapping.asn)
        asns, keys = snapshot.lookup(np.asarray(values, dtype=np.int64))
        assert ([from_batch(asn, key) for asn, key
                 in zip(asns.tolist(), keys.tolist())]
                == [expected_match(trie, value) for value in values])

    @given(mapping_lists())
    def test_write_read_roundtrip(self, mappings):
        snapshot = Pfx2AsSnapshot(mappings)
        buffer = io.StringIO()
        snapshot.write(buffer)
        parsed = Pfx2AsSnapshot.read(io.StringIO(buffer.getvalue()))
        assert list(parsed.mappings()) == list(snapshot.mappings())


class TestSharedAcrossThreads:
    def test_first_queries_race_to_build_the_same_table(self):
        """Worker threads share the loaded snapshots; whichever thread
        folds the queued adds or builds the stab table first, every
        thread sees the complete table."""
        rng = random.Random(5)
        values = np.asarray([rng.getrandbits(32) for _ in range(200)],
                            dtype=np.int64)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                mappings = [AsMapping(IPv4Prefix.containing(
                    IPv4Address(rng.getrandbits(32)), rng.randint(0, 24)),
                    rng.randint(1, 9)) for _ in range(300)]
                trie = trie_of(mappings)
                expected = [expected_match(trie, value)
                            for value in values.tolist()]
                snapshot = Pfx2AsSnapshot(mappings)
                seen = []

                def query():
                    asns, keys = snapshot.lookup(values)
                    seen.append([from_batch(asn, key) for asn, key
                                 in zip(asns.tolist(), keys.tolist())])

                threads = [threading.Thread(target=query) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert seen == [expected] * len(threads)
        finally:
            sys.setswitchinterval(previous)


#: Month starts of the windows the dataset tests draw from (2015-01..06).
MONTH_STARTS = [timeutil.epoch(2015, month, 1) for month in range(1, 8)]


class TestDatasetBatchMatchesTrie:
    @given(st.data())
    def test_batched_lookup_follows_monthly_rules(self, data):
        months = data.draw(st.lists(st.integers(1, 6), min_size=0,
                                    max_size=3, unique=True))
        dataset = IpToAsDataset(fallback=data.draw(st.booleans()))
        for month in months:
            dataset.add_snapshot(2015, month, Pfx2AsSnapshot(
                data.draw(mapping_lists(max_size=10))))
        count = data.draw(st.integers(0, 25))
        values = data.draw(st.lists(ADDRESSES, min_size=count,
                                    max_size=count))
        times = data.draw(st.lists(
            st.sampled_from(MONTH_STARTS[:-1])
            | st.floats(MONTH_STARTS[0], MONTH_STARTS[-1] - 1,
                        allow_nan=False),
            min_size=count, max_size=count))
        oracle = TrieIpToAs(dataset)
        try:
            expected = [(oracle.origin_asn(IPv4Address(value), when),
                         oracle.bgp_prefix(IPv4Address(value), when))
                        for value, when in zip(values, times)]
        except DatasetError:
            with pytest.raises(DatasetError):
                dataset.lookup(values, times)
            return
        asns, keys = dataset.lookup(values, times)
        assert [from_batch(asn, key) for asn, key
                in zip(asns.tolist(), keys.tolist())] == expected
        assert [(dataset.origin_asn(IPv4Address(value), when),
                 dataset.bgp_prefix(IPv4Address(value), when))
                for value, when in zip(values, times)] == expected

    def test_empty_batch_needs_no_snapshot(self):
        asns, keys = IpToAsDataset().lookup([], [])
        assert asns.tolist() == [] and keys.tolist() == []


#: Lines the fast path must leave to the per-line parser, malformed or not.
ODD_LINES = [
    "", "   ", "# comment", "10.0.0.0\t8", "10.0.0.0\t8\t100\textra",
    "10.0.0.0\tx\t100", "10.0.0.0\t8\tAS100", "10.0.0.1\t8\t100",
    "10.0.0.256\t8\t100", "10.0.0.0\t8\t0", "10.0.0.0\t8\t4294967296",
    "10.0.0.0\t8\t99999999999999999999", "10.0.0.0\t33\t100",
    "10.0.0.0\t8\t²", "10.0.0.0\t008\t0000000100", "010.0.0.0\t8\t1",
    "10.0.0.0\t\t100", "\t\t", " 10.0.0.0\t8\t7 ", "10.0.0.0\t8\t7\r",
    "0.0.0.0\t0\t4294967295", "255.255.255.255\t32\t1",
]


@st.composite
def pfx2as_texts(draw) -> str:
    lines = ["%s\t%d\t%d" % (IPv4Address(mapping.prefix.network),
                             mapping.prefix.length, mapping.asn)
             for mapping in draw(mapping_lists())]
    for odd in draw(st.lists(st.sampled_from(ODD_LINES), max_size=6)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def read_outcome(reader, text: str, policy: ReadPolicy):
    report = IngestReport()
    try:
        snapshot = reader(io.StringIO(text), policy, report, "2015-01.txt")
    except ParseError as error:
        return "error", str(error)
    row = report.dataset("pfx2as")
    return (list(snapshot.mappings()), row.parsed, row.quarantined,
            [issue.format() for issue in report.issues])


class TestReaderMatchesLineByLine:
    @pytest.mark.parametrize("policy", [ReadPolicy.STRICT,
                                        ReadPolicy.REPAIR])
    @given(text=pfx2as_texts())
    def test_same_table_errors_and_accounting(self, policy, text):
        assert (read_outcome(Pfx2AsSnapshot.read, text, policy)
                == read_outcome(read_pfx2as_lines, text, policy))
