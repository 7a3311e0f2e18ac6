"""Tests for the longest-prefix-match oracle trie (tests/oracle.py)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.ipv4 import IPv4Address, IPv4Prefix
from tests.oracle import PrefixTrie


def make_trie(entries):
    trie = PrefixTrie()
    for text, value in entries:
        trie.insert(IPv4Prefix.parse(text), value)
    return trie


class TestPrefixTrie:
    def test_empty_lookup(self):
        trie = PrefixTrie()
        assert trie.lookup(IPv4Address.parse("1.2.3.4")) is None
        assert len(trie) == 0

    def test_exact(self):
        trie = make_trie([("10.0.0.0/8", "a")])
        assert trie.exact(IPv4Prefix.parse("10.0.0.0/8")) == "a"
        assert trie.exact(IPv4Prefix.parse("10.0.0.0/9")) is None

    def test_longest_match_prefers_specific(self):
        trie = make_trie([("10.0.0.0/8", "coarse"), ("10.5.0.0/16", "fine")])
        assert trie.lookup(IPv4Address.parse("10.5.1.1")) == "fine"
        assert trie.lookup(IPv4Address.parse("10.6.1.1")) == "coarse"
        assert trie.lookup(IPv4Address.parse("11.0.0.1")) is None

    def test_longest_match_returns_prefix(self):
        trie = make_trie([("10.0.0.0/8", "a")])
        match = trie.longest_match(IPv4Address.parse("10.9.9.9"))
        assert match is not None
        prefix, value = match
        assert str(prefix) == "10.0.0.0/8"
        assert value == "a"

    def test_default_route(self):
        trie = make_trie([("0.0.0.0/0", "default"), ("10.0.0.0/8", "ten")])
        assert trie.lookup(IPv4Address.parse("1.1.1.1")) == "default"
        assert trie.lookup(IPv4Address.parse("10.1.1.1")) == "ten"

    def test_replace_value(self):
        trie = make_trie([("10.0.0.0/8", "old")])
        trie.insert(IPv4Prefix.parse("10.0.0.0/8"), "new")
        assert len(trie) == 1
        assert trie.lookup(IPv4Address.parse("10.0.0.1")) == "new"

    def test_slash32(self):
        trie = make_trie([("192.0.2.1/32", "host")])
        assert trie.lookup(IPv4Address.parse("192.0.2.1")) == "host"
        assert trie.lookup(IPv4Address.parse("192.0.2.2")) is None

    def test_items_sorted(self):
        trie = make_trie([("10.5.0.0/16", 2), ("10.0.0.0/8", 1),
                          ("9.0.0.0/8", 0)])
        listed = [(str(p), v) for p, v in trie.items()]
        assert listed == [("9.0.0.0/8", 0), ("10.0.0.0/8", 1),
                          ("10.5.0.0/16", 2)]


@st.composite
def prefix_tables(draw):
    n = draw(st.integers(1, 25))
    entries = []
    for i in range(n):
        value = draw(st.integers(0, (1 << 32) - 1))
        length = draw(st.integers(1, 32))
        entries.append((IPv4Prefix.containing(IPv4Address(value), length), i))
    return entries


class TestTrieProperties:
    @given(prefix_tables(), st.integers(0, (1 << 32) - 1))
    def test_matches_linear_scan(self, entries, probe_value):
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        address = IPv4Address(probe_value)
        candidates = [(p.length, v) for p, v in table.items()
                      if p.contains(address)]
        expected = max(candidates)[1] if candidates else None
        assert trie.lookup(address) == expected

    @given(prefix_tables())
    def test_exact_recovers_all_inserted(self, entries):
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        for prefix, value in table.items():
            assert trie.exact(prefix) == value
        assert len(trie) == len(table)
