"""Tests for repro.atlas.columnar: CSR views of the hot Atlas datasets.

The views are derived from the record containers, so the suite checks
the DESIGN.md §16 invariants (sorted probe rows, CSR offsets, v6 flag
with a zero address placeholder), the lazily derived columns
(durations, run starts) against hand-computed values, and the pickle
round-trip spawned workers rely on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.atlas.connlog import ConnectionLog
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ConnectionLogEntry, UptimeRecord
from repro.net.ipv4 import IPv4Address


def v4(probe, start, end, text):
    return ConnectionLogEntry(probe, start, end, IPv4Address.parse(text))


def v6(probe, start, end, text="2001:db8::1"):
    return ConnectionLogEntry(probe, start, end, None, ipv6_address=text)


def assert_same_columns(back, original) -> None:
    """Every stored column survived with its values and dtype."""
    for name in original.COLUMNS:
        got, want = getattr(back, name), getattr(original, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want)


@pytest.fixture
def connlog():
    # Probe 9 added first: the view must still order rows by probe id.
    return ConnectionLog([
        v4(9, 0.0, 10.0, "10.0.0.1"),
        v4(3, 0.0, 5.0, "10.0.1.1"),
        v4(3, 5.0, 9.0, "10.0.1.1"),     # same address: not a run start
        v4(3, 12.0, 20.0, "10.0.1.2"),   # new address: a run start
        v6(7, 1.0, 4.0),
        v4(7, 4.0, 6.0, "10.0.2.1"),
    ])


class TestColumnarConnlog:
    def test_rows_sorted_and_offsets_csr(self, connlog):
        col = ColumnarConnlog.from_connlog(connlog)
        assert col.probe_ids.tolist() == [3, 7, 9]
        assert col.offsets.tolist() == [0, 3, 5, 6]
        assert col.entry_count == connlog.entry_count() == 6
        assert len(col) == 3

    def test_slices_match_record_entries(self, connlog):
        col = ColumnarConnlog.from_connlog(connlog)
        for pid in connlog.probe_ids():
            lo, hi = col.slice_of(pid)
            entries = connlog.entries(pid)
            assert col.starts[lo:hi].tolist() == [e.start for e in entries]
            assert col.ends[lo:hi].tolist() == [e.end for e in entries]
        assert col.has_probe(3) and not col.has_probe(999)

    def test_v6_rows_flagged_with_zero_address(self, connlog):
        col = ColumnarConnlog.from_connlog(connlog)
        lo, hi = col.slice_of(7)
        assert col.v6[lo:hi].tolist() == [1, 0]
        assert col.addrs[lo].item() == 0
        assert col.addrs[lo + 1].item() == IPv4Address.parse("10.0.2.1").value

    def test_durations_match_scalar_subtraction(self, connlog):
        col = ColumnarConnlog.from_connlog(connlog)
        expected = [e.end - e.start
                    for pid in connlog.probe_ids()
                    for e in connlog.entries(pid)]
        assert col.durations().tolist() == expected
        assert col.durations_list() == expected
        assert all(isinstance(v, float) for v in col.durations_list())

    def test_run_starts_first_entry_and_address_changes(self, connlog):
        col = ColumnarConnlog.from_connlog(connlog)
        # probe 3: first entry, repeat address, new address
        # probe 7: first entry, different address value (0 -> v4)
        # probe 9: first entry
        assert col.run_starts().tolist() == [True, False, True,
                                             True, True, True]

    def test_empty_connlog(self):
        col = ColumnarConnlog.from_connlog(ConnectionLog())
        assert col.entry_count == 0
        assert col.offsets.tolist() == [0]
        assert col.run_starts().tolist() == []

    def test_pickle_round_trip(self, connlog):
        col = ColumnarConnlog.from_connlog(connlog)
        col.run_starts()  # derived state is rebuilt, not shipped
        assert list(col.__getstate__()) == ["probe_ids", "offsets", "starts",
                                            "ends", "addrs", "v6"]
        back = pickle.loads(pickle.dumps(col, pickle.HIGHEST_PROTOCOL))
        assert isinstance(back, ColumnarConnlog)
        assert_same_columns(back, col)
        assert back.probe_ids.tolist() == [3, 7, 9]
        assert back.slice_of(3) == col.slice_of(3)
        assert back.run_starts().tolist() == col.run_starts().tolist()


class TestColumnarUptime:
    @pytest.fixture
    def uptime(self):
        return UptimeDataset([
            UptimeRecord(5, 100.0, 50.0),
            UptimeRecord(5, 200.0, 150.0),
            UptimeRecord(2, 90.0, 10.0),
        ])

    def test_rows_sorted_and_slices_match(self, uptime):
        colup = ColumnarUptime.from_uptime(uptime)
        assert colup.probe_ids.tolist() == [2, 5]
        assert colup.offsets.tolist() == [0, 1, 3]
        lo, hi = colup.slice_of(5)
        records = uptime.records(5)
        assert colup.timestamps[lo:hi].tolist() == [r.timestamp
                                                    for r in records]
        assert colup.uptimes[lo:hi].tolist() == [r.uptime for r in records]

    def test_pickle_round_trip(self, uptime):
        colup = ColumnarUptime.from_uptime(uptime)
        back = pickle.loads(pickle.dumps(colup, pickle.HIGHEST_PROTOCOL))
        assert isinstance(back, ColumnarUptime)
        assert list(back.__getstate__()) == ["probe_ids", "offsets",
                                             "timestamps", "uptimes"]
        assert_same_columns(back, colup)
        assert back.slice_of(2) == colup.slice_of(2)
