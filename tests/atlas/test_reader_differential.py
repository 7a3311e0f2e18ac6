"""Differential fuzz: the vectorized readers vs the line-by-line oracle.

``ConnectionLog.read`` and ``UptimeDataset.read`` convert plain lines a
column at a time and send every other line to the per-line parser.  The
line-by-line readers in ``tests/oracle.py`` define the contract: for any
file, under STRICT and REPAIR, both must build the same container (bit
for bit), leave the same ``IngestReport`` (totals and diagnostics, in
order) and raise the same exception with the same message.

The generated files mix well-formed rows with the inputs the two paths
could plausibly disagree on: IPv6 rows, blank and comment lines, wrong
field counts, ``1_000``, padded or Unicode digits (``str.isdigit``
accepts ``²``, ``int`` does not), non-finite numbers, dotted quads with
leading zeros, hex octets or three octets (``inet_aton`` accepts those,
``IPv4Address.parse`` does not), carriage returns, out-of-order and
overlapping rows, negative and wrapped uptime counters.
"""

from __future__ import annotations

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.connlog import ConnectionLog
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ConnectionLogEntry, UptimeRecord
from repro.errors import DatasetError
from repro.net.ipv4 import IPv4Address
from repro.runtime.workers import WorkerContext
from repro.util.ingest import IngestReport, ReadPolicy
from tests.oracle import read_connlog_lines, read_uptime_lines

POLICIES = [ReadPolicy.STRICT, ReadPolicy.REPAIR]

PROBES = st.sampled_from(["1", "2", "3", "17"])
TIMES = st.integers(0, 60)
ODD_NUMBERS = st.sampled_from([
    "x", "", "1_000", " 12", "12 ", "١٢", "²", "1e3", "nan",
    "inf", "-inf", "-5", "+7", "007", "-0", "12.5", "0x10",
    "99999999999999999999", "1234567890123456789", "4294967296",
    "4294967301", "9007199254740993"])
QUADS = st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.1.1",
                         "193.0.0.78", "0.0.0.0", "255.255.255.255"])
ODD_QUADS = st.sampled_from([
    "01.2.3.4", "0x7f.0.0.1", "1.2.3", "1.2.3.256", "1.2.3.4 ", " 1.2.3.4",
    "1.2.3.²", "٣.2.3.4", "1..2.3", "1.2.3.4.5", "1.2.3.a", "",
    "00.0.0.0", "1.2.3.0400"])
IPV6 = st.sampled_from(["2001:db8::1", "::1", ":", "2001:db8::1 ",
                        "fe80::1%eth0", "::ffff:1.2.3.4"])
ODD_LINES = st.sampled_from(["", "   ", "# comment", "#1\t2\t3\t1.2.3.4",
                             "\t\t\t", "\t\t", "junk", "1\t2", "\x1c"])
SUFFIXES = st.sampled_from(["", "", "", "\r", " ", "\t", " "])


def _field(plain, odd):
    return st.one_of(plain, plain, plain, odd)


@st.composite
def connlog_lines(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(ODD_LINES)
    start = draw(TIMES)
    fields = [
        draw(_field(PROBES, ODD_NUMBERS)),
        draw(_field(st.just(str(start)), ODD_NUMBERS)),
        draw(_field(st.just(str(start + draw(st.integers(0, 12)))),
                    ODD_NUMBERS)),
        draw(st.one_of(QUADS, QUADS, QUADS, ODD_QUADS, IPV6)),
    ]
    if draw(st.integers(0, 15)) == 0:
        fields = fields[:-1] if draw(st.booleans()) else fields + ["x"]
    return "\t".join(fields) + draw(SUFFIXES)


@st.composite
def uptime_lines(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(ODD_LINES)
    wrapped = st.integers(2 ** 32, 2 ** 32 + 50).map(str)
    fields = [
        draw(_field(PROBES, ODD_NUMBERS)),
        draw(_field(TIMES.map(str), ODD_NUMBERS)),
        draw(st.one_of(TIMES.map(str), TIMES.map(str), wrapped,
                       st.just("-3"), ODD_NUMBERS)),
    ]
    if draw(st.integers(0, 15)) == 0:
        fields = fields[:-1] if draw(st.booleans()) else fields + ["x"]
    return "\t".join(fields) + draw(SUFFIXES)


def texts(lines):
    return st.tuples(st.lists(lines, max_size=25), st.booleans()).map(
        lambda drawn: "\n".join(drawn[0]) + ("\n" if drawn[1] else ""))


def connlog_state(log: ConnectionLog):
    col = log.columns()
    return (col.probe_ids.tolist(), col.offsets.tolist(),
            col.starts.tobytes(), col.ends.tobytes(), col.addrs.tolist(),
            col.v6.tolist(), list(log))


def uptime_state(dataset: UptimeDataset):
    col = dataset.columns()
    return (col.probe_ids.tolist(), col.offsets.tolist(),
            col.timestamps.tobytes(), col.uptimes.tobytes(), list(dataset))


def outcome(reader, state, text: str, policy: ReadPolicy):
    """What a read leaves behind: container or exception, and report."""
    report = IngestReport()
    try:
        result = ("built", state(reader(io.StringIO(text), policy, report,
                                        source="f.tsv")))
    except Exception as error:  # the exception type is the outcome
        result = ("raised", type(error).__name__, str(error))
    return result, report.to_dict()


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@settings(max_examples=300, deadline=None)
@given(text=texts(connlog_lines()))
def test_connlog_reader_matches_line_by_line(policy, text):
    assert (outcome(ConnectionLog.read, connlog_state, text, policy)
            == outcome(read_connlog_lines, connlog_state, text, policy))


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@settings(max_examples=300, deadline=None)
@given(text=texts(uptime_lines()))
def test_uptime_reader_matches_line_by_line(policy, text):
    assert (outcome(UptimeDataset.read, uptime_state, text, policy)
            == outcome(read_uptime_lines, uptime_state, text, policy))


class TestKnownCases:
    """Cases the fuzzer should hit, pinned so they always run."""

    @pytest.mark.parametrize("text", [
        "1\t5\t10\t10.0.0.1\n1\t0\t3\t10.0.0.2\n1\t0\t3\t10.0.0.2\n",
        "1\t0\t10\t10.0.0.1\n2\tx\t3\t1.2.3.4\n1\t5\t9\t10.0.0.1\n",
        "1\t0\t10\t01.2.3.4\n",
        "1\t0\t10\t1.2.3.²\n",
        "1\tnan\t10\t1.2.3.4\n",
        "1\t-0\t10\t1.2.3.4\n1\t0\t10\t1.2.3.5\n",
        "99999999999999999999\t0\t1\t1.2.3.4\n",
    ])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_connlog(self, text, policy):
        assert (outcome(ConnectionLog.read, connlog_state, text, policy)
                == outcome(read_connlog_lines, connlog_state, text, policy))

    @pytest.mark.parametrize("text", [
        "1\t5\t1\n1\t3\t4294967300\n1\t4\t2\n",
        "1\t5\t-3\n1\t4\t2\n",
        "1\t5\t1\n1\t5\t2\n1\t4\t0\n",
    ])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_uptime(self, text, policy):
        assert (outcome(UptimeDataset.read, uptime_state, text, policy)
                == outcome(read_uptime_lines, uptime_state, text, policy))


class TestSealing:
    def test_connlog_add_after_read_invalidates_columns(self):
        log = ConnectionLog.read(io.StringIO(
            "1\t0\t10\t10.0.0.1\n2\t0\t5\t2001:db8::1\n"))
        sealed = log.columns()
        log.add(ConnectionLogEntry(1, 10.0, 20.0,
                                   IPv4Address.parse("10.0.0.2")))
        assert log.columns() is not sealed
        assert sealed.entry_count == 2          # the old columns stand
        assert log.columns().entry_count == 3
        assert [str(e.address) for e in log.entries(1)] == ["10.0.0.1",
                                                           "10.0.0.2"]
        assert log.entries(2)[0].ipv6_address == "2001:db8::1"
        with pytest.raises(DatasetError):
            log.add(ConnectionLogEntry(1, 15.0, 30.0,
                                       IPv4Address.parse("10.0.0.3")))

    def test_uptime_add_after_read_invalidates_columns(self):
        dataset = UptimeDataset.read(io.StringIO("1\t10\t5\n"))
        sealed = dataset.columns()
        dataset.add(UptimeRecord(1, 20.0, 15.0))
        assert dataset.columns() is not sealed
        assert sealed.timestamps.tolist() == [10.0]
        assert [r.uptime for r in dataset.records(1)] == [5.0, 15.0]
        with pytest.raises(DatasetError):
            dataset.add(UptimeRecord(1, 5.0, 1.0))

    def test_write_round_trips_byte_identical(self):
        text = ("1\t0\t10\t10.0.0.1\n1\t10\t20\t2001:db8::1\n"
                "3\t5\t6\t255.255.255.255\n")
        out = io.StringIO()
        ConnectionLog.read(io.StringIO(text)).write(out)
        assert out.getvalue() == text
        text = "1\t0\t10\n1\t5\t4294967295\n2\t7\t0\n"
        out = io.StringIO()
        UptimeDataset.read(io.StringIO(text)).write(out)
        assert out.getvalue() == text

    def test_worker_context_pickles_columns(self):
        connlog = ConnectionLog.read(io.StringIO(
            "1\t0\t10\t10.0.0.1\n2\t0\t5\t2001:db8::1\n"))
        uptime = UptimeDataset.read(io.StringIO("1\t10\t5\n"))
        context = WorkerContext(connlog=connlog, archive=None, ip2as=None,
                                kroot=None, uptime=uptime, min_connected=0.0)
        connlog.columns().durations_list()      # memoized state is dropped
        back = pickle.loads(pickle.dumps(context))
        assert connlog_state(back.connlog) == connlog_state(connlog)
        assert uptime_state(back.uptime) == uptime_state(uptime)
        assert back.connlog.columns().slice_of(2) == (1, 2)
