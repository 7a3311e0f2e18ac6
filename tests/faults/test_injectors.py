"""Tests for repro.faults.injectors (line-level corruption primitives)."""

from repro.errors import ParseError
from repro.faults.injectors import (
    FaultKind,
    drop_kroot_series,
    duplicate_lines,
    garble_lines,
    garble_uptime_values,
    malform_kroot_series,
    same_probe_adjacent_pairs,
    swap_adjacent_pairs,
    truncate_lines,
    wrap_uptime_counters,
)
from repro.util.rng import substream

CONNLOG = [
    "1\t100\t200\t10.0.0.1",
    "1\t250\t300\t10.0.0.2",
    "2\t100\t150\t10.0.1.1",
    "2\t160\t170\t10.0.1.2",
]
UPTIME = [
    "1\t1000\t500",
    "1\t2000\t1500",
]


def rng():
    return substream(99, "test", "injectors")


class TestGarble:
    def test_replaces_with_unparseable_junk(self):
        lines = list(CONNLOG)
        faults = garble_lines(lines, [1], rng(), "f",
                              FaultKind.CONNLOG_GARBLED)
        assert len(faults) == 1 and faults[0].line == 2
        assert "\t" not in lines[1]
        assert lines[1].strip() and not lines[1].startswith("#")

    def test_deterministic_for_same_stream(self):
        first, second = list(CONNLOG), list(CONNLOG)
        garble_lines(first, [0, 2], rng(), "f", FaultKind.CONNLOG_GARBLED)
        garble_lines(second, [0, 2], rng(), "f", FaultKind.CONNLOG_GARBLED)
        assert first == second


class TestTruncate:
    def test_always_leaves_too_few_fields(self):
        for seed in range(20):
            lines = list(CONNLOG)
            truncate_lines(lines, [0], substream(seed, "t"), "f",
                           FaultKind.CONNLOG_TRUNCATED)
            assert len(lines[0].strip().split("\t")) < 4
            assert lines[0].strip()


class TestDuplicate:
    def test_inserts_copy_after_original(self):
        lines = list(CONNLOG)
        faults = duplicate_lines(lines, [0, 2], "f",
                                 FaultKind.CONNLOG_DUPLICATED)
        assert len(lines) == 6
        assert lines[0] == lines[1] == CONNLOG[0]
        assert lines[3] == lines[4] == CONNLOG[2]
        assert all(fault.records_delta == 1 for fault in faults)


class TestSwap:
    def test_swaps_with_successor(self):
        lines = list(CONNLOG)
        swap_adjacent_pairs(lines, [0], "f",
                            FaultKind.CONNLOG_OUT_OF_ORDER)
        assert lines[0] == CONNLOG[1] and lines[1] == CONNLOG[0]

    def test_same_probe_pairs_only(self):
        # Pairs (0,1) and (2,3) share a probe; pair (1,2) crosses probes.
        assert same_probe_adjacent_pairs(CONNLOG) == [0, 2]


class TestUptimeFaults:
    def test_wrap_adds_counter_modulus(self):
        lines = list(UPTIME)
        wrap_uptime_counters(lines, [0], "f")
        assert lines[0].split("\t")[2] == "%.0f" % (500 + 2 ** 32)

    def test_garble_makes_counter_non_numeric(self):
        lines = list(UPTIME)
        garble_uptime_values(lines, [1], rng(), "f")
        try:
            float(lines[1].split("\t")[2])
        except ValueError:
            pass
        else:
            raise AssertionError("counter still parses: %r" % lines[1])


class TestKrootFaults:
    def states(self):
        return [{"probe_id": pid, "start": 0.0, "end": 10.0,
                 "cadence": 240.0, "phase": 0.0,
                 "power_off": [], "network_down": []}
                for pid in (1, 2, 3)]

    def test_drop_removes_states(self):
        states = self.states()
        faults = drop_kroot_series(states, [1], "f")
        assert [s["probe_id"] for s in states] == [1, 3]
        assert faults[0].records_delta == -1

    def test_malform_strips_a_required_key(self):
        from repro.sim.io import _state_fields
        states = self.states()
        malform_kroot_series(states, [0], rng(), "f")
        assert len(states) == 3
        try:
            _state_fields(states[0], "f", 1)
        except ParseError:
            pass
        else:
            raise AssertionError("malformed state still parses")
