"""Differential fuzz: the streaming k-root loader vs the whole-text oracle.

``repro.sim.io._load_kroot`` walks ``kroot.json`` one series state at a
time, straight into span arrays.  ``tests.oracle.load_kroot_states`` is
the loader it replaced: ``json.loads`` of the whole text, then one
``IntervalSet`` per interval list.  For any text, under STRICT and
REPAIR, both must accept the same series (the same normalized
intervals), leave the same ``IngestReport`` and raise the same exception
with the same message.

The generated states mix written-by-``write_world`` states with the
inputs the two paths could disagree on: missing keys, values of the
wrong JSON type, intervals unsorted, overlapping, touching, empty or
reversed, pairs of the wrong arity, empty windows, bad cadences and
duplicate probes.  The texts are sometimes garbled: truncated, cut into,
padded with trailing data, or not an array at all.

One deliberate difference is pinned on its own: the oracle accepted
interval endpoints that are not numbers (a string, a list, NaN) into its
IntervalSets, and the analysis later failed on them; the streaming
loader rejects the state as malformed.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.sim.io import _load_kroot
from repro.util.ingest import IngestReport, ReadPolicy
from tests.oracle import load_kroot_states

POLICIES = [ReadPolicy.STRICT, ReadPolicy.REPAIR]


class TextPath:
    """The slice of ``pathlib.Path`` both loaders use."""

    def __init__(self, text: str) -> None:
        self.text = text

    def read_text(self) -> str:
        return self.text

    def __str__(self) -> str:
        return "kroot.json"


POINTS = st.sampled_from([0, 1, 2, 3, 5, 8]) | st.sampled_from(
    [0.0, 1.5, 2.0, 3.25, 5.0, 1e9, -1.0])
ODD_VALUES = st.sampled_from([None, "5", "x", [], {}, True, False, -3,
                              0.0, 1e400, 2.5])


@st.composite
def pairs(draw):
    kind = draw(st.integers(0, 11))
    if kind == 0:
        return draw(st.sampled_from([[1], [1, 2, 3], [], 5, None,
                                     [None, 2], [1, None], [[1], 2],
                                     [True, False], [False, True]]))
    start = draw(POINTS)
    if kind == 1:
        return [start, start]
    if kind == 2:
        return [start, start - draw(st.sampled_from([1, 0.5]))]
    return [start, start + draw(POINTS.filter(lambda x: x > 0))]


@st.composite
def families(draw):
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from([None, {}, "ab", "abc", 3, [[]]]))
    return draw(st.lists(pairs(), max_size=6))


@st.composite
def states(draw):
    probe = draw(st.sampled_from([1, 2, 3, 17]))
    start = draw(st.sampled_from([0.0, 10.0, 100.0]))
    state = {
        "probe_id": probe,
        "start": start,
        "end": start + draw(st.sampled_from([1000.0, 86400.0, 0.0, -5.0])),
        "cadence": draw(st.sampled_from([240.0, 240.0, 60.0, 0.0, -1.0])),
        "phase": draw(st.sampled_from([0.0, 37.0, 102.5])),
        "power_off": draw(families()),
        "network_down": draw(families()),
    }
    if draw(st.integers(0, 5)) == 0:
        keys = sorted(state)
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            del state[key]
        else:
            state[key] = draw(ODD_VALUES)
    if draw(st.integers(0, 20)) == 0:
        return draw(st.sampled_from([None, 3, "state", [1, 2]]))
    return state


@st.composite
def texts(draw):
    text = json.dumps(draw(st.lists(states(), max_size=8)),
                      indent=draw(st.sampled_from([None, None, 1])))
    garble = draw(st.integers(0, 9))
    if garble == 0 and text:
        return text[:draw(st.integers(0, len(text) - 1))]
    if garble == 1:
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(
            ["x", ",", "]", "[", "{", "}", '"', " ", "\n", "NaN"])) + text[at:]
    if garble == 2:
        return text + draw(st.sampled_from([" ", "\n", "x", "]", "[]",
                                            ",", " \t\r\n"]))
    if garble == 3:
        return draw(st.sampled_from(["{}", "3", '"x"', "null", "", " ",
                                     "\ufeff[]", "[", "[,]", "[1,]",
                                     " [ ] ", "[]x", "[[]]"]))
    return text


def oracle_series(series: dict) -> dict:
    return {probe_id: (repr(start), repr(end), repr(cadence), repr(phase),
                       [(repr(float(iv.start)), repr(float(iv.end)))
                        for iv in power],
                       [(repr(float(iv.start)), repr(float(iv.end)))
                        for iv in network])
            for probe_id, (start, end, cadence, phase, power, network)
            in series.items()}


def loaded_series(kroot) -> dict:
    out = {}
    for probe_id in kroot.probe_ids():
        series = kroot.series(probe_id)
        out[probe_id] = (
            repr(series.observed_start), repr(series.observed_end),
            repr(series.cadence), repr(series.phase),
            [(repr(iv.start), repr(iv.end)) for iv in series.power_off],
            [(repr(iv.start), repr(iv.end)) for iv in series.network_down])
    return out


def outcome(load, to_series, text: str, policy: ReadPolicy):
    """What a load leaves behind: series or exception, and report."""
    report = IngestReport()
    try:
        result = ("built", to_series(load(TextPath(text), policy, report)))
    except Exception as error:  # the exception type is the outcome
        result = ("raised", type(error).__name__, str(error))
    return result, report.to_dict()


def assert_same(text: str, policy: ReadPolicy) -> None:
    assert (outcome(_load_kroot, loaded_series, text, policy)
            == outcome(load_kroot_states, oracle_series, text, policy))


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@settings(max_examples=400, deadline=None)
@given(text=texts())
def test_streaming_loader_matches_whole_text_oracle(policy, text):
    assert_same(text, policy)


class TestKnownCases:
    """Cases the fuzzer should hit, pinned so they always run."""

    STATE = {"probe_id": 1, "start": 0.0, "end": 1000.0, "cadence": 240.0,
             "phase": 0.0, "power_off": [], "network_down": []}

    @pytest.mark.parametrize("power", [
        [[5, 8], [1, 5], [2, 3]],          # unsorted, touching, nested
        [[1.0, 1.0], [3, 4]],              # empty interval dropped
        [[4, 3]],                          # reversed: malformed
        [[1, 2, 3]], [[None, 2]], [5], None, "ab",
        [[False, True]], [[True, False]],
    ])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_intervals(self, power, policy):
        assert_same(json.dumps([dict(self.STATE, power_off=power)]), policy)

    @pytest.mark.parametrize("text", [
        "", "[", "[1,]", "[]]", "{}", "\ufeff[]", ' [ {"probe_id": 1} ] ',
        json.dumps([STATE, STATE]),                      # duplicate
        json.dumps([dict(STATE, end=0.0)]),              # empty window
        json.dumps([dict(STATE, cadence=0.0)]),
        json.dumps([dict(STATE, probe_id=1e400)]),      # OverflowError
        json.dumps([STATE, dict(STATE, probe_id=2)]) + "x",
    ])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_texts(self, text, policy):
        assert_same(text, policy)

    @pytest.mark.parametrize("pair", [["a", "b"], [[1], [2]],
                                      [float("nan"), 1.0]])
    def test_non_number_endpoints_are_malformed(self, pair):
        text = json.dumps([dict(self.STATE, power_off=[pair])])
        # The oracle took the endpoint into an IntervalSet as it was.
        assert load_kroot_states(TextPath(text)) != {}
        with pytest.raises(ParseError, match="is not a float64 number"):
            _load_kroot(TextPath(text), ReadPolicy.STRICT, IngestReport())
        report = IngestReport()
        assert _load_kroot(TextPath(text), ReadPolicy.REPAIR,
                           report).probe_ids() == []
        assert report.dataset("kroot").quarantined == 1
