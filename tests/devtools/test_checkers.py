"""Per-rule tests for the repro.devtools checkers.

Each rule gets three fixtures: a snippet that triggers it, a clean snippet
that must not, and a snippet where a ``# repro: noqa[RULE]`` comment
suppresses the finding.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools import all_checkers, lint_source


def lint(source: str, module: str = "repro.sim.example",
         rules: list[str] | None = None, is_package: bool = False):
    return lint_source(textwrap.dedent(source), path="example.py",
                       module=module, rules=rules, is_package=is_package)


def rules_of(diagnostics) -> set[str]:
    return {d.rule for d in diagnostics}


def test_registry_lists_every_rule():
    assert [c.rule for c in all_checkers()] == [
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
        "RPR006", "RPR008", "RPR010"]


# ---------------------------------------------------------------- RPR001

def test_rpr001_flags_global_rng_call():
    findings = lint("""
        import random

        def jitter():
            return random.random()
    """, rules=["RPR001"])
    assert rules_of(findings) == {"RPR001"}
    assert "global RNG" in findings[0].message


def test_rpr001_flags_unseeded_random_and_from_import():
    findings = lint("""
        import random
        from random import randint

        def make():
            return random.Random()
    """, rules=["RPR001"])
    assert len(findings) == 2
    assert any("unseeded" in d.message for d in findings)
    assert any("from random import randint" in d.message for d in findings)


def test_rpr001_flags_wall_clock_in_sim_layer():
    findings = lint("""
        import time

        def stamp():
            return time.time()
    """, module="repro.sim.timeline", rules=["RPR001"])
    assert rules_of(findings) == {"RPR001"}
    assert "wall clock" in findings[0].message


def test_rpr001_flags_perf_counter_ns():
    # the _ns variant of an already-forbidden call must not slip through
    findings = lint("""
        import time

        def stamp():
            return time.perf_counter_ns()
    """, module="repro.core.changes", rules=["RPR001"])
    assert rules_of(findings) == {"RPR001"}
    assert "wall clock" in findings[0].message


def test_rpr001_clean_seeded_rng_and_annotations():
    findings = lint("""
        import random

        def draw(rng: random.Random) -> float:
            return rng.random()

        def make(seed: int) -> random.Random:
            return random.Random(seed)
    """, rules=["RPR001"])
    assert findings == []


def test_rpr001_wall_clock_allowed_outside_sim_core():
    findings = lint("""
        import time

        def stamp():
            return time.time()
    """, module="repro.experiments.cli", rules=["RPR001"])
    assert findings == []


def test_rpr001_rng_home_is_exempt():
    findings = lint("""
        import random

        def substream(seed):
            return random.Random(seed)

        FALLBACK = random.random()
    """, module="repro.util.rng", rules=["RPR001"])
    assert findings == []


def test_rpr001_noqa_suppresses():
    findings = lint("""
        import random

        def jitter():
            return random.random()  # repro: noqa[RPR001]
    """, rules=["RPR001"])
    assert findings == []


# ---------------------------------------------------------------- RPR002

def test_rpr002_flags_magic_hour_literal():
    findings = lint("""
        def age_hours(seconds):
            return seconds / 3600.0
    """, rules=["RPR002"])
    assert rules_of(findings) == {"RPR002"}
    assert "HOUR" in findings[0].message


def test_rpr002_flags_day_multiples_and_comparisons():
    findings = lint("""
        def is_long(duration):
            return duration > 86400 * 2

        def one_year():
            return 365 * 86400
    """, rules=["RPR002"])
    assert len(findings) == 2
    assert all("DAY" in d.message for d in findings)


def test_rpr002_clean_constants_and_small_numbers():
    findings = lint("""
        from repro.util.timeutil import DAY, HOUR

        def window(duration):
            return min(30 * DAY, duration / 10) + 2 * HOUR + 59
    """, rules=["RPR002"])
    assert findings == []


def test_rpr002_ignores_literals_outside_arithmetic():
    # A bare assignment or argument is not "time arithmetic": the paper's
    # probe counts, port numbers etc. may legitimately be multiples of 60.
    findings = lint("""
        PROBES = 10980

        def listen(port=8100, backlog=120):
            return (port, backlog)
    """, rules=["RPR002"])
    assert findings == []


def test_rpr002_timeutil_module_is_exempt():
    findings = lint("""
        MINUTE = 60.0
        HOUR = 60.0 * 60.0
    """, module="repro.util.timeutil", rules=["RPR002"])
    assert findings == []


def test_rpr002_noqa_suppresses():
    findings = lint("""
        def age_hours(seconds):
            return seconds / 3600.0  # repro: noqa[RPR002]
    """, rules=["RPR002"])
    assert findings == []


# ---------------------------------------------------------------- RPR003

def test_rpr003_rejects_util_importing_core():
    findings = lint("""
        from repro.core.pipeline import AnalysisPipeline
    """, module="repro.util.helpers", rules=["RPR003"])
    assert rules_of(findings) == {"RPR003"}
    assert "upward import" in findings[0].message
    assert "repro.util" in findings[0].message
    assert "repro.core" in findings[0].message


def test_rpr003_rejects_sim_importing_core():
    findings = lint("""
        def lazy():
            from repro.core.pipeline import AnalysisPipeline
            return AnalysisPipeline
    """, module="repro.sim.io", rules=["RPR003"])
    assert rules_of(findings) == {"RPR003"}


def test_rpr003_rejects_sibling_import_between_dhcp_and_ppp():
    findings = lint("""
        from repro.ppp.session import PppoeConcentrator
    """, module="repro.dhcp.server", rules=["RPR003"])
    assert rules_of(findings) == {"RPR003"}
    assert "siblings" in findings[0].message


def test_rpr003_rejects_runtime_import_of_devtools():
    findings = lint("""
        from repro.devtools import lint_paths
    """, module="repro.core.pipeline", rules=["RPR003"])
    assert rules_of(findings) == {"RPR003"}


def test_rpr003_allows_downward_and_same_layer_imports():
    findings = lint("""
        import math
        from repro import errors
        from repro.atlas.types import ProbeMeta
        from repro.isp.spec import IspSpec
        from repro.sim.world import WorldData
        from repro.util.timeutil import DAY
    """, module="repro.sim.io", rules=["RPR003"])
    assert findings == []


def test_rpr003_resolves_relative_imports():
    findings = lint("""
        from ..core import pipeline
    """, module="repro.util.helpers", rules=["RPR003"])
    assert rules_of(findings) == {"RPR003"}


def test_rpr003_noqa_suppresses():
    findings = lint("""
        from repro.core.pipeline import AnalysisPipeline  # repro: noqa[RPR003]
    """, module="repro.util.helpers", rules=["RPR003"])
    assert findings == []


# ---------------------------------------------------------------- RPR004

def test_rpr004_flags_raise_exception_and_bare_except():
    findings = lint("""
        def run():
            try:
                raise Exception("boom")
            except:
                pass
    """, rules=["RPR004"])
    assert len(findings) == 2
    assert any("type information" in d.message for d in findings)
    assert any("bare except" in d.message for d in findings)


def test_rpr004_flags_blanket_except_exception():
    findings = lint("""
        def run(task):
            try:
                task()
            except Exception:
                return None
    """, rules=["RPR004"])
    assert rules_of(findings) == {"RPR004"}


def test_rpr004_clean_domain_errors():
    findings = lint("""
        from repro.errors import ParseError, ReproError

        def parse(text):
            try:
                return int(text)
            except ValueError:
                raise ParseError("bad record %r" % (text,))

        def guard(callback):
            try:
                return callback()
            except ReproError:
                raise
    """, rules=["RPR004"])
    assert findings == []


def test_rpr004_noqa_suppresses():
    findings = lint("""
        def main():
            try:
                return 0
            except Exception:  # repro: noqa[RPR004]
                return 1
    """, rules=["RPR004"])
    assert findings == []


# ---------------------------------------------------------------- RPR005

def test_rpr005_flags_unfrozen_value_object():
    findings = lint("""
        from dataclasses import dataclass

        @dataclass
        class ProbeMeta:
            probe_id: int
    """, module="repro.atlas.types", rules=["RPR005"])
    assert rules_of(findings) == {"RPR005"}
    assert "frozen=True" in findings[0].message


def test_rpr005_flags_mutable_field_default():
    findings = lint("""
        from dataclasses import dataclass, field

        @dataclass
        class Accumulator:
            values: list = field(default=list())
            table: dict = dict()
    """, rules=["RPR005"])
    assert len(findings) == 2
    assert all("default_factory" in d.message for d in findings)


def test_rpr005_clean_frozen_and_factory():
    findings = lint("""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ProbeMeta:
            probe_id: int
    """, module="repro.atlas.types", rules=["RPR005"])
    assert findings == []

    findings = lint("""
        from dataclasses import dataclass, field

        @dataclass
        class Accumulator:
            values: list = field(default_factory=list)
    """, rules=["RPR005"])
    assert findings == []


def test_rpr005_mutable_state_holders_allowed_outside_value_modules():
    findings = lint("""
        from dataclasses import dataclass

        @dataclass
        class Session:
            probe_id: int
            connected: bool = False
    """, module="repro.sim.timeline", rules=["RPR005"])
    assert findings == []


def test_rpr005_noqa_suppresses():
    findings = lint("""
        from dataclasses import dataclass

        @dataclass
        class ProbeMeta:  # repro: noqa[RPR005]
            probe_id: int
    """, module="repro.atlas.types", rules=["RPR005"])
    assert findings == []


# ------------------------------------------------------- driver behaviour

def test_blanket_noqa_suppresses_every_rule():
    findings = lint("""
        import random

        def jitter():
            return random.random() / 3600  # repro: noqa
    """)
    assert findings == []


def test_syntax_error_reported_as_rpr000():
    findings = lint("def broken(:\n    pass\n")
    assert rules_of(findings) == {"RPR000"}


def test_diagnostics_are_sorted_and_structured():
    findings = lint("""
        import random

        def bad():
            try:
                return random.random() + 3600
            except:
                return None
    """)
    assert findings == sorted(findings)
    payload = findings[0].to_dict()
    assert set(payload) == {"path", "line", "col", "rule", "severity", "message"}
    rendered = findings[0].format()
    assert "example.py:" in rendered and findings[0].rule in rendered


def test_unknown_rule_subset_raises():
    with pytest.raises(KeyError):
        lint("x = 1", rules=["RPR999"])
